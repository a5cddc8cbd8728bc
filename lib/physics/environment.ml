open Avis_geo

type obstacle = { centre : Vec3.t; half_extents : Vec3.t; label : string }

type fence = { centre_xy : Vec3.t; radius_m : float; max_alt_m : float }

type wind = {
  steady : Vec3.t;
  gust_stddev : float;
  gust_correlation_s : float;
}

type t = {
  obstacles : obstacle list;
  fence : fence option;
  wind : wind option;
  gust : Vec3.Mut.vec; (* updated in place by the step kernel *)
}

let create ?(obstacles = []) ?(fence = None) ?(wind = None) () =
  { obstacles; fence; wind; gust = Vec3.Mut.create () }

let benign () = create ()

let copy t =
  (* Obstacles, fence and wind spec are immutable; only the gust state is
     mutable. *)
  { obstacles = t.obstacles; fence = t.fence; wind = t.wind;
    gust = Vec3.Mut.copy t.gust }

let obstacles t = t.obstacles
let fence t = t.fence

let encode_obstacle b o =
  Vec3.encode b o.centre;
  Vec3.encode b o.half_extents;
  Avis_util.Codec.w_string b o.label

let encode_gust b t =
  let open Avis_util.Codec in
  w_f64 b t.gust.Vec3.Mut.x;
  w_f64 b t.gust.Vec3.Mut.y;
  w_f64 b t.gust.Vec3.Mut.z

let encode b t =
  let open Avis_util.Codec in
  w_list b encode_obstacle t.obstacles;
  w_option b
    (fun b f ->
      Vec3.encode b f.centre_xy;
      w_f64 b f.radius_m;
      w_f64 b f.max_alt_m)
    t.fence;
  w_option b
    (fun b w ->
      Vec3.encode b w.steady;
      w_f64 b w.gust_stddev;
      w_f64 b w.gust_correlation_s)
    t.wind;
  encode_gust b t

let decode_gust t r =
  let open Avis_util.Codec in
  t.gust.Vec3.Mut.x <- r_f64 r;
  t.gust.Vec3.Mut.y <- r_f64 r;
  t.gust.Vec3.Mut.z <- r_f64 r

(* Advance the gust process and write the current wind into [dst] — the
   single implementation [wind_at] also goes through, so both paths draw
   the same randomness and compute the same floats. Calm environments are
   allocation- and RNG-free. *)
let wind_into t rng dt (dst : Vec3.Mut.vec) =
  match t.wind with
  | None ->
    dst.Vec3.Mut.x <- 0.0;
    dst.Vec3.Mut.y <- 0.0;
    dst.Vec3.Mut.z <- 0.0
  | Some w ->
    (* Ornstein-Uhlenbeck gusts: exponentially correlated noise around the
       steady component. *)
    let tau = Float.max 1e-3 w.gust_correlation_s in
    let alpha = exp (-.dt /. tau) in
    let sigma = w.gust_stddev *. sqrt (1.0 -. (alpha *. alpha)) in
    (* The original built the noise vector with [Vec3.make g g g'], whose
       arguments evaluate right to left — so the z draw comes first. Keep
       that order or every windy run's randomness shifts. *)
    let nz = Avis_util.Rng.gaussian_scaled rng ~mean:0.0 ~stddev:(sigma /. 3.0) in
    let ny = Avis_util.Rng.gaussian_scaled rng ~mean:0.0 ~stddev:sigma in
    let nx = Avis_util.Rng.gaussian_scaled rng ~mean:0.0 ~stddev:sigma in
    let g = t.gust in
    g.Vec3.Mut.x <- (alpha *. g.Vec3.Mut.x) +. nx;
    g.Vec3.Mut.y <- (alpha *. g.Vec3.Mut.y) +. ny;
    g.Vec3.Mut.z <- (alpha *. g.Vec3.Mut.z) +. nz;
    dst.Vec3.Mut.x <- w.steady.Vec3.x +. g.Vec3.Mut.x;
    dst.Vec3.Mut.y <- w.steady.Vec3.y +. g.Vec3.Mut.y;
    dst.Vec3.Mut.z <- w.steady.Vec3.z +. g.Vec3.Mut.z

let wind_at t rng dt =
  match t.wind with
  | None -> Vec3.zero
  | Some _ ->
    let dst = Vec3.Mut.create () in
    wind_into t rng dt dst;
    Vec3.Mut.to_t dst

let ground_altitude _t _pos = 0.0
let[@inline] ground_altitude_xyz _t ~x:_ ~y:_ = 0.0

(* Pointer-only variant for the step kernel: writes the ground level under
   [pos] into the single-cell [dst]. No float crosses the call, so it stays
   allocation-free even without cross-module inlining. *)
let ground_altitude_into _t ~pos:(_ : Vec3.Mut.vec) (dst : float array) =
  dst.(0) <- 0.0

let[@inline] contains_xyz o ~x ~y ~z =
  let dx = x -. o.centre.Vec3.x in
  let dy = y -. o.centre.Vec3.y in
  let dz = z -. o.centre.Vec3.z in
  Float.abs dx <= o.half_extents.Vec3.x
  && Float.abs dy <= o.half_extents.Vec3.y
  && Float.abs dz <= o.half_extents.Vec3.z

(* Top-level recursion (not an inner closure) so the empty-obstacle probe
   allocates nothing for the environment. *)
let rec find_obstacle obstacles ~x ~y ~z =
  match obstacles with
  | [] -> None
  | o :: rest ->
    if contains_xyz o ~x ~y ~z then Some o else find_obstacle rest ~x ~y ~z

let obstacle_at t ~x ~y ~z = find_obstacle t.obstacles ~x ~y ~z

let[@inline] has_obstacles t = t.obstacles <> []
let[@inline] has_fence t = t.fence <> None

let inside_obstacle t pos =
  obstacle_at t ~x:pos.Vec3.x ~y:pos.Vec3.y ~z:pos.Vec3.z

let[@inline] breaches_fence_xyz t ~x ~y ~z =
  match t.fence with
  | None -> false
  | Some f ->
    (* horizontal (pos - centre), then its norm — spelled out so the fence
       check never allocates. *)
    let dx = x -. f.centre_xy.Vec3.x in
    let dy = y -. f.centre_xy.Vec3.y in
    let n = sqrt ((dx *. dx) +. (dy *. dy) +. (0.0 *. 0.0)) in
    n > f.radius_m || z > f.max_alt_m

let breaches_fence t pos =
  breaches_fence_xyz t ~x:pos.Vec3.x ~y:pos.Vec3.y ~z:pos.Vec3.z
