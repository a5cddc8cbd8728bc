open Avis_geo

type t = {
  frame : Airframe.t;
  layout : (Vec3.t * float) array;
  commanded : float array;
  actual : float array; (* thrust fraction actually produced *)
  thrust_n : float array; (* newtons per motor, refreshed by [step] *)
  total_n : float array; (* single cell: cached sum of [thrust_n] *)
  lag : float array;
      (* [| dt; alpha |]: the lag filter's gain for the last step size, a
         constant of the airframe and [dt]. Derived, never encoded. *)
}

(* Motors evenly spaced around the airframe starting 45 degrees off the
   nose (so a quad is the usual X configuration), with alternating spin
   directions for yaw authority. Any even motor count works. *)
let mix_layout (frame : Airframe.t) =
  let n = frame.motor_count in
  if n < 4 || n mod 2 <> 0 then
    invalid_arg "Motor.mix_layout: motor count must be even and at least 4";
  Array.init n (fun i ->
      let angle =
        (Float.pi /. 4.0)
        -. (2.0 *. Float.pi *. float_of_int i /. float_of_int n)
      in
      let pos =
        Vec3.make
          (frame.arm_length_m *. cos angle)
          (frame.arm_length_m *. sin angle)
          0.0
      in
      let spin = if i mod 2 = 0 then 1.0 else -1.0 in
      (pos, spin))

(* Refresh the cached per-motor newtons and their sum from [actual]; the
   expressions match the pure [thrusts]/fold pair so the cache is
   bit-identical to recomputing. *)
let refresh_thrust t =
  let max_n = t.frame.Airframe.max_thrust_per_motor_n in
  t.total_n.(0) <- 0.0;
  for i = 0 to Array.length t.actual - 1 do
    t.thrust_n.(i) <- t.actual.(i) *. max_n;
    t.total_n.(0) <- t.total_n.(0) +. t.thrust_n.(i)
  done

let create frame =
  let n = frame.Airframe.motor_count in
  {
    frame;
    layout = mix_layout frame;
    commanded = Array.make n 0.0;
    actual = Array.make n 0.0;
    thrust_n = Array.make n 0.0;
    total_n = Array.make 1 0.0;
    lag = [| Float.nan; 0.0 |];
  }

let command t cmds =
  if Array.length cmds <> Array.length t.commanded then
    invalid_arg "Motor.command: wrong motor count";
  for i = 0 to Array.length cmds - 1 do
    (* [Stats.clamp ~lo:0.0 ~hi:1.0] spelled out so the floats stay in
       registers (the helper is not guaranteed to inline). *)
    t.commanded.(i) <- Float.max 0.0 (Float.min 1.0 cmds.(i))
  done

let step t dt =
  if not (dt = t.lag.(0)) then begin
    (* Worked out once per step size, by the same expression, so the bits
       do not change. *)
    let tau = t.frame.Airframe.motor_time_constant_s in
    t.lag.(0) <- dt;
    t.lag.(1) <- (if tau <= 0.0 then 1.0 else 1.0 -. exp (-.dt /. tau))
  end;
  let alpha = t.lag.(1) in
  for i = 0 to Array.length t.actual - 1 do
    let a = t.actual.(i) +. (alpha *. (t.commanded.(i) -. t.actual.(i))) in
    (* A motor spinning down decays towards zero without reaching it; a
       subnormal fraction is flushed to zero, as [World] flushes the
       body's rates (it is below half an ulp of any thrust it adds to). *)
    t.actual.(i) <- (if Float.abs a < Float.min_float then 0.0 *. a else a)
  done;
  refresh_thrust t

let thrusts t =
  Array.map (fun f -> f *. t.frame.Airframe.max_thrust_per_motor_n) t.actual

let[@inline] total_thrust t = t.total_n.(0)

(* Read-only view of the cached total for the step kernel: returning the
   cell (a pointer) instead of the float keeps the call unboxed even when
   cross-module inlining is off (dev builds compile with -opaque). *)
let total_thrust_cell t = t.total_n

(* Reference implementation of the torque model, kept for the hot-loop
   bench's cold baseline and the identity tests: allocates intermediate
   vectors per call, recomputing thrusts from scratch. *)
let body_torque t ~rate ~airspeed_body =
  let th = thrusts t in
  let torque = ref Vec3.zero in
  Array.iteri
    (fun i (pos, spin) ->
      let lift = Vec3.make 0.0 0.0 th.(i) in
      (* Differential-thrust roll/pitch torque plus yaw reaction torque. *)
      let arm = Vec3.cross pos lift in
      let yaw =
        Vec3.make 0.0 0.0 (spin *. t.frame.Airframe.torque_per_thrust *. th.(i))
      in
      torque := Vec3.add !torque (Vec3.add arm yaw))
    t.layout;
  (* Blade flapping, scaled by how hard the rotors are working: a moment
     opposing roll/pitch rates, and a flap-back moment about (z x v)
     tilting the disc against the perpendicular airflow. *)
  let thrust_fraction =
    Array.fold_left ( +. ) 0.0 th
    /. Float.max 1e-6 (Airframe.max_total_thrust_n t.frame)
  in
  let k_damp = t.frame.Airframe.flap_rate_damping *. thrust_fraction in
  let rate_term = Vec3.make (-.k_damp *. rate.Vec3.x) (-.k_damp *. rate.Vec3.y) 0.0 in
  let v_perp = Vec3.horizontal airspeed_body in
  let back_term =
    Vec3.scale
      (t.frame.Airframe.flap_back *. thrust_fraction)
      (Vec3.cross Vec3.unit_z v_perp)
  in
  Vec3.add !torque (Vec3.add rate_term back_term)

(* Allocation-free torque kernel: identical float expressions to
   [body_torque], accumulated into [dst] using the cached thrusts. *)
let body_torque_into t ~(rate : Vec3.Mut.vec) ~(airspeed_body : Vec3.Mut.vec)
    ~(dst : Vec3.Mut.vec) =
  let open Vec3.Mut in
  dst.x <- 0.0;
  dst.y <- 0.0;
  dst.z <- 0.0;
  let tpt = t.frame.Airframe.torque_per_thrust in
  for i = 0 to Array.length t.layout - 1 do
    let pos, spin = t.layout.(i) in
    let th = t.thrust_n.(i) in
    (* arm = cross pos (0, 0, th); yaw = (0, 0, spin * tpt * th). *)
    let arm_x = (pos.Vec3.y *. th) -. (pos.Vec3.z *. 0.0) in
    let arm_y = (pos.Vec3.z *. 0.0) -. (pos.Vec3.x *. th) in
    let arm_z = (pos.Vec3.x *. 0.0) -. (pos.Vec3.y *. 0.0) in
    let yaw_z = spin *. tpt *. th in
    dst.x <- dst.x +. (arm_x +. 0.0);
    dst.y <- dst.y +. (arm_y +. 0.0);
    dst.z <- dst.z +. (arm_z +. yaw_z)
  done;
  (* [Airframe.max_total_thrust_n] spelled out from the frame fields: the
     cross-module call would box its float return in dev builds. *)
  let max_total =
    float_of_int t.frame.Airframe.motor_count
    *. t.frame.Airframe.max_thrust_per_motor_n
  in
  let thrust_fraction = t.total_n.(0) /. Float.max 1e-6 max_total in
  let k_damp = t.frame.Airframe.flap_rate_damping *. thrust_fraction in
  let rate_x = -.k_damp *. rate.x and rate_y = -.k_damp *. rate.y in
  (* back_term = flap_back * fraction * (unit_z x horizontal airspeed). *)
  let kb = t.frame.Airframe.flap_back *. thrust_fraction in
  let vx = airspeed_body.x and vy = airspeed_body.y in
  let back_x = kb *. ((0.0 *. 0.0) -. (1.0 *. vy)) in
  let back_y = kb *. ((1.0 *. vx) -. (0.0 *. 0.0)) in
  let back_z = kb *. ((0.0 *. vy) -. (0.0 *. vx)) in
  dst.x <- dst.x +. (rate_x +. back_x);
  dst.y <- dst.y +. (rate_y +. back_y);
  dst.z <- dst.z +. (0.0 +. back_z)

(* Flat-snapshot support: [commanded] then [actual]; derived thrust caches
   are rebuilt on restore. *)
let float_count t = 2 * Array.length t.commanded

let blit_to_floats t (dst : float array) ~pos =
  let n = Array.length t.commanded in
  Array.blit t.commanded 0 dst pos n;
  Array.blit t.actual 0 dst (pos + n) n

let restore_floats t (src : float array) ~pos =
  let n = Array.length t.commanded in
  Array.blit src pos t.commanded 0 n;
  Array.blit src (pos + n) t.actual 0 n;
  refresh_thrust t
