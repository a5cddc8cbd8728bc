type t = { w : float; x : float; y : float; z : float }

let identity = { w = 1.0; x = 0.0; y = 0.0; z = 0.0 }

let make ~w ~x ~y ~z = { w; x; y; z }

let norm q = sqrt ((q.w *. q.w) +. (q.x *. q.x) +. (q.y *. q.y) +. (q.z *. q.z))

let normalize q =
  let n = norm q in
  if n = 0.0 then identity
  else { w = q.w /. n; x = q.x /. n; y = q.y /. n; z = q.z /. n }

let of_axis_angle axis angle =
  let a = Vec3.normalize axis in
  let half = angle /. 2.0 in
  let s = sin half in
  normalize { w = cos half; x = s *. a.Vec3.x; y = s *. a.Vec3.y; z = s *. a.Vec3.z }

let of_euler ~roll ~pitch ~yaw =
  let cr = cos (roll /. 2.0) and sr = sin (roll /. 2.0) in
  let cp = cos (pitch /. 2.0) and sp = sin (pitch /. 2.0) in
  let cy = cos (yaw /. 2.0) and sy = sin (yaw /. 2.0) in
  {
    w = (cr *. cp *. cy) +. (sr *. sp *. sy);
    x = (sr *. cp *. cy) -. (cr *. sp *. sy);
    y = (cr *. sp *. cy) +. (sr *. cp *. sy);
    z = (cr *. cp *. sy) -. (sr *. sp *. cy);
  }

(* The yaw of a unit quaternion's components; [to_euler] and [yaw] share
   it so the two agree bit for bit. *)
let[@inline] yaw_of ~w ~x ~y ~z =
  let siny = 2.0 *. ((w *. z) +. (x *. y)) in
  let cosy = 1.0 -. (2.0 *. ((y *. y) +. (z *. z))) in
  atan2 siny cosy

let to_euler q =
  let q = normalize q in
  let sinr = 2.0 *. ((q.w *. q.x) +. (q.y *. q.z)) in
  let cosr = 1.0 -. (2.0 *. ((q.x *. q.x) +. (q.y *. q.y))) in
  let roll = atan2 sinr cosr in
  let sinp = 2.0 *. ((q.w *. q.y) -. (q.z *. q.x)) in
  let pitch =
    if Float.abs sinp >= 1.0 then Float.copy_sign (Float.pi /. 2.0) sinp
    else asin sinp
  in
  (roll, pitch, yaw_of ~w:q.w ~x:q.x ~y:q.y ~z:q.z)

let[@inline] yaw q =
  (* [normalize] inlined into locals, so the result is [to_euler]'s yaw
     bit for bit without building the unit quaternion or the tuple. *)
  let n = norm q in
  if n = 0.0 then yaw_of ~w:1.0 ~x:0.0 ~y:0.0 ~z:0.0
  else yaw_of ~w:(q.w /. n) ~x:(q.x /. n) ~y:(q.y /. n) ~z:(q.z /. n)

let mul a b =
  {
    w = (a.w *. b.w) -. (a.x *. b.x) -. (a.y *. b.y) -. (a.z *. b.z);
    x = (a.w *. b.x) +. (a.x *. b.w) +. (a.y *. b.z) -. (a.z *. b.y);
    y = (a.w *. b.y) -. (a.x *. b.z) +. (a.y *. b.w) +. (a.z *. b.x);
    z = (a.w *. b.z) +. (a.x *. b.y) -. (a.y *. b.x) +. (a.z *. b.w);
  }

let conjugate q = { w = q.w; x = -.q.x; y = -.q.y; z = -.q.z }

let rotate q v =
  (* v' = q * (0, v) * q^-1, expanded without building quaternions. *)
  let u = Vec3.make q.x q.y q.z in
  let t = Vec3.scale 2.0 (Vec3.cross u v) in
  Vec3.add v (Vec3.add (Vec3.scale q.w t) (Vec3.cross u t))

let rotate_inv q v = rotate (conjugate q) v

let integrate q omega dt =
  let ox = omega.Vec3.x and oy = omega.Vec3.y and oz = omega.Vec3.z in
  let half_dt = dt /. 2.0 in
  (* dq = (dt/2) * q ⊗ (0, omega), with omega in the body frame. *)
  let dq =
    {
      w = 0.0 -. (half_dt *. ((ox *. q.x) +. (oy *. q.y) +. (oz *. q.z)));
      x = half_dt *. ((ox *. q.w) +. (oz *. q.y) -. (oy *. q.z));
      y = half_dt *. ((oy *. q.w) +. (ox *. q.z) -. (oz *. q.x));
      z = half_dt *. ((oz *. q.w) +. (oy *. q.x) -. (ox *. q.y));
    }
  in
  normalize { w = q.w +. dq.w; x = q.x +. dq.x; y = q.y +. dq.y; z = q.z +. dq.z }

let dot a b = (a.w *. b.w) +. (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

let slerp a b s =
  let a = normalize a and b = normalize b in
  let d = dot a b in
  (* Take the shortest arc by flipping one endpoint when needed. *)
  let negate q = { w = -.q.w; x = -.q.x; y = -.q.y; z = -.q.z } in
  let b, d = if d < 0.0 then (negate b, -.d) else (b, d) in
  if d > 0.9995 then
    normalize
      {
        w = a.w +. (s *. (b.w -. a.w));
        x = a.x +. (s *. (b.x -. a.x));
        y = a.y +. (s *. (b.y -. a.y));
        z = a.z +. (s *. (b.z -. a.z));
      }
  else
    let theta = acos (Float.min 1.0 d) in
    let sin_theta = sin theta in
    let wa = sin ((1.0 -. s) *. theta) /. sin_theta in
    let wb = sin (s *. theta) /. sin_theta in
    normalize
      {
        w = (wa *. a.w) +. (wb *. b.w);
        x = (wa *. a.x) +. (wb *. b.x);
        y = (wa *. a.y) +. (wb *. b.y);
        z = (wa *. a.z) +. (wb *. b.z);
      }

let angle_between a b =
  let d = Float.abs (dot (normalize a) (normalize b)) in
  2.0 *. acos (Float.min 1.0 d)

(* [acos] of the body-up vector's world z, [rotate q unit_z] expanded with
   its zero terms kept so the float expression is the rotation's exactly.
   The clamp is [Stdlib.max (-1.0) (Stdlib.min 1.0 d)] typed to floats:
   the same IEEE comparisons (NaN passes through) without a polymorphic
   compare's C call. *)
let[@inline] tilt_of ~w ~x ~y ~z =
  let tx = 2.0 *. ((y *. 1.0) -. (z *. 0.0)) in
  let ty = 2.0 *. ((z *. 0.0) -. (x *. 1.0)) in
  let tz = 2.0 *. ((x *. 0.0) -. (y *. 0.0)) in
  let bx = 0.0 +. ((w *. tx) +. ((y *. tz) -. (z *. ty))) in
  let by = 0.0 +. ((w *. ty) +. ((z *. tx) -. (x *. tz))) in
  let bz = 1.0 +. ((w *. tz) +. ((x *. ty) -. (y *. tx))) in
  let d = (bx *. 0.0) +. (by *. 0.0) +. (bz *. 1.0) in
  let d = if 1.0 <= d then 1.0 else d in
  acos (if -1.0 >= d then -1.0 else d)

let tilt q = tilt_of ~w:q.w ~x:q.x ~y:q.y ~z:q.z

let pp ppf q = Format.fprintf ppf "(w=%.4f x=%.4f y=%.4f z=%.4f)" q.w q.x q.y q.z

(* In-place kernels over a mutable all-float quaternion. As with
   [Vec3.Mut], each operation reproduces the pure version's arithmetic
   expression for expression so results are bit-identical; the rotation
   kernels read the quaternion and vector into locals before storing, so a
   destination may alias the input vector. *)
module Mut = struct
  type quat = {
    mutable w : float;
    mutable x : float;
    mutable y : float;
    mutable z : float;
  }

  let create () = { w = 1.0; x = 0.0; y = 0.0; z = 0.0 }

  let[@inline] set q ~w ~x ~y ~z =
    q.w <- w;
    q.x <- x;
    q.y <- y;
    q.z <- z

  let[@inline] of_t (a : t) = { w = a.w; x = a.x; y = a.y; z = a.z }
  let[@inline] to_t q : t = { w = q.w; x = q.x; y = q.y; z = q.z }

  let[@inline] blit_t (a : t) dst =
    dst.w <- a.w;
    dst.x <- a.x;
    dst.y <- a.y;
    dst.z <- a.z

  let[@inline] norm q =
    sqrt ((q.w *. q.w) +. (q.x *. q.x) +. (q.y *. q.y) +. (q.z *. q.z))

  let normalize q =
    let n = norm q in
    if n = 0.0 then set q ~w:1.0 ~x:0.0 ~y:0.0 ~z:0.0
    else begin
      q.w <- q.w /. n;
      q.x <- q.x /. n;
      q.y <- q.y /. n;
      q.z <- q.z /. n
    end

  (* [rotate dst q v]: the same expansion as the pure [rotate], with the
     intermediate cross products inlined into locals. *)
  let[@inline] rotate_comp ~qw ~qx ~qy ~qz (v : Vec3.Mut.vec)
      (dst : Vec3.Mut.vec) =
    let vx = v.Vec3.Mut.x and vy = v.Vec3.Mut.y and vz = v.Vec3.Mut.z in
    let tx = 2.0 *. ((qy *. vz) -. (qz *. vy)) in
    let ty = 2.0 *. ((qz *. vx) -. (qx *. vz)) in
    let tz = 2.0 *. ((qx *. vy) -. (qy *. vx)) in
    let rx = vx +. ((qw *. tx) +. ((qy *. tz) -. (qz *. ty))) in
    let ry = vy +. ((qw *. ty) +. ((qz *. tx) -. (qx *. tz))) in
    let rz = vz +. ((qw *. tz) +. ((qx *. ty) -. (qy *. tx))) in
    dst.Vec3.Mut.x <- rx;
    dst.Vec3.Mut.y <- ry;
    dst.Vec3.Mut.z <- rz

  let[@inline] rotate dst q v =
    rotate_comp ~qw:q.w ~qx:q.x ~qy:q.y ~qz:q.z v dst

  let[@inline] rotate_inv dst q v =
    rotate_comp ~qw:q.w ~qx:(-.q.x) ~qy:(-.q.y) ~qz:(-.q.z) v dst

  let integrate q (omega : Vec3.Mut.vec) dt =
    let ox = omega.Vec3.Mut.x
    and oy = omega.Vec3.Mut.y
    and oz = omega.Vec3.Mut.z in
    let half_dt = dt /. 2.0 in
    let dw = 0.0 -. (half_dt *. ((ox *. q.x) +. (oy *. q.y) +. (oz *. q.z))) in
    let dx = half_dt *. ((ox *. q.w) +. (oz *. q.y) -. (oy *. q.z)) in
    let dy = half_dt *. ((oy *. q.w) +. (ox *. q.z) -. (oz *. q.x)) in
    let dz = half_dt *. ((oz *. q.w) +. (oy *. q.x) -. (ox *. q.y)) in
    q.w <- q.w +. dw;
    q.x <- q.x +. dx;
    q.y <- q.y +. dy;
    q.z <- q.z +. dz;
    normalize q

  let[@inline] tilt q = tilt_of ~w:q.w ~x:q.x ~y:q.y ~z:q.z
end

let encode b q =
  Avis_util.Codec.w_f64 b q.w;
  Avis_util.Codec.w_f64 b q.x;
  Avis_util.Codec.w_f64 b q.y;
  Avis_util.Codec.w_f64 b q.z

let decode r =
  let w = Avis_util.Codec.r_f64 r in
  let x = Avis_util.Codec.r_f64 r in
  let y = Avis_util.Codec.r_f64 r in
  let z = Avis_util.Codec.r_f64 r in
  { w; x; y; z }
