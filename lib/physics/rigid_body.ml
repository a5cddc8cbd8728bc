open Avis_geo

(* The state lives in mutable all-float records (flat storage): the step
   kernel updates components in place, so steady-state integration performs
   no minor-heap allocation. The *_v accessors materialise immutable values
   for cold-path consumers (monitors, estimator rigs, tests). *)
type t = {
  position : Vec3.Mut.vec;
  velocity : Vec3.Mut.vec;
  attitude : Quat.Mut.quat;
  angular_velocity : Vec3.Mut.vec;
  acceleration : Vec3.Mut.vec;
}

let create ?(position = Vec3.zero) () =
  {
    position = Vec3.Mut.of_t position;
    velocity = Vec3.Mut.create ();
    attitude = Quat.Mut.create ();
    angular_velocity = Vec3.Mut.create ();
    acceleration = Vec3.Mut.create ();
  }

let position_v t = Vec3.Mut.to_t t.position
let velocity_v t = Vec3.Mut.to_t t.velocity
let attitude_q t = Quat.Mut.to_t t.attitude
let angular_velocity_v t = Vec3.Mut.to_t t.angular_velocity
let acceleration_v t = Vec3.Mut.to_t t.acceleration

let set_position t v = Vec3.Mut.blit_t v t.position
let set_velocity t v = Vec3.Mut.blit_t v t.velocity
let set_attitude t q = Quat.Mut.blit_t q t.attitude
let set_angular_velocity t v = Vec3.Mut.blit_t v t.angular_velocity
let set_acceleration t v = Vec3.Mut.blit_t v t.acceleration

(* Number of float components in the flat state, for compact snapshots. *)
let float_count = 16

let blit_to_floats t (dst : float array) ~pos =
  let open Vec3.Mut in
  dst.(pos) <- t.position.x;
  dst.(pos + 1) <- t.position.y;
  dst.(pos + 2) <- t.position.z;
  dst.(pos + 3) <- t.velocity.x;
  dst.(pos + 4) <- t.velocity.y;
  dst.(pos + 5) <- t.velocity.z;
  dst.(pos + 6) <- t.attitude.Quat.Mut.w;
  dst.(pos + 7) <- t.attitude.Quat.Mut.x;
  dst.(pos + 8) <- t.attitude.Quat.Mut.y;
  dst.(pos + 9) <- t.attitude.Quat.Mut.z;
  dst.(pos + 10) <- t.angular_velocity.x;
  dst.(pos + 11) <- t.angular_velocity.y;
  dst.(pos + 12) <- t.angular_velocity.z;
  dst.(pos + 13) <- t.acceleration.x;
  dst.(pos + 14) <- t.acceleration.y;
  dst.(pos + 15) <- t.acceleration.z

let of_floats (src : float array) ~pos =
  let t = create () in
  let open Vec3.Mut in
  t.position.x <- src.(pos);
  t.position.y <- src.(pos + 1);
  t.position.z <- src.(pos + 2);
  t.velocity.x <- src.(pos + 3);
  t.velocity.y <- src.(pos + 4);
  t.velocity.z <- src.(pos + 5);
  t.attitude.Quat.Mut.w <- src.(pos + 6);
  t.attitude.Quat.Mut.x <- src.(pos + 7);
  t.attitude.Quat.Mut.y <- src.(pos + 8);
  t.attitude.Quat.Mut.z <- src.(pos + 9);
  t.angular_velocity.x <- src.(pos + 10);
  t.angular_velocity.y <- src.(pos + 11);
  t.angular_velocity.z <- src.(pos + 12);
  t.acceleration.x <- src.(pos + 13);
  t.acceleration.y <- src.(pos + 14);
  t.acceleration.z <- src.(pos + 15);
  t

let step t ~inertia ~mass ~(force : Vec3.Mut.vec) ~(torque : Vec3.Mut.vec) ~dt =
  let open Vec3.Mut in
  let inv_mass = 1.0 /. mass in
  let a = t.acceleration in
  a.x <- inv_mass *. force.x;
  a.y <- inv_mass *. force.y;
  a.z <- inv_mass *. force.z;
  (* Semi-implicit Euler: update velocity first, then position with the new
     velocity, which keeps the contact dynamics stable. *)
  let v = t.velocity in
  v.x <- v.x +. (dt *. a.x);
  v.y <- v.y +. (dt *. a.y);
  v.z <- v.z +. (dt *. a.z);
  let p = t.position in
  p.x <- p.x +. (dt *. v.x);
  p.y <- p.y +. (dt *. v.y);
  p.z <- p.z +. (dt *. v.z);
  let o = t.angular_velocity in
  let ox = o.x and oy = o.y and oz = o.z in
  (* Euler's equations with a diagonal inertia tensor. *)
  let cx = (inertia.Vec3.z -. inertia.Vec3.y) *. oy *. oz in
  let cy = (inertia.Vec3.x -. inertia.Vec3.z) *. oz *. ox in
  let cz = (inertia.Vec3.y -. inertia.Vec3.x) *. ox *. oy in
  let ax = (torque.x -. cx) /. inertia.Vec3.x in
  let ay = (torque.y -. cy) /. inertia.Vec3.y in
  let az = (torque.z -. cz) /. inertia.Vec3.z in
  o.x <- ox +. (dt *. ax);
  o.y <- oy +. (dt *. ay);
  o.z <- oz +. (dt *. az);
  Quat.Mut.integrate t.attitude o dt

let specific_force_body t =
  let gravity = Vec3.make 0.0 0.0 (-.Airframe.gravity) in
  Quat.rotate_inv (attitude_q t) (Vec3.sub (acceleration_v t) gravity)

let[@inline] speed t =
  let open Vec3.Mut in
  let v = t.velocity in
  sqrt ((v.x *. v.x) +. (v.y *. v.y) +. (v.z *. v.z))

let[@inline] horizontal_speed t =
  let open Vec3.Mut in
  let v = t.velocity in
  sqrt ((v.x *. v.x) +. (v.y *. v.y) +. (0.0 *. 0.0))
