(** Six-degree-of-freedom rigid-body state and integration.

    Positions are metres in the local world frame (z up); attitudes map body
    vectors to world vectors. Integration is semi-implicit Euler, which is
    stable at the simulator's 250 Hz step for this system's stiffness.

    The state is held in mutable all-float records ({!Avis_geo.Vec3.Mut},
    {!Avis_geo.Quat.Mut}) so [step] updates it in place without allocating;
    the [*_v] accessors materialise immutable values for cold-path
    consumers. *)

open Avis_geo

type t = {
  position : Vec3.Mut.vec;
  velocity : Vec3.Mut.vec;
  attitude : Quat.Mut.quat;
  angular_velocity : Vec3.Mut.vec;  (** Body frame, rad/s. *)
  acceleration : Vec3.Mut.vec;  (** World frame, latest step, m/s². *)
}

val create : ?position:Vec3.t -> unit -> t
(** At rest, level, at the given position (origin by default). *)

val position_v : t -> Vec3.t
val velocity_v : t -> Vec3.t
val attitude_q : t -> Quat.t
val angular_velocity_v : t -> Vec3.t
val acceleration_v : t -> Vec3.t

val set_position : t -> Vec3.t -> unit
val set_velocity : t -> Vec3.t -> unit
val set_attitude : t -> Quat.t -> unit
val set_angular_velocity : t -> Vec3.t -> unit
val set_acceleration : t -> Vec3.t -> unit

val float_count : int
(** Number of float components in the flat state (16): position, velocity,
    attitude, angular velocity, acceleration. *)

val blit_to_floats : t -> float array -> pos:int -> unit
(** Flatten the state into [float_count] consecutive slots of a blob. *)

val of_floats : float array -> pos:int -> t
(** Rebuild a body from a blob written by {!blit_to_floats}. *)

val step :
  t ->
  inertia:Vec3.t ->
  mass:float ->
  force:Vec3.Mut.vec ->
  torque:Vec3.Mut.vec ->
  dt:float ->
  unit
(** Advance by [dt] under a world-frame [force] (newtons, gravity included by
    the caller) and a body-frame [torque] (N·m). Updates [acceleration].
    Allocation-free. *)

val specific_force_body : t -> Vec3.t
(** What an ideal accelerometer strapped to the body reads: the world
    acceleration minus gravity, rotated into the body frame. *)

val speed : t -> float
val horizontal_speed : t -> float
