(** Unit quaternions representing vehicle attitude.

    Attitude maps body-frame vectors into the world frame via [rotate].
    Euler angles follow the aerospace convention: roll about body x, pitch
    about body y, yaw about world z (heading, radians, zero = north = +x,
    increasing towards east = +y). *)

type t = { w : float; x : float; y : float; z : float }

val identity : t

val make : w:float -> x:float -> y:float -> z:float -> t

val of_axis_angle : Vec3.t -> float -> t
(** Rotation of [angle] radians about the given axis (normalised internally). *)

val of_euler : roll:float -> pitch:float -> yaw:float -> t
(** Build from aerospace Euler angles (ZYX order). *)

val to_euler : t -> float * float * float
(** [(roll, pitch, yaw)] of a (near-)unit quaternion. *)

val yaw : t -> float
(** The yaw of {!to_euler}, bit for bit, without allocating. *)

val mul : t -> t -> t
(** Hamilton product; [mul a b] applies [b] first, then [a]. *)

val conjugate : t -> t

val norm : t -> float

val normalize : t -> t
(** Renormalise to unit length; the identity if the norm is zero. *)

val rotate : t -> Vec3.t -> Vec3.t
(** Rotate a body-frame vector into the world frame. *)

val rotate_inv : t -> Vec3.t -> Vec3.t
(** Rotate a world-frame vector into the body frame. *)

val integrate : t -> Vec3.t -> float -> t
(** [integrate q omega dt] advances attitude [q] by body angular rate
    [omega] (rad/s) over [dt] seconds and renormalises. *)

val slerp : t -> t -> float -> t
(** Spherical linear interpolation (shortest arc). *)

val angle_between : t -> t -> float
(** Magnitude of the rotation taking one attitude to the other, in
    [\[0, pi\]]. *)

val tilt : t -> float
(** Angle between the body z axis and the world vertical — how far from
    level the vehicle is, in radians. *)

val pp : Format.formatter -> t -> unit

(** In-place kernels over a mutable all-float quaternion, bit-identical to
    the pure operations above (property-tested). Used by the physics step
    kernel so steady-state integration allocates nothing. *)
module Mut : sig
  type quat = {
    mutable w : float;
    mutable x : float;
    mutable y : float;
    mutable z : float;
  }

  val create : unit -> quat
  (** A fresh identity quaternion. *)

  val set : quat -> w:float -> x:float -> y:float -> z:float -> unit
  val of_t : t -> quat
  val to_t : quat -> t
  val blit_t : t -> quat -> unit
  val norm : quat -> float

  val normalize : quat -> unit
  (** In place; the identity if the norm is zero, like the pure version. *)

  val rotate : Vec3.Mut.vec -> quat -> Vec3.Mut.vec -> unit
  (** [rotate dst q v] stores the world-frame image of body vector [v] in
      [dst]; [dst] may alias [v]. *)

  val rotate_inv : Vec3.Mut.vec -> quat -> Vec3.Mut.vec -> unit

  val integrate : quat -> Vec3.Mut.vec -> float -> unit
  (** [integrate q omega dt] advances [q] in place and renormalises,
      matching the pure [integrate] float for float. *)

  val tilt : quat -> float
  (** Angle between body z and world vertical, without allocating. *)
end

val encode : Buffer.t -> t -> unit
(** Bit-exact binary layout (four IEEE-754 doubles). *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}. Raises [Avis_util.Codec.Corrupt] on truncated
    input. *)
