(** Sensor identities, roles and readings.

    A vehicle carries several *instances* of each sensor *kind*; instance 0
    of a kind is the primary, the rest are backups. The paper's
    sensor-instance-symmetry pruning (§IV-B) relies on exactly this
    distinction: firmware behaviour depends on the role of a failed
    instance, not on which physical instance failed. *)

open Avis_geo

type kind = Accelerometer | Gyroscope | Gps | Compass | Barometer | Battery

val all_kinds : kind list

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type role = Primary | Backup

type id = { kind : kind; index : int }
(** Instance 0 is the primary of its kind. *)

val role_of : id -> role
val id_to_string : id -> string

val compare_id : id -> id -> int

type reading =
  | Accel of Vec3.t  (** Specific force, body frame, m/s². *)
  | Gyro of Vec3.t  (** Angular rate, body frame, rad/s. *)
  | Gps_fix of { position : Vec3.t; velocity : Vec3.t; hdop : float }
      (** Position/velocity in the local world frame. [hdop] is the
          dilution-of-precision figure the firmware uses to judge quality. *)
  | Heading of float  (** Magnetic heading, radians. *)
  | Pressure_alt of float  (** Barometric altitude, metres. *)
  | Battery_state of { voltage : float; remaining : float }

val reading_kind : reading -> kind

val kind_tag : kind -> int
(** The kind's position in {!all_kinds}, 0 to 5; also its codec tag. *)

val encode_reading : Buffer.t -> reading -> unit
val decode_reading : Avis_util.Codec.reader -> reading
(** Binary layouts for checkpoints; decoders raise
    [Avis_util.Codec.Corrupt] on malformed input. *)
