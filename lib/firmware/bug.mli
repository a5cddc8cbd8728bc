(** The catalogue of reproduced sensor bugs.

    Table II's ten previously-unknown bugs and Table V's five re-inserted
    known bugs are reproduced as flaws in this firmware's failure-handling
    logic. Each bug has a *trigger*: the sensor kind whose failure it
    mishandles, and the window — relative to a mode transition — in which
    the failure must begin. When a bug is enabled and its trigger matches,
    the firmware takes the flawed action implemented at the bug's site in
    [Failsafe]/[Estimator]; when disabled, the guarded (fixed) action runs
    instead.

    Unknown bugs are enabled by default (they were present in the code
    bases the paper checked); known bugs are disabled and can be
    re-inserted per Table V's methodology. *)

open Avis_sensors

type id =
  | Apm_16020
  | Apm_16021
  | Apm_16027
  | Apm_16967
  | Apm_16682
  | Apm_16953
  | Px4_17046
  | Px4_17057
  | Px4_17192
  | Px4_17181
  | Apm_4455
  | Apm_4679
  | Apm_5428
  | Apm_9349
  | Px4_13291

val all : id list

type firmware_kind = Ardupilot | Px4

val firmware_name : firmware_kind -> string

type symptom = Crash | Fly_away | Takeoff_failure

val symptom_to_string : symptom -> string

(** Where, relative to the flight's mode structure, the triggering failure
    must begin. *)
type window = {
  from_phase : Phase.pattern;
      (** The phase the vehicle was in before the boundary... *)
  to_phase : Phase.pattern;  (** ...and the phase after it. *)
  pre_s : float;
      (** Seconds before the transition in which a failure still counts. *)
  post_s : float;  (** Seconds after the transition. *)
}

type info = {
  id : id;
  report : string;  (** The paper's report number, e.g. "APM-16682". *)
  firmware : firmware_kind;
  symptom : symptom;
  sensor : Sensor.kind;
  window : window;
  known : bool;  (** True for Table V's pre-existing bugs. *)
  window_label : string;  (** The paper's "Failure Starting Moment" text. *)
  description : string;
  requires_second_failure : Sensor.kind option;
      (** PX4-13291 needs a second sensor (battery) to fail too. *)
}

val info : id -> info
(** The catalogue entry, built once: every call returns the same record. *)

val of_report : string -> id option
(** Look up by report number, e.g. ["APM-16021"]. *)

val unknown_bugs : firmware_kind -> id list
(** Table II bugs for a firmware. *)

val known_bugs : firmware_kind -> id list
(** Table V bugs for a firmware. *)

(** A per-vehicle set of enabled bugs, fixed when it is built. *)
type registry

val registry : enabled:id list -> registry
(** The run's configured list: {!unknown_bugs} reproduces the code bases
    the paper checked, and adding {!known_bugs} re-inserts Table V's. *)

val enabled : registry -> id -> bool

val encode_id : Buffer.t -> id -> unit
(** One stable byte per bug (its position in {!all}). *)

val decode_id : Avis_util.Codec.reader -> id
(** Inverse of {!encode_id}. Raises [Avis_util.Codec.Corrupt] on an unknown
    tag. *)
