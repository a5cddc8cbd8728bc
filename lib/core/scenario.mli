(** Fault-injection scenarios.

    A scenario is a set of scheduled faults — the paper's set of
    (Timestamp, Fault) tuples, extended with datalink outages alongside
    sensor failures. Scenarios are kept in a canonical sorted form so that
    equality, hashing and the pruning policies are well defined. *)

open Avis_sensors

type sensor_fault = Avis_hinj.Hinj.fault = { sensor : Sensor.id; at : float }

type fault =
  | Sensor_fault of sensor_fault
  | Link_loss of { at : float; duration : float }
      (** The GCS↔vehicle datalink goes silent at [at] for [duration]
          simulated seconds. *)

type t = fault list
(** Canonically sorted (by time, then sensor faults before link outages,
    then identity). *)

val empty : t

val sensor_fault : Sensor.id -> float -> fault
val link_loss : at:float -> duration:float -> fault

val fault_time : fault -> float

val of_faults : fault list -> t
(** Sort into canonical form and drop exact duplicates. *)

val union : t -> t -> t

val to_plan : t -> Avis_hinj.Hinj.plan
(** The sensor faults only, as an injection plan. *)

val link_outages : t -> (float * float) list
(** The link outages only, as [(at, duration)] spans for the simulator. *)

val cardinality : t -> int

val key : t -> string
(** Canonical string key for the explored-scenario hash set. Times are
    bucketed to the millisecond; link outages render as
    ["link@<ms>+<duration ms>"]. *)

val role_key : t -> string
(** Key under sensor-instance symmetry: instances are reduced to their
    roles, so two scenarios failing "some backup compass at t" get the
    same key (§IV-B's symmetry policy). The datalink has a single
    instance, so link outages keep their canonical key. *)

val subsumes : smaller:t -> larger:t -> bool
(** [subsumes ~smaller ~larger] when every fault of [smaller] appears in
    [larger] (same fault, same time bucket) — the found-bug pruning
    relation. *)

val sensors_failed : t -> Sensor.id list

val has_link_loss : t -> bool

val first_injection_time : t -> float option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
