(** hinj-instrumented sensor drivers with instance failover.

    Every read goes through {!Avis_hinj.Hinj.sensor_read} — the paper's
    libhinj call site inside each driver's [read()] — so the fault-injection
    engine can fail any instance at any moment. When the active instance of
    a kind fails, the driver fails over to the next healthy instance within
    the same cycle (that is the redundancy the sensor-instance-symmetry
    pruning policy exploits). When every instance of a kind has failed, the
    kind is *lost* and the failure-handling logic upstairs must cope. *)

open Avis_sensors

type kind_status = {
  healthy : bool;  (** Some instance of the kind still responds. *)
  primary_failed_at : float option;
  kind_failed_at : float option;  (** When the last instance was lost. *)
  active_instance : int option;
  fresh : Sensor.reading option;  (** Reading obtained this step, if sampled. *)
  stale : Sensor.reading option;  (** Most recent successful reading ever. *)
}

type t

val create :
  params:Params.t -> suite:Suite.t -> hinj:Avis_hinj.Hinj.t -> unit -> t

type snapshot
(** Per-kind sampling schedules, failure records and cached readings,
    frozen. *)

val snapshot : t -> snapshot

val restore : suite:Suite.t -> hinj:Avis_hinj.Hinj.t -> snapshot -> t
(** Rebuild drivers over the restored copies of the suite and injector. *)

val sample : t -> Avis_physics.World.t -> time:float -> unit
(** Run every driver whose sampling period has elapsed. Call once per
    control cycle before reading statuses. *)

val status : t -> Sensor.kind -> kind_status

val kind_healthy : t -> Sensor.kind -> bool

val failure_start : t -> Sensor.kind -> float option
(** When the kind's health was first degraded (primary or whole kind),
    whichever came first. This is the timestamp bug trigger windows are
    evaluated against. *)

val encode_snapshot : Buffer.t -> snapshot -> unit
(** Versioned bit-exact binary layout of the frozen driver state. *)

val decode_snapshot : Avis_util.Codec.reader -> snapshot
(** Inverse of {!encode_snapshot}; pair with {!restore}. Raises
    [Avis_util.Codec.Corrupt] on malformed input. *)
