(** hinj-instrumented sensor drivers with instance failover.

    Every read goes through {!Avis_hinj.Hinj.sensor_read} — the paper's
    libhinj call site inside each driver's [read()] — so the fault-injection
    engine can fail any instance at any moment. When the active instance of
    a kind fails, the driver fails over to the next healthy instance within
    the same cycle (that is the redundancy the sensor-instance-symmetry
    pruning policy exploits). When every instance of a kind has failed, the
    kind is *lost* and the failure-handling logic upstairs must cope. *)

open Avis_sensors

type t

val create :
  params:Params.t -> suite:Suite.t -> hinj:Avis_hinj.Hinj.t -> unit -> t

val sample : t -> Avis_physics.World.t -> time:float -> unit
(** Run every driver whose sampling period has elapsed. Call once per
    control cycle before the reads below. *)

(** The reads below are constant-time and allocate nothing. *)

val fresh : t -> Sensor.kind -> Sensor.reading option
(** The reading obtained by this control cycle's {!sample}, if the kind
    was due and some instance still responds. *)

val stale : t -> Sensor.kind -> Sensor.reading option
(** The most recent successful reading ever, kept after the kind is
    lost. *)

val kind_failed_at : t -> Sensor.kind -> float option
(** [None] while some instance still responds; once every instance has
    failed (the kind is lost), the time the last one did. *)

val encode : Buffer.t -> t -> unit
(** Versioned bit-exact binary layout of the driver state: per-kind
    sampling schedules, failure records and cached readings. The instance
    counts and sampling periods are not written. *)

val decode :
  params:Params.t ->
  suite:Suite.t ->
  hinj:Avis_hinj.Hinj.t ->
  Avis_util.Codec.reader ->
  t
(** Inverse of {!encode}: drivers over the parameter set they were created
    with and the decoded suite and injector. Raises
    [Avis_util.Codec.Corrupt] on malformed input. *)
