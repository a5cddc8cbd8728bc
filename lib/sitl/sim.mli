(** The software-in-the-loop test harness.

    Each test provisions a fresh simulator + firmware + ground-control link
    (the paper's per-test provisioning), then a workload drives the ground
    station and calls [step] — the step() RPC of Fig. 7 — which advances
    the link, the firmware, the physics and the trace by one time-step.

    The harness is deliberately workload-agnostic: the high-level blocking
    workload API lives in the core library on top of this. *)

open Avis_firmware
open Avis_mavlink

type config = {
  policy : Policy.t;
  enabled_bugs : Bug.id list;
  seed : int;
  max_duration : float;  (** Hard stop, simulated seconds. *)
  environment : Avis_physics.Environment.t option;
      (** Defaults to the paper's benign evaluation environment. *)
}
(** What varies between runs. Every run flies [Airframe.iris] with the
    Iris's sensor complement, steps {!dt}, and delays each datalink chunk
    by up to 2 extra steps (the scheduler nondeterminism the monitor must
    tolerate); none of these is a field. *)

val dt : float
(** The simulation step, 4 ms. *)

val default_config : Policy.t -> config
(** 120 s cap, seed 0, no environment, the firmware's default (unknown)
    bugs enabled. *)

type t

val create :
  ?plan:Avis_hinj.Hinj.plan -> ?link_outages:(float * float) list -> config -> t
(** Provision a run with the given fault-injection plan and optional
    scheduled datalink outages (each [(at, duration)] in simulated seconds;
    none by default). *)

val config : t -> config

type snapshot
(** The whole harness frozen mid-run: the run state of physics, sensors,
    injector, firmware, link and ground station encoded into one string,
    plus the trace's chunk-sharing snapshot. The run's config is kept by
    reference and is not encoded, nor is anything a run takes from it —
    the airframe, the environment's spec, the fence, the policy, the bug
    registry — or from its fault schedule. Taking a snapshot does not
    disturb the live run. *)

val snapshot : t -> snapshot
(** {!encode_state} into a buffer of the domain's, then
    {!snapshot_of_state} of its contents and the trace's snapshot. *)

val encode_state : Buffer.t -> t -> unit
(** Clear the buffer and write into it every layer but the trace: the
    string a snapshot taken now would keep. A caller that may never need
    the snapshot encodes into a buffer it reuses, keeps
    [Trace.snapshot (trace t)] from the same moment, and builds the
    snapshot later, if at all, with {!snapshot_of_state}. *)

val snapshot_of_state : config -> state:string -> Trace.snapshot -> snapshot
(** The snapshot of a run of [config] whose layers {!encode_state} wrote
    as [state] and whose trace was frozen at the same moment. The run may
    have stepped on since: a trace snapshot reads only what was recorded
    before it. *)

val snapshot_bytes : snapshot -> int
(** The bytes the snapshot alone holds: its encoded string plus the
    trace's record and chunk pointers ({!Trace.snapshot_bytes}). Trace
    chunks, shared with the run and its other snapshots, are not
    counted. *)

val restore :
  plan:Avis_hinj.Hinj.plan -> link_outages:(float * float) list -> snapshot -> t
(** Decode the snapshot into an independent harness; the same snapshot can
    be restored any number of times. The config's derived collaborators
    (environment copy, fence, policy, bug registry) are built as {!create}
    builds them, and the run flies [plan] and [link_outages]: the
    snapshotted run's own, or a different schedule (the prefix cache's
    fork operation) — sound only when no fault in the new schedule (sensor
    or outage) starts at or before the snapshot time, since the original
    run must not yet have observed any difference. Raises
    [Avis_util.Codec.Corrupt] when the snapshot came from malformed bytes
    ({!decode_snapshot} does not check the encoded layers). *)

val frame : t -> Avis_geo.Geodesy.frame
(** The local tangent frame anchored at the home location. *)

val home_geodetic : Avis_geo.Geodesy.geodetic
(** The fixed home location all runs are anchored at. *)

val gcs : t -> Gcs.t
val link : t -> Link.t
val world : t -> Avis_physics.World.t
val vehicle : t -> Vehicle.t
val hinj : t -> Avis_hinj.Hinj.t
val trace : t -> Trace.t
val time : t -> float
val steps : t -> int

val step : t -> unit
(** Advance one time-step (no-op once [finished]). *)

val run_until : t -> (t -> bool) -> bool
(** Step until the predicate holds or the run [finished]; returns whether
    the predicate held. *)

val finished : t -> bool
(** True when the vehicle has crashed (the simulation freezes a crashed
    world) or the duration cap was reached. *)

(** Everything the model checker needs to judge a run. *)
type outcome = {
  trace : Trace.t;
  crash : Avis_physics.World.contact_event option;
  fence_breached : bool;
  workload_passed : bool;
  transitions : Avis_hinj.Hinj.transition list;
  triggered_bugs : Bug.id list;  (** Ground-truth diagnostics only. *)
  duration : float;
  sensor_reads : int;
}

val outcome : t -> workload_passed:bool -> outcome

(** {2 Binary persistence}

    Every float travels as its IEEE-754 bits, so a run restored from
    decoded bytes is bit-identical to one restored from the in-memory
    snapshot. *)

val encode_config : Buffer.t -> config -> unit
(** Canonical binary form of a run configuration — the identity half of a
    checkpoint-store key, and part of the run journal's. Equal
    configurations produce equal bytes. *)

val encode_snapshot :
  ?put_chunk:(Trace.chunk -> string) -> Buffer.t -> snapshot -> unit
(** The snapshot's string as it is, then the trace's encoding, with its
    full chunks handed to [put_chunk] if given
    ({!Trace.encode_snapshot}). *)

val decode_snapshot :
  ?get_chunk:(string -> Trace.chunk) ->
  config:config ->
  Avis_util.Codec.reader ->
  snapshot
(** Inverse of {!encode_snapshot}, for a run of [config] (which the bytes
    do not carry), with named trace chunks resolved by [get_chunk]
    ({!Trace.decode_snapshot}). Raises [Avis_util.Codec.Corrupt] on
    malformed trace bytes; the encoded layers are decoded, and checked, by
    {!restore}. *)
