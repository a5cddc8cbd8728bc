(** The hardware-fault-injector interface ("libhinj").

    This is the reproduction of the paper's libhinj: the only firmware
    modifications Avis requires. Firmware sensor drivers route every read
    through [sensor_read], which consults the injection plan and either
    passes the read through or reports a clean failure; the firmware's
    mode-change function calls [update_mode], which is how Avis observes
    mode transitions and timestamps them.

    The fault model is the paper's: a *clean sensor failure* — from its
    start time onwards the instance stops communicating and the driver
    reports it failed; a failed sensor never recovers within a run. *)

open Avis_sensors

type fault = { sensor : Sensor.id; at : float }
(** Fail [sensor] from simulation time [at] (seconds) onwards. *)

type plan = fault list

type decision = Healthy | Failed

type transition = { time : float; from_mode : string; to_mode : string }

val encode_transition : Buffer.t -> transition -> unit
(** One transition, its time by bit pattern. *)

val decode_transition : Avis_util.Codec.reader -> transition
(** Inverse of {!encode_transition}. Raises [Avis_util.Codec.Corrupt] on
    truncated input. *)

type t

val create : ?plan:plan -> unit -> t

val plan : t -> plan

val encode : Buffer.t -> t -> unit
(** Binary layout of the injector's run state: mode log and read
    counter. The plan is not written. *)

val decode : plan:plan -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}, injecting [plan]: the encoded injector's own, or
    a different one — the prefix cache's fork of a clean run into a faulty
    scenario, which is only sound if no fault in the new plan starts at or
    before the encoded time. Raises [Avis_util.Codec.Corrupt] on malformed
    input. *)

val sensor_read : t -> time:float -> Sensor.id -> decision
(** The instrumented driver's question: should this read succeed? Also
    counts reads for throughput statistics. *)

val is_failed : t -> time:float -> Sensor.id -> bool
(** Same decision without counting a read (used by health monitors). *)

val update_mode : t -> time:float -> string -> unit
(** Called by the firmware whenever its mode changes. The first call
    sets the current mode; subsequent calls with a different mode record
    a transition. *)

val transitions : t -> transition list
(** All observed transitions, oldest first. *)

val transition_count : t -> int
(** How many transitions {!transitions} holds, in O(1) and without
    allocating: a run that compares it across two moments learns whether
    its mode changed between them. *)

val read_count : t -> int
(** Total sensor reads intercepted. *)
