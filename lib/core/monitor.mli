(** The invariant monitor (§IV-C).

    Two rules, as in the paper:

    - {b Safety} — the vehicle does not collide with anything (the crash
      detector also reports geofence violations).
    - {b Liveliness} — the run must track the profiling runs: at every time
      offset the state must be within τ of at least one profiling run.

    Liveliness may legitimately be sacrificed to preserve safety, so
    developer-specified *safe modes* carry their own invariants instead:
    Return To Launch must make progress home (or climb to its return
    altitude), Land must descend (or be freshly on the ground), Disarmed
    must be on the ground, and a Manual hover (the degraded GPS-loss hold)
    is excused while it stays put.

    The monitor reads a test run through the trace's column reads and
    allocates nothing per sample. Per tick it checks the safe-mode
    invariants, then the liveliness excuses (a safe mode, a Manual hover,
    a Pre-Flight refusal on the ground), and only when none holds the
    distances, up to the first profiling run within τ. It classifies the
    mode label again only when the label changes. Its verdicts are the
    reference monitor's bit for bit, the one that compares
    [Trace.sample] records by {!Distance.state_distance} against every
    profiling run; a property test holds the two equal. *)

open Avis_sitl

type profile

val build_profile : Sim.outcome list -> profile
(** From fault-free profiling runs (the paper uses a handful with
    scheduler jitter). Precomputes everything a check compares against:
    the mode graph, the padded profiling runs and normalisers
    ({!Distance.build}), τ under each metric, and the highest altitude
    and farthest horizontal distance from home the runs reached. It
    keeps no trace. Raises [Invalid_argument] on an empty list or an
    empty profiling run. *)

val graph : profile -> Mode_graph.t
val tau : profile -> float
val normalisers : profile -> Distance.t

val encode : Buffer.t -> profile -> unit
(** Every field {!build_profile} computed, floats by their bits: the
    normalisers and padded runs ({!Distance.encode}), τ under each metric
    and the altitude and home-distance envelope. *)

val decode : Avis_util.Codec.reader -> profile
(** Inverse of {!encode}: a profile that judges every run as the one
    {!build_profile} returned does. Raises [Avis_util.Codec.Corrupt] on
    malformed input. *)

type symptom = Crash | Fly_away | Takeoff_failure | Stalled

val symptom_to_string : symptom -> string

type violation_kind =
  | Safety of string  (** Collision or tipover; the payload describes it. *)
  | Fence_breach
  | Liveliness
  | Safe_mode_invariant of string  (** Which safe mode's invariant failed. *)

type violation = {
  kind : violation_kind;
  time : float;  (** When the violation was detected. *)
  mode : string;  (** Operating mode at that moment. *)
  symptom : symptom;
}

type verdict = Safe | Unsafe of violation

val check : ?metric:Distance.metric -> profile -> Sim.outcome -> verdict
(** Judge a test run against the profile. [metric] selects the liveliness
    state metric (default [Full]; [Position_only] exists for the
    ablation). *)

val detection_time : ?metric:Distance.metric -> profile -> Sim.outcome -> float option
(** Time of the first detected violation, if any — used by the ablation
    comparing detection latency of the two metrics. *)

val describe : violation -> string
