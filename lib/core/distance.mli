(** The liveliness state metric (§IV-C).

    A vehicle state is the tuple (P, α, M) — position, acceleration and
    mode. Position and acceleration distances are Euclidean, normalised so
    that the largest pairwise difference seen across profiling runs maps to
    the mode graph's diameter; mode distance is the shortest path in the
    mode graph. The total distance is the Euclidean norm of the three
    components.

    [Position_only] is the paper's discussed-and-rejected alternative
    (detection takes tens of seconds instead of seconds); it is kept for
    the ablation benchmark.

    {!build} precomputes what the monitor compares against: the profiling
    runs padded to the longest by their final sample into flat columns,
    their mode labels interned with a table of mode distances, P̂, Â and
    the largest pairwise distance under each metric. {!within} then reads
    a test run's columns and allocates nothing. {!state_distance} is the
    reference definition over {!Trace.sample} records: every number the
    columns give is its result bit for bit, which the tests check. *)

open Avis_sitl

type metric = Full | Position_only

type t
(** Normalisers (the paper's P̂, Â and D), the mode graph and the padded
    profiling runs. *)

val build : graph:Mode_graph.t -> profiles:Trace.t list -> t
(** Compute P̂ and Â as the largest pairwise distances between profiling
    runs at equal time offsets (shorter runs padded with their final
    state). Degenerate zero maxima fall back to 1 so the metric stays
    defined. Raises [Invalid_argument] on an empty profiling run. *)

val graph : t -> Mode_graph.t
val p_hat : t -> float
val a_hat : t -> float

val runs : t -> int
(** The number of profiling runs. *)

val spread : ?metric:metric -> t -> float
(** The largest state distance between any two profiling runs at the same
    offset: the monitor's τ before its floor and margin. *)

val mode_id : t -> string -> int
(** The interned id of a mode label, for {!within}. A label that is
    neither a graph node nor seen in a profiling run gets the one id that
    is at the diameter from every profiled label. *)

val within :
  metric:metric -> t -> tau:float -> Trace.t -> int -> mode_id:int -> bool
(** [within ~metric d ~tau run i ~mode_id] is whether sample [i] of [run],
    whose mode label has id [mode_id], has [state_distance <= tau] to some
    profiling run at offset [i] (past the longest run, its final sample).
    It stops at the first such run. A NaN distance is never within. *)

val state_distance : ?metric:metric -> t -> Trace.sample -> Trace.sample -> float
(** Distance between two states at the same time offset: the reference
    definition. *)

val encode : Buffer.t -> t -> unit
(** Every field {!build} computed, floats by their bits: the graph
    ({!Mode_graph.encode}), the mode labels in id order, the padded
    columns, the mode-id column, the mode distances, P̂, Â and both
    spreads. *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}: equal to what {!build} returned, field for field.
    Raises [Avis_util.Codec.Corrupt] on malformed input, including a mode
    id out of range or a repeated label. *)
