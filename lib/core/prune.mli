(** Redundancy-elimination policies (§IV-B1).

    Two policies from the paper plus plain deduplication:

    - {b found-bug pruning}: once a scenario triggered a bug, any scenario
      that merely adds more failures on top of it is skipped — a vehicle
      that cannot handle one failure will not handle more in the same
      context.
    - {b sensor-instance symmetry}: firmware behaviour depends on the
      *roles* of the failed instances (primary vs backup), not on which
      backup failed; scenarios equal up to backup permutation are run only
      once. For N instances of a kind this cuts the per-site combinations
      from [N·(2^N − 1)] to [2N − 1] (Fig. 6's 21 → 5 for three
      compasses).

    The tracker is shared mutable state across a search: record every run
    and every found bug, and query [should_prune] before running. *)

type t

val create : ?symmetry:bool -> ?found_bug:bool -> unit -> t
(** Both policies default to enabled; the flags exist for the ablation
    benchmarks. *)

val should_prune : t -> Scenario.t -> bool
(** True when the scenario is redundant: already run, equivalent under
    instance symmetry to one already run, or a superset of a scenario
    that already triggered a bug. *)

val note_run : t -> Scenario.t -> unit
val note_bug : t -> Scenario.t -> unit

val symmetry_scenarios : instances:int -> int
(** [2N − 1]: distinct per-site scenarios for one sensor kind with [N]
    instances under the symmetry policy. *)

val unpruned_scenarios : instances:int -> int
(** [N·(2^N − 1)]: the paper's count without the policy. *)
