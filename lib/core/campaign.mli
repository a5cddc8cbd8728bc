(** Model-checking campaigns: profiling, the search loop, budget
    accounting, and result aggregation.

    A campaign pairs one firmware personality with one workload: it first
    flies N fault-free profiling runs (with scheduler jitter) to build the
    monitor's profile and the search context, then drives a strategy until
    the wall-clock budget is exhausted, simulating each scheduled scenario
    in a freshly provisioned simulator and judging it with the invariant
    monitor. *)

open Avis_firmware

type config = {
  policy : Policy.t;
  workload : Workload.t;
  enabled_bugs : Bug.id list;
  budget_s : float;  (** Wall-clock budget (the paper uses 7200 s). *)
  speedup : float;  (** Simulated seconds per wall-clock second. *)
  seed : int;
  profiling_runs : int;
  prefix_cache : bool;
      (** Serve test runs from clean-run snapshots ({!Prefix_cache}).
          Outcomes and budget accounting are bit-identical either way;
          caching only reduces wall-clock time. *)
}

val default_config : Policy.t -> Workload.t -> config
(** 7200 s budget, 6× speed-up, 8 profiling runs, the firmware's unknown
    bugs enabled, prefix cache on. *)

type finding = { report : Report.t; simulation_index : int }

type progress = {
  simulations : int;
  inferences : int;
  spent_s : float;
  budget_s : float;
  findings : int;
  minor_words : float;
      (** Minor-heap words allocated since the cell started. *)
  major_collections : int;
      (** Major GC cycles completed since the cell started. *)
  store_hits : int;
      (** Persistent-store restores so far; 0 when no store is active. *)
  store_misses : int;
      (** Store consultations that fell through to a cold run. *)
  store_bytes : int;
      (** Checkpoint and profile bytes under the store directory as the
          cell's store counts them ({!Checkpoint_store.bytes}): files other
          writers added since its last scan are not included. *)
  profile_source : Avis_util.Metrics.profile_source;
      (** Whether the profiling outcomes were flown or served by the
          store; never [No_profile] for a running cell. *)
}
(** A snapshot of the search loop's counters, handed to the [progress]
    callback of {!run} after every simulated scenario. The GC fields are
    deltas from the start of the cell, so cells are comparable no matter
    what ran before them in the process. *)

type result = {
  approach : string;
  findings : finding list;  (** Oldest first. *)
  simulations : int;
  inferences : int;
  wall_clock_spent_s : float;
  profile : Monitor.profile;
  profile_source : Avis_util.Metrics.profile_source;
      (** [Profile_store] when the cell's store served the profiling
          outcomes, else [Profile_run]. *)
  cache_stats : Prefix_cache.stats option;
      (** Prefix-cache counters for this campaign's test runs; [None] when
          the cache was disabled. *)
  minor_words : float;  (** Minor-heap words allocated by the cell. *)
  major_collections : int;  (** Major GC cycles during the cell. *)
}

val execute_run :
  config -> seed:int -> scenario:Scenario.t -> Avis_sitl.Sim.outcome
(** Fly the workload once, cold, in a simulator provisioned exactly as the
    campaign's runs are (with [seed] and the scenario's fault schedule) —
    the profiling runs, the uncached test runs and {!Replay} all go
    through here. *)

val profile_and_context :
  ?store:Checkpoint_store.t -> config ->
  Monitor.profile * Search.context * Avis_sitl.Sim.outcome
  * Avis_util.Metrics.profile_source
(** Run the profiling phase only; also returns the first profiling run's
    outcome (the one the search context is built from) and where the
    outcomes came from. With [store], the outcomes are taken from it when
    it holds them under this configuration's profile key, and written to
    it once flown otherwise. Raises [Failure] if a profiling run does not
    complete cleanly. *)

val run :
  ?stop_when:(finding -> bool) -> ?progress:(progress -> unit) -> config ->
  strategy:(Search.context -> Search.t) -> result
(** Run a full campaign: profile, search, simulate and judge, nothing
    else. [stop_when] ends the campaign early when a finding satisfies it
    (used by the Table V until-found experiments). [progress] is invoked
    after every simulated scenario and once more on completion; campaign
    runners use it to emit live metrics. With [config.prefix_cache] set,
    test runs go through a fresh {!Prefix_cache}. When [AVIS_STORE_DIR]
    is set as well, the cell opens the {!Checkpoint_store} there once,
    before profiling: the profiling outcomes are served from it when an
    earlier process of the same build profiled the same configuration
    (and written to it once they are flown and checked otherwise), and
    the prefix cache is backed by it, which is how a rerun in a later
    process reuses an earlier campaign's profile and checkpoints. Served
    or flown, the outcomes build the same profile and search context, bit
    for bit. The campaign never spends past [budget_s]: affordability is
    checked against the simulator's duration cap before each run, and the
    ledger saturates at the budget. Exceptions escape; {!run_supervised}
    and {!run_cell} quarantine them. *)

(** {2 Interrupt}

    A process-wide cooperative stop flag. {!request_interrupt} (typically
    from a SIGINT handler) makes every in-flight {!run} stop at its next
    scheduling boundary and return its partial findings and ledger;
    {!run_cell} journals no record for an interrupted cell. *)

val request_interrupt : unit -> unit
val interrupted : unit -> bool
val clear_interrupt : unit -> unit

(** {2 Quarantined cells}

    A cell's campaign depends only on its declared inputs
    ({!journal_identity}), so a failure replays identically on every
    attempt: a cell runs once. Whatever escapes it quarantines the cell
    with a stable code instead of aborting the caller's matrix; each
    quarantine warns on stderr and bumps the [cell.quarantined] trace
    counter. *)

type cell_error = {
  code : string;
      (** Stable code: [CELL-IO] ([Sys_error], [Unix.Unix_error]),
          [CELL-FAIL] ([Failure]) or [CELL-EXN] (anything else). *)
  message : string;  (** The rendered exception. *)
}

type 'a supervised = Completed of 'a | Quarantined of cell_error

val run_supervised :
  ?stop_when:(finding -> bool) -> ?progress:(progress -> unit) -> config ->
  strategy:(Search.context -> Search.t) -> result supervised
(** {!run}, with an escaping exception quarantined. Nothing is
    journalled; {!run_cell} is the journal's one writer. *)

(** {2 Journal keys}

    The resumable-journal addressing for one campaign cell; see
    {!Run_journal} for the file format and staleness rules. *)

val journal_identity : config -> approach:string -> string
(** The cell's canonical configuration bytes: the exact test-run
    simulator config, the workload name, the budget parameters by their
    IEEE-754 bits, and the approach label. Every field of {!config} except
    [prefix_cache] (which never changes a result) is keyed, and adding a
    field to {!config} fails to compile until this function keys it or
    says why it need not. *)

val journal_key : Run_journal.t -> config -> approach:string -> string
(** {!Run_journal.key} over the journal's code fingerprint and
    {!journal_identity}. *)

val journal_memo :
  Run_journal.t -> config -> approach:string -> Run_journal.record option
(** The completed record for this cell, if the journal holds one — the
    caller then skips the campaign and serves the memo. The [approach]
    string must match the one {!run_cell} was given when the record was
    written. *)

val label_of : config -> approach:string -> string
(** The cell's display label, [approach/policy/workload]. *)

val record_of_result :
  ?elapsed_s:float -> config -> approach:string -> fingerprint:string ->
  result -> Run_journal.record
(** The journal record of this result — the single construction site
    behind {!run_cell}'s journal append and the hunt daemon's wire
    results, so a streamed result and a journal memo of the same cell are
    identical. [elapsed_s] is the cell's measured wall-clock duration;
    omitted, the record carries no duration. *)

(** {2 Matrix cells}

    The one cell runner behind [avis_cli hunt], the hunt daemon's workers,
    the bench matrix and the examples: serve the journal memo, else run
    the cell once, quarantining a failure, and journal the result,
    reporting through {!Avis_util.Metrics} snapshots all the way. *)

type cell_outcome =
  | Live of result * Run_journal.record
      (** Ran in this call. The record is built once by
          {!record_of_result} under the journal's fingerprint (empty
          without a journal) and is the one appended, so it is byte for
          byte the memo a later call serves; after an interrupt it is
          not journalled. *)
  | Memo of Run_journal.record  (** Served from the journal; nothing ran. *)
  | Failed of cell_error
      (** Quarantined: the campaign or its journal append raised. *)

val snapshot :
  config -> approach:string -> wall_s:float -> cell_outcome ->
  Avis_util.Metrics.snapshot
(** The terminal metrics snapshot of a cell, labelled {!label_of}: a live
    cell's counters, GC and store work; a memo's counters with no GC or
    store activity; zero counters for a failed cell. *)

val run_cell :
  ?journal:Run_journal.t ->
  ?emit:(event:string -> Avis_util.Metrics.snapshot -> unit) -> config ->
  approach:string -> strategy:(Search.context -> Search.t) ->
  cell_outcome * Avis_util.Metrics.snapshot
(** Run one cell: serve [journal]'s memo when it holds the cell, else
    {!run} it once and append its record under [approach]. This is the
    journal's one writer: the campaign and the append run inside one
    quarantine, so a failing append fails the cell ([CELL-IO]) without
    running the campaign again. A cell cut by {!request_interrupt}
    journals no record but an interrupted marker.
    The journal keys the cell by [approach], not by [strategy], and every
    executable of one build keys its journals with the same fingerprint
    ({!Avis_fingerprint.hex}), so they share journals: an approach label
    must name one strategy across every executable of a build ([avis_cli],
    the daemon's workers, the bench harness, perfbench and the examples).
    [emit] (default {!Avis_util.Metrics.emit} on stderr) receives one
    [progress] snapshot per new tenth of the budget spent — at most 11
    per cell, whatever the machine's speed — then exactly one terminal
    [memo], [done] or [quarantined] {!snapshot}, which is also
    returned. *)

val run_cells :
  ?journal:Run_journal.t -> jobs:int ->
  (config * string * (Search.context -> Search.t)) list ->
  (cell_outcome * Avis_util.Metrics.snapshot) list
(** {!run_cell} over [(config, approach, strategy)] cells, metrics on
    stderr, through {!Avis_util.Pool.map}: cells start in input order on
    [jobs] domains. Results come back in input order and, thanks to
    per-cell seeding, byte-identical whatever [jobs] is. *)

val cell_seed :
  ?base:int -> policy:string -> workload:string -> approach:string -> unit -> int
(** A deterministic positive seed for one cell of a campaign matrix,
    derived (FNV-1a) from the cell's labels and the [base] seed
    (default 1). Both the sequential and the parallel matrix runners use
    this, so a cell's campaign is identical no matter where or in what
    order it executes. *)

val unsafe_count : result -> int

val count_by_bucket : Run_journal.finding list -> (string * int) list
(** Findings per Table IV mode bucket, by {!Report.bucket_label}, in
    {!Report.all_buckets} order (buckets with zero included). *)

val found_bug : result -> Bug.id -> bool
(** Did any finding's ground-truth attribution include this bug? *)

val simulations_until_bug : result -> Bug.id -> int option
(** Simulation count at the first finding attributed to the bug. *)
