(** Snapshot-based prefix caching for campaign test runs.

    Every test run in a campaign replays a shared prefix before diverging:
    the clean flight — provision, arm, climb — and, for searches that stack
    faults onto a previously observed scenario (SABRE's sites), the faulty
    flight of that base scenario too. The cache checkpoints both with
    {!Avis_sitl.Sim.snapshot} and {!Workload.Stepper.snapshot}:

    - the clean run is simulated {e once} (same config and seed as the test
      runs) and checkpointed lazily at the requested times, and
    - every executed scenario is itself checkpointed at those times as it
      runs, each checkpoint keyed by the exact set of faults — sensor
      failures and link outages alike — already active when it was taken
      (an outage stays in the key after its window closes: the traffic it
      dropped leaves the run permanently different).

    A scenario is then served by restoring the latest checkpoint whose
    active-fault set is a float-for-float prefix of the scenario and whose
    time lies strictly before the scenario's next injection, substituting
    the full fault schedule with {!Avis_sitl.Sim.restore}, and simulating
    only the suffix. Because the fixed test seed makes runs with identical
    fault histories bit-identical, and the restored simulator keeps its
    step counter, every outcome — trace, transitions, duration, sensor
    reads — is bit-identical to a cold run of the same scenario, and budget
    accounting (which charges the full virtual duration) is unchanged. The
    win is wall-clock only. *)

type t

val create :
  ?cache_mb:int ->
  ?store_dir:string ->
  workload:Workload.t ->
  make_sim:(scenario:Scenario.t -> Avis_sitl.Sim.t) ->
  checkpoint_times:float list ->
  unit ->
  t
(** [make_sim] must provision a simulator exactly as the campaign's test
    runs do (same seed, config and environment), differing only in the
    scenario's fault schedule. [checkpoint_times] need not be sorted or
    unique; non-positive times are dropped.

    [cache_mb] bounds the resident checkpoint bytes; it defaults to the
    [AVIS_CACHE_MB] environment variable, else 1024 MiB (zero, negative
    and malformed values are warned about and replaced by the default).
    When a capture would push the resident set past the budget, whole
    checkpoints are evicted in global least-recently-used order (hits and
    captures both count as uses) until it fits; a lone checkpoint larger
    than the whole budget is itself evicted, so the bound holds
    unconditionally. Eviction only costs future wall-clock (the evicted
    prefix re-simulates cold) — outcomes are unaffected.

    [store_dir] (default the [AVIS_STORE_DIR] environment variable, else
    no store) adds a persistent tier behind the in-memory one: a
    {!Checkpoint_store} rooted there, keyed by the campaign's code
    fingerprint, canonical configuration bytes (read from one [make_sim]
    probe with the empty scenario), workload and fault history. Captures
    are written through (lazily — nothing is serialised when the file
    already exists), memory misses fall back to the store
    before running cold, and a fresh process forks its clean builder from
    the best stored clean checkpoint instead of re-simulating it. Stored
    checkpoints are served only on bit-exact key matches, so outcomes
    remain bit-identical to cold runs, across processes. The
    [AVIS_STORE_MB] environment variable bounds the store directory
    (default 1024 MiB). *)

val execute : t -> scenario:Scenario.t -> Avis_sitl.Sim.outcome
(** Run one scenario, forking from the best applicable checkpoint — clean
    or faulty-prefix — when one exists, and cold otherwise. Either way the
    outcome is bit-identical to a cold run. *)

type stats = {
  hits : int;  (** Scenarios served from a checkpoint. *)
  misses : int;  (** Scenarios simulated cold. *)
  saved_sim_s : float;
      (** Simulated seconds skipped by restoring instead of replaying. *)
  evictions : int;  (** Checkpoints dropped to stay within the budget. *)
  resident_bytes : int;  (** Current accounted checkpoint bytes. *)
  store_hits : int;
      (** Restores served from the persistent store (scenario forks and
          clean-builder forks alike); 0 when no store is configured. *)
  store_misses : int;
      (** Scenarios the store was consulted for but could not serve. *)
  store_bytes : int;  (** Bytes currently on disk under the store. *)
}

val stats : t -> stats
