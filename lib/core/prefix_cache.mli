(** Snapshot-based prefix caching for campaign test runs.

    Every test run in a campaign replays a shared prefix before diverging:
    the clean flight — provision, arm, climb — and, for searches that stack
    faults onto a previously observed scenario (SABRE's sites), the faulty
    flight of that base scenario too. Every executed scenario pauses at
    the requested times as it runs, and each pause is a capture of the
    simulator ({!Avis_sitl.Sim.encode_state}) and the stepper
    ({!Workload.Stepper.encode}), keyed by the exact set of faults —
    sensor failures and link outages alike — already active when it was
    taken (an outage stays in the key after its window closes: the
    traffic it dropped leaves the run permanently different). A
    scenario's captures before its first fault are clean checkpoints,
    under the empty key, so there is no separate clean run: the clean
    prefix up to any time is simulated once, by the first scenario to
    reach that time.

    A faulty capture is kept only where a stacked scenario can fork. SABRE
    stacks a new fault set onto a base run at the mode transitions that
    run made, so a child forks from its base's last capture before one of
    them. A run therefore holds its latest faulty capture as pending, its
    simulator bytes in a buffer the cache reuses, and files it as a
    checkpoint only when the run records a mode transition before its
    next capture or its end.

    The end of every run is its final checkpoint, keyed by the faults
    active at its injection clock: the simulator, the trace and the
    finished stepper. A run served from it takes no step, and its outcome
    is read from the restored layers. It serves the same scenario again,
    and any scenario whose further faults all lie after that end: such a
    run stops at the same step whatever comes later, so the lookup window
    below already admits exactly the sound cases. A faulty run files at
    most one checkpoint per transition after its first fault, plus its
    end; the end costs one {!Avis_sitl.Sim.encode_state} per scenario,
    and none when a checkpoint with its key and time is already held (a
    run that stopped without stepping after a pause ends in that pause's
    state).

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
  ?store:Checkpoint_store.t ->
  workload:Workload.t ->
  config:Avis_sitl.Sim.config ->
  checkpoint_times:float list ->
  unit ->
  t
(** A cache for the test runs of one campaign. Every run is provisioned
    from [config] (the campaign's test seed, configuration and
    environment) with the scenario's fault schedule, whether it runs cold
    or is restored. [checkpoint_times] need not be sorted or unique;
    non-positive times are dropped.

    The cache keeps every checkpoint it files for as long as it lives
    (one campaign), and counts each by what it alone holds, with no heap
    walk: its encoded simulator and stepper strings plus its trace
    snapshot's record ({!Avis_sitl.Sim.snapshot_bytes}). Trace chunks,
    shared by a run and its checkpoints, are counted for none of them, and
    neither is a run's pending capture, so the count is less than what
    the checkpoints keep alive.

    [store] (none by default; {!Campaign.run} opens one from
    [AVIS_STORE_DIR] before profiling and hands it here) adds a persistent
    tier behind the in-memory one, keyed by the store's code fingerprint,
    the canonical bytes of [config], the workload and the fault history.
    The store receives only what a later process forks from: every clean
    capture, as it is taken, and each executed scenario's end, when
    {!execute} returns. A checkpoint is written as the entry's strings
    plus the trace (lazily — nothing is written when the store has the
    file indexed or on disk), with each full 256-sample trace chunk named
    in its place: the cache encodes a chunk and hands it to
    {!Checkpoint_store.put_chunk} the first time, and afterwards reuses
    the name it got (or the one it loaded the chunk under) while
    {!Checkpoint_store.keep_chunk} says the file is held, since a full
    chunk never changes; either call refreshes the chunk file's mtime, so
    eviction takes a checkpoint before the chunks it names. So the
    checkpoints of a run, and of every run forked from it, store its past
    once, and a write hashes only the chunks the cache has not named yet.

    There is one lookup, over memory and the store together. For each
    fault prefix of the scenario it takes the later of two checkpoints:
    memory's latest in the window, and the store's latest
    ({!Checkpoint_store.latest}, from the index the store built when it
    was opened); on a tie, memory's, which reads no file. The latest over
    all prefixes wins. So a fresh process forks even its first scenario
    from the best stored checkpoint — a scenario an earlier process ran,
    from that run's end, taking no step; any other, from the clean prefix
    or a stored scenario it extends — and a later scenario forks from a
    stored checkpoint later than any memory holds. A stored winner's one
    file is read, with each chunk it names that the cache has not decoded
    yet (the cache decodes a chunk once and every trace restored from it
    shares it, which is sound because a full chunk is never written
    again), forked, and filed in memory. A file that does not read or
    decode, or that names a chunk the store cannot serve, is deleted, and
    the lookup runs again. Stored checkpoints are served only on
    bit-exact key matches, so outcomes remain bit-identical to cold runs,
    across processes. *)

val execute : t -> scenario:Scenario.t -> Avis_sitl.Sim.outcome
(** Run one scenario, forking from the best applicable checkpoint — clean,
    faulty-prefix or a run's end — when one exists, and cold otherwise.
    Either way the outcome is bit-identical to a cold run. A forked run
    resumes just under the capture time its checkpoint was taken at and
    does not capture there again; one forked from a run's end takes no
    step. *)

type stats = {
  hits : int;  (** Scenarios served from a checkpoint. *)
  misses : int;  (** Scenarios simulated cold. *)
  saved_sim_s : float;
      (** Simulated seconds skipped by restoring instead of replaying: a
          scenario served from its run's end skips its whole duration. *)
  evictions : int;
      (** Always 0: the cache drops no checkpoint. The field stays because
          [perfbench/avisbench.ml] builds this record literally. *)
  resident_bytes : int;
      (** What the filed checkpoints alone hold, as {!create} counts it:
          trace chunks and the pending capture are not counted. *)
  store_hits : int;
      (** Scenarios served from a store file: the lookup's winner was a
          stored checkpoint, later than memory's. 0 when no store is
          configured. *)
  store_misses : int;
      (** Scenarios run cold while a store was configured. *)
  store_bytes : int;
      (** Bytes of the store's files, as {!Checkpoint_store.bytes} counts
          them. *)
}

val stats : t -> stats
