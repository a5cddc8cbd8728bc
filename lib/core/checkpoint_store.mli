(** Persistent, content-addressed checkpoint store.

    The prefix cache ({!Prefix_cache}) holds checkpoints in memory, so they
    die with the process. The store persists the ones a later process
    forks from to a directory shared across processes and runs: every
    clean checkpoint (no fault active yet) and each executed scenario's
    final checkpoint. So a later process of the same build,
    configuration and seed finds the clean prefix at every capture time
    and each scenario an earlier process ran at that scenario's last
    capture. A re-run serves each scenario from its last capture; a
    longer campaign over the same cell (a larger budget) also forks its
    new scenarios from the clean prefix instead of re-simulating it. The
    same directory keeps each campaign's profiling outcomes, so the
    re-run skips profiling too.

    {2 Key anatomy}

    Every file is addressed by the MD5 of [(code fingerprint, key)]:

    - the {e code fingerprint} defaults to {!Avis_fingerprint.hex}, the
      digest of the project's sources that the build computes once, so
      every executable of one build shares its files, and files written
      by a different build are invisible (stale-fingerprint files are
      never served, only evicted). {!Run_journal} keys its records with
      the same value, so a rebuild invalidates stores and journals
      alike;
    - the {e key} is the caller's canonical identity bytes.

    A {e checkpoint} is [HASH-TIME.ckpt], where [TIME] is the simulated
    time of the snapshot by its IEEE-754 bits. {!Prefix_cache} keys it by
    {!Avis_sitl.Sim.encode_config} of the campaign's test-run
    configuration (policy, bugs, seed, duration cap, environment), the
    workload name, and the prefix cache's canonical encoding of the faults
    active at capture time (times by their bits).

    A {e chunk} is [HASH.chunk]: bytes addressed by their own MD5, which
    is the key. {!Prefix_cache} files each full trace chunk of a
    checkpoint as one, and the checkpoint names it instead of holding its
    samples, so checkpoints that share a run's past store it once.

    A {e profile} is [HASH.prof]: the outcomes of a campaign's fault-free
    profiling runs. {!Campaign} keys it by [Sim.encode_config] of the
    profiling configuration (the base seed in place of the test seed),
    the workload name and the number of profiling runs.

    Runs agree on a key only when their histories are bit-identical, which
    is exactly when serving the stored bytes is sound.

    {2 Index and visibility}

    An instance lists the directory once when it is created, stats each
    file, and keeps what it found as an index of key hash -> capture times
    (and profiles and chunks by key hash). Lookups read that index, never
    the directory; {!put}, {!put_chunk}, {!put_profile}, corrupt-file
    deletions and evictions update it. So an instance sees files that
    other writers added only at its next scan (at {!create} and before
    each eviction). A file deleted behind its back is a miss when it is
    looked up, and is then dropped from the index.

    {2 Durability and corruption}

    Files are written to a temp name and atomically renamed into place, so
    concurrent writers and crashed processes never leave a partial file
    under a valid key. Every file carries a checksum header; a truncated,
    bit-flipped or otherwise malformed file is detected at read time,
    deleted, and reported as [None] — a corrupt store can cost wall-clock,
    never a wrong outcome. A checkpoint that names a chunk the store
    cannot serve is corrupt in the same way, when its caller's decoder
    raises [Avis_util.Codec.Corrupt] for it.

    {2 Eviction}

    The store is bounded by [store_mb] (default the [AVIS_STORE_MB]
    environment variable, else 1024 MiB). Each instance tracks the
    directory's size itself: the scan at creation measures it, then the
    instance counts its own writes and deletions. When a write takes that
    count past the budget, the instance rescans the directory and deletes
    files, checkpoints, chunks and profiles alike, oldest-mtime-first
    until it fits. Equal mtimes (coarse filesystem timestamp granularity)
    are broken deterministically by name, so the surviving set does not
    depend on the filesystem; serving a file touches its mtime, making the
    policy LRU across processes.

    A single writer never leaves the directory over budget. When several
    instances write one directory, in one process or in many, each sees
    the others' files only at its next scan, so together they can
    overshoot the budget by what the others wrote since.

    All I/O failures degrade to cache misses; the store never raises out of
    [put]/[latest]/[put_chunk]/[put_profile]/[find_profile], nor out of
    [load]/[load_chunk] unless [decode] raises something other than
    [Avis_util.Codec.Corrupt]. *)

type t

val create : ?fingerprint:string -> ?store_mb:int -> dir:string -> unit -> t
(** Open (creating if needed) the store rooted at [dir], and scan it.
    [fingerprint] overrides the code fingerprint ({!Avis_fingerprint.hex}
    by default) — tests use this to simulate another build. [store_mb]
    bounds the directory size; non-positive or malformed values
    (including from [AVIS_STORE_MB]) are warned about and replaced by the
    1024 MiB default. *)

val put : t -> key:string -> time:float -> payload:string Lazy.t -> unit
(** Persist a checkpoint. The payload is not forced when a file for this
    exact key and time is indexed or already exists. Failures are
    silently ignored (the in-memory cache is unaffected). *)

val latest : t -> key:string -> before:float -> float option
(** The capture time of the latest indexed checkpoint under [key] taken
    strictly before [before]. Reads no file. *)

val load :
  t -> key:string -> time:float -> decode:(string -> 'a) -> 'a option
(** Read the indexed checkpoint under [key] at [time] and [decode] its
    payload. [None] when none is indexed, when the file cannot be read
    (it is forgotten), or when its frame is corrupt or [decode] raises
    [Avis_util.Codec.Corrupt] (it is deleted). A checkpoint that fails to
    load is out of the index, so {!latest} moves on to the one before it.
    Serving a file refreshes its mtime (LRU touch); no other file is read
    or touched. *)

val put_chunk : t -> string -> string
(** Persist a content-addressed chunk, unless a file with these bytes is
    indexed or on disk, and return its name: the bytes' MD5. A file under
    that name whose size (as indexed, else on disk) is not the size these
    bytes frame to is damaged: it is forgotten and written again.
    Checkpoints that share a run's past name its chunks instead of
    repeating them. Failures are silently ignored; the name is returned
    all the same, and a checkpoint that names a chunk the store does not
    hold fails to load. *)

val load_chunk : t -> string -> decode:(string -> 'a) -> 'a option
(** Read the chunk {!put_chunk} named and [decode] its bytes, as {!load}
    does: [None] when the file is missing (it is forgotten) or damaged,
    or [decode] raises [Avis_util.Codec.Corrupt] (it is deleted). A
    chunk another writer filed after this instance's scan is read too.
    Serving a file refreshes its mtime. *)

val put_profile : t -> key:string -> payload:string -> unit
(** Persist a profile, replacing any file under [key]. Failures are
    silently ignored. *)

val find_profile : t -> key:string -> string option
(** The indexed profile under [key]. A corrupt file is deleted and is a
    miss. Serving it refreshes its mtime. *)

val bytes : t -> int
(** Bytes of checkpoint, chunk and profile files under the store
    directory, as of this instance's last scan (at [create] and before each eviction)
    plus the files it has written and minus the files it has deleted or
    found missing since. Files other instances wrote or deleted after
    that scan are not counted. *)

val evictions : t -> int
(** Files deleted by this instance to stay in budget. *)

val writes : t -> int
(** Files written by this instance, checkpoints, chunks and profiles
    alike. A [put] or [put_chunk] that found its file indexed or on disk
    writes nothing and is not counted. *)
