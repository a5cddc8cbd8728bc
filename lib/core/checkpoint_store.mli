(** Persistent, content-addressed checkpoint store.

    The prefix cache ({!Prefix_cache}) holds checkpoints in memory, so they
    die with the process. The store persists them to a directory shared
    across processes and runs: a campaign re-run with the same binary,
    configuration and seed forks from checkpoints written by an earlier
    process instead of re-simulating its clean prefix.

    {2 Key anatomy}

    A checkpoint is addressed by the MD5 of
    [(code fingerprint, canonical config bytes, canonical fault-set key)]
    plus the capture time:

    - the {e code fingerprint} defaults to the digest of the running
      executable, so checkpoints written by a different build are invisible
      (stale-fingerprint entries are never served, only evicted);
    - the {e config bytes} are {!Avis_sitl.Sim.encode_config} of the
      campaign configuration (policy, bugs, seed, dt, faults profile,
      environment, airframe) plus the workload identity;
    - the {e fault-set key} is the prefix cache's canonical encoding of the
      faults active at capture time (times by their IEEE-754 bits);
    - the capture {e time} is the simulated time of the snapshot, encoded
      in the filename by its bits.

    Runs agree on a key only when their histories are bit-identical, which
    is exactly when serving the stored snapshot is sound.

    {2 Durability and corruption}

    Files are written to a temp name and atomically renamed into place, so
    concurrent writers and crashed processes never leave a partial file
    under a valid key. Every file carries a checksum header; a truncated,
    bit-flipped or otherwise malformed file is detected at read time,
    deleted, and reported as [None] — a corrupt store can cost wall-clock,
    never a wrong outcome.

    {2 Eviction}

    The store is bounded by [store_mb] (default the [AVIS_STORE_MB]
    environment variable, else 1024 MiB). Each instance tracks the
    directory's size itself: it scans the directory when it is created,
    then counts its own writes and deletions. When a write takes that count
    past the budget, the instance rescans the directory and deletes files
    oldest-mtime-first until it fits — equal mtimes (coarse filesystem
    timestamp granularity) are broken deterministically by path order, so
    the surviving set does not depend on the filesystem; serving a
    checkpoint touches its mtime, making the policy LRU across processes.

    A single writer never leaves the directory over budget. When several
    instances write one directory, in one process or in many, each sees
    the others' files only at its next scan, so together they can
    overshoot the budget by what the others wrote since.

    All I/O failures degrade to cache misses; the store never raises out of
    [put]/[lookup]. *)

type t

val create :
  ?fingerprint:string -> ?store_mb:int -> dir:string -> config_key:string -> unit -> t
(** Open (creating if needed) the store rooted at [dir]. [config_key] is
    the canonical configuration identity shared by every checkpoint this
    instance reads or writes. [fingerprint] overrides the code fingerprint
    (the digest of the running executable by default) — tests use this to
    simulate a rebuilt binary. [store_mb] bounds the directory size;
    non-positive or malformed values (including from [AVIS_STORE_MB]) are
    warned about and replaced by the 1024 MiB default. *)

val put : t -> fault_key:string -> time:float -> payload:string Lazy.t -> unit
(** Persist a checkpoint. The payload is not forced when a file for this
    exact key and time already exists. Failures are silently ignored (the
    in-memory cache is unaffected). *)

val lookup : t -> fault_key:string -> before:float -> (float * string) option
(** The latest stored checkpoint under [fault_key] taken strictly before
    [before], with its capture time. Corrupt candidates are deleted and
    skipped. Serving a file refreshes its mtime (LRU touch). *)

val bytes : t -> int
(** Checkpoint bytes on disk under the store directory, as of this
    instance's last scan (at [create] and before each eviction) plus the
    files it has written and minus the files it has deleted since. Files
    other instances wrote or deleted after that scan are not counted. *)

val evictions : t -> int
(** Files deleted by this instance to stay in budget. *)

val default_fingerprint : unit -> string
(** The code fingerprint used when [create]'s [?fingerprint] is omitted:
    the hex digest of the running executable ([Sys.executable_name]), or
    ["unknown"] when it cannot be read. {!Run_journal} keys its memos with
    the same fingerprint, so a rebuilt binary invalidates both stores and
    journals consistently. *)
