(** A small bounded work-queue over OCaml 5 domains.

    Jobs are closures; a fixed crew of worker domains drains a bounded
    queue (submission blocks when the queue is full, so a fast producer
    cannot build an unbounded backlog). With [jobs <= 1] everything runs
    inline on the calling domain in submission order, which is the
    determinism baseline the campaign runner is checked against: a job
    must not depend on which domain runs it or on completion order. *)

type t

val create : jobs:int -> t
(** Start a pool of [max 1 jobs] workers. [jobs <= 1] creates an inline
    pool that runs each job during {!submit}. *)

val jobs : t -> int
(** The worker count the pool was created with (at least 1). *)

val submit : t -> (unit -> unit) -> unit
(** Queue a job. Blocks while the queue is full. Raises [Invalid_argument]
    if the pool is already closed — including when the close happened while
    this submit was blocked on a full queue (enqueueing then could land the
    job after the workers exited, silently dropping it). A failing job
    never raises here, whatever the backend: the first failure is deferred
    to {!close_and_wait}, so [jobs = 1] and [jobs > 1] behave identically. *)

val close_and_wait : t -> unit
(** Stop accepting jobs, run everything queued, join the workers. If any
    job raised, the first exception (in completion order) is re-raised
    here with its backtrace. Idempotent: only the first close joins and
    may re-raise (the failure is consumed under the pool lock); every
    later close is a no-op. *)

val queue_wait_s : t -> float
(** Cumulative seconds jobs spent queued before a worker picked them up
    (0 for inline pools, where jobs run during {!submit}). Each job's
    individual wait is also emitted as the [pool.queue_wait_s] trace
    counter, so scheduling wins are readable straight off a trace. *)

val map_lpt :
  jobs:int -> weight:('a -> float) -> ('a -> 'b) -> 'a list -> 'b list
(** [map_lpt ~jobs ~weight f items] applies [f] to every item on a fresh
    pool, feeding items heaviest-[weight]-first (LPT list scheduling) so
    predicted-long items start early instead of straggling at the tail of
    the queue; ties keep input order. Results come back in input order
    regardless of completion order; with order-independent jobs (the
    campaign matrix's per-cell seeding) the output does not depend on the
    weights, only the makespan does. Exceptions propagate as in
    {!close_and_wait}. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_lpt} with a constant weight: items are fed in input order. *)

val default_jobs : unit -> int
(** What the hardware suggests: [Domain.recommended_domain_count ()]. *)

val jobs_of_env : ?var:string -> unit -> int
(** Read the worker count from the environment ([AVIS_JOBS] by default).
    Unset means {!default_jobs}; a malformed or non-positive value warns
    on stderr and falls back to {!default_jobs}. *)
