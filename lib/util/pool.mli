(** Parallel [map] over OCaml 5 domains.

    With [jobs <= 1] everything runs inline on the calling domain in
    input order, which is the determinism baseline the campaign runner
    is checked against: an item must not depend on which domain runs it
    or on completion order. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item on [min jobs n]
    domains (the calling one included), each taking the next unstarted
    item in input order, and returns the results in input order. Every
    item runs even when another raises; afterwards the first failure in
    input order is re-raised with its backtrace. Each application is one
    [pool.job] trace span. *)

val default_jobs : unit -> int
(** What the hardware suggests: [Domain.recommended_domain_count ()]. *)

val jobs_of_env : ?var:string -> unit -> int
(** Read the worker count from the environment ([AVIS_JOBS] by default).
    Unset means {!default_jobs}; a malformed or non-positive value warns
    on stderr and falls back to {!default_jobs}. *)
