(** Staged burn-in diagnostics for unattended operation.

    Every optimisation layered onto the pipeline — the fused physics
    kernel, snapshot round-tripping, the persistent checkpoint store, the
    prefix cache, the domain pool, the allocation-free hot loop — carries
    a machine-checkable invariant. This module packages those invariants
    as an ordered list of cheap checks with {e stable string error
    codes}, so an operator (or the future hunt-as-a-service daemon at
    boot) can prove on {e this} machine, with {e this} binary, that the
    determinism assumptions a long campaign rests on actually hold before
    burning budget:

    - [DET-FP] — optimised {!Avis_physics.World.step} vs
      [step_reference]: bit-equal state fingerprints over a
      climb/cruise/descend profile in calm and windy air, and over a
      grounded profile that rests with its motors off until its rates
      decay into the subnormal range;
    - [SNAP-RT] — simulator snapshot → bytes → restored run: the
      restored run re-encodes to the same bytes and steps bit-identically
      with the original (a 5 s ArduPilot flight encodes to 6,235 bytes,
      trace included: the layers' run state only, nothing the config
      pins);
    - [STORE-RW] — checkpoint store in a temp dir: write/read round-trip,
      corrupt-file detection, stale-fingerprint isolation;
    - [CACHE-ID] — a mini campaign with the prefix cache on vs off:
      identical counts, ledger bits and finding indices;
    - [POOL-SANE] — domain pool: ordered [map], and the first failure
      in input order propagates;
    - [ALLOC-0] — the step/sense/record hot loop allocates no minor-heap
      words per step.

    Checks run in order and all of them run (a failure does not stop the
    sequence): the table is the diagnosis, the exit code the verdict.
    [avis_cli selftest] is the command-line entry (exit 0/1). *)

type report = {
  code : string;  (** Stable error code, e.g. [DET-FP]. *)
  name : string;  (** Human-readable one-liner. *)
  passed : bool;
  detail : string;  (** What was measured, or what diverged. *)
  elapsed_s : float;
}

type check = {
  code : string;
  name : string;
  run : unit -> (string, string) result;
      (** [Ok detail] / [Error detail]. Exceptions are caught by
          {!run_check} and reported as failures. *)
}

val det_fp :
  ?optimized:
    (Avis_physics.World.t ->
    motor_commands:float array ->
    dt:float ->
    Avis_physics.World.contact_event option) ->
  unit ->
  check
(** The [DET-FP] check. [optimized] substitutes the kernel under test
    (default {!Avis_physics.World.step}) — tests inject a perturbed
    stepper to force the failure path. *)

val store_rw : ?dir:string -> unit -> check
(** The [STORE-RW] check. [dir] overrides the store directory (default a
    fresh temp dir, removed afterwards) — tests pass an unusable path to
    force the failure path. *)

val checks : unit -> check list
(** The standard staged sequence, in order: [DET-FP], [SNAP-RT],
    [STORE-RW], [CACHE-ID], [POOL-SANE], [ALLOC-0]. *)

val run_check : check -> report

val run_all : ?checks:check list -> unit -> report list
(** Run every check (default {!checks}) in order; never raises. *)

val all_passed : report list -> bool

val table : report list -> Avis_util.Table.t
(** The selftest report as a printable table. *)

(** {2 Soak mode}

    Loops a small fixed campaign under a rotating seed and fingerprints
    each iteration's outcome (simulation and inference counts, the spent
    ledger's bits, every finding's index and description). Any mismatch
    between two iterations with the same seed is {e drift} — the
    determinism contract broken by thermal throttling, a flaky allocator,
    cosmic rays, or a real bug — and is reported per occurrence. *)

type soak = {
  iterations : int;
  drift : string list;  (** One human-readable entry per mismatch. *)
}

val soak :
  ?iterations:int -> ?progress:(int -> unit) -> minutes:float -> unit -> soak
(** Run for [minutes] of wall clock (at least one full seed rotation), or
    exactly [iterations] iterations when given. [progress] is called with
    the 1-based iteration number as each iteration completes. *)
