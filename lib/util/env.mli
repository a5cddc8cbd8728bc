(** Uniform environment-variable parsing with warn-and-fall-back.

    Every [AVIS_*] knob used to hand-roll its own parser, and they drifted:
    some warned on a malformed value, some silently accepted garbage
    ([AVIS_TRACE=tru] used to mean {e on}), and the wording differed. These
    helpers give them one behaviour — an unset variable is the default, a
    well-formed value wins, and anything else (malformed, zero, negative,
    unrecognised) warns once on stderr and falls back to the default. A
    typo must never silently disable, unbound or serialise anything. *)

val positive_int : var:string -> default:int -> unit -> int
(** Parse [var] as a strictly positive integer. *)

val budget_bytes :
  ?mb:int -> arg:string -> var:string -> default_mb:int -> unit -> int
(** A byte budget given in MiB: [mb] when it is positive, else [var] as
    {!positive_int}, else [default_mb]. A count whose bytes overflow an
    [int] (above [max_int / 1_048_576]) is refused like a non-positive
    one: a bad [mb] warns under the argument name [arg], a bad [var]
    under its own name, and both fall back to [default_mb]. *)

val positive_float : var:string -> default:float -> unit -> float
(** Parse [var] as a strictly positive, finite float (seconds,
    typically). *)

val flag : var:string -> unit -> bool
(** Parse [var] as a boolean: ["1"/"true"/"on"/"yes"] are true,
    ["0"/"false"/"off"/"no"] are false (case-insensitive, trimmed).
    Unset is false; anything else warns and falls back to false. *)
