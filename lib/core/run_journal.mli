(** Crash-safe, resumable campaign memo journal.

    A long campaign matrix killed mid-run (crash, OOM-kill, pre-emption)
    loses every completed cell: the next invocation re-simulates them all.
    The journal fixes that: each completed cell is appended as one JSONL
    record keyed by the MD5 of [(binary fingerprint, canonical cell
    configuration bytes)], so a re-run with the same binary and
    configuration serves the finished cells from the journal and only
    simulates the rest — with counts, budget charges and finding indices
    bit-identical to an uninterrupted run (the record stores the spent
    seconds by their IEEE-754 bits).

    {2 Durability}

    Records are appended as single lines to a file opened in append mode
    and flushed per record, so a crash can lose at most the record being
    written — and a torn trailing line is detected at load time, warned
    about, and skipped (subsequent appends first terminate it with a
    newline so no later record is corrupted by concatenation).

    {2 Staleness}

    The first line is a header carrying the binary fingerprint (the digest
    of the running executable, {!Checkpoint_store.default_fingerprint}). A
    journal written by a different build is invalidated {e loudly}: the
    stale file is renamed to [PATH.stale] with a warning, and a fresh
    journal is started — memos from another binary are never served
    silently. *)

type finding = {
  simulation_index : int;
  description : string;  (** {!Report.describe} of the finding. *)
  bucket : string;  (** {!Report.bucket_label} of the injection bucket. *)
  bugs : string list;  (** Report ids of the ground-truth triggered bugs. *)
}

type record = {
  key : string;  (** Hex MD5 of (fingerprint, cell config bytes). *)
  label : string;  (** Human-readable cell label (diagnostics only). *)
  simulations : int;
  inferences : int;
  spent_bits : int64;  (** IEEE-754 bits of the spent budget seconds. *)
  elapsed_bits : int64 option;
      (** IEEE-754 bits of the cell's real wall-clock duration, the
          worker-side cell time a daemon client can read off a result.
          [None] for journals written before the field existed — such
          records still memo-serve. Informational: the value is a
          measurement, not part of the deterministic result, so identity
          checks compare records with it normalised out. *)
  findings : finding list;  (** Oldest first. *)
}

type t

val open_ : ?fingerprint:string -> string -> t
(** Open (creating if needed) the journal at the given path and load every
    complete record. [fingerprint] overrides the binary fingerprint (tests
    use this to simulate a rebuilt binary). A header mismatch renames the
    file to [PATH.stale] and starts fresh; unparseable interior lines are
    warned about and skipped. *)

val path : t -> string
val fingerprint : t -> string

val key : fingerprint:string -> config_bytes:string -> string
(** The journal key for a cell: hex MD5 over the fingerprint and the
    cell's canonical configuration bytes (null-separated). *)

val find : t -> key:string -> record option
(** The completed record under [key], if any. *)

val record_complete : t -> record -> unit
(** Append a completed cell (one line, flushed) and index it for {!find}.
    Safe to call concurrently from worker domains. *)

val record_interrupted : t -> key:string -> label:string -> unit
(** Append an incomplete marker for a cell that was interrupted mid-run.
    The marker is diagnostic only: it is never served by {!find}. *)

val completed_count : t -> int
(** Complete records loaded when the journal was opened (not counting
    records appended since). *)

val interrupted_count : t -> int
(** Incomplete markers seen at load time. *)

val spent_s : record -> float
(** [Int64.float_of_bits record.spent_bits]. *)

val elapsed_s : record -> float option
(** The cell's measured wall-clock duration in seconds, when recorded. *)

(** {2 Record serialisation}

    The journal's one-line JSON encoding of a completed cell, exposed so
    the hunt daemon can carry records over its wire protocol byte-for-byte
    as they would be journalled — the client's view of a result and the
    journal's memo of it are the same bytes. *)

val record_to_json : record -> Avis_util.Json.t

val record_of_json : Avis_util.Json.t -> record option
(** [None] on any missing or ill-typed field. *)
