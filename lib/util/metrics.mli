(** Structured campaign progress lines and the end-of-run summary.

    A 16-way parallel campaign matrix interleaves the output of every
    cell, so progress is reported as single-line [key=value] records on
    stderr that are emitted atomically (one [output_string] under a
    global mutex) and are grep-able by cell label:

    {v [avis] event=progress cell=Avis/apm/auto-box sims=41 infs=0 spent_s=612.0 budget_s=7200.0 findings=3 wall_s=0.8 minor_mw=12.50 majors=2 store_h=0 store_m=0 store_b=0 prof=run v} *)

(** Where a cell's monitor profile came from, rendered as [prof=run],
    [prof=store] or [prof=-]. *)
type profile_source =
  | Profile_run  (** The profiling runs were flown. *)
  | Profile_store  (** The checkpoint store served the profiling outcomes. *)
  | No_profile  (** The cell built none: a journal memo or a quarantine. *)

type snapshot = {
  cell : string;
      (** [approach/policy/workload]. Reserved bytes (space, ['='], ['%'],
          control characters) are percent-escaped by {!line}. *)
  simulations : int;
  inferences : int;
  spent_s : float;  (** Modelled wall-clock charged to the budget. *)
  budget_s : float;
  findings : int;
  wall_s : float;  (** Real (monotonic) seconds since the cell started. *)
  minor_words : float;
      (** Minor-heap words allocated by the cell so far (rendered in
          megawords as [minor_mw]). *)
  major_collections : int;  (** Major GC cycles during the cell. *)
  store_hits : int;
      (** Restores served from the persistent checkpoint store; 0 when no
          store is configured. *)
  store_misses : int;  (** Store consultations that ran cold instead. *)
  store_bytes : int;  (** Bytes on disk under the store directory. *)
  profile : profile_source;
      (** Counted apart from [store_hits]/[store_misses], which count
          checkpoint restores only. *)
}

val now_s : unit -> float
(** Monotonic clock reading in seconds. Only differences are meaningful;
    immune to wall-clock steps (NTP, DST) unlike [Unix.gettimeofday]. *)

val line : ?tags:(string * string) list -> event:string -> snapshot -> string
(** Render one record (no trailing newline). [tags] are appended as extra
    [key=value] pairs — the hunt daemon tags every streamed record with
    the owning request id ([req=...]). Values (the cell label, the event
    and every tag) are percent-escaped so that a space, ['='], ['%'] or
    control byte in a label cannot corrupt the [key=value] framing;
    {!parse_line} reverses the escaping. *)

val parse_line :
  string ->
  (string * snapshot * (string * string) list, string) result
(** Parse a {!line}-rendered record back into [(event, snapshot, tags)] —
    the inverse the daemon's clients use to read the stream. Strict: the
    ["[avis]"] prefix and every snapshot field must be present and
    well-formed. Labels and tag values round-trip exactly; numeric fields
    round-trip through their fixed-point rendering, so
    [line ~tags ~event snapshot] of a parsed line reproduces the input
    byte for byte. *)

val emit :
  ?oc:out_channel -> ?tags:(string * string) list -> event:string ->
  snapshot -> unit
(** Write [line] atomically to [oc] (default stderr) and flush. Safe to
    call concurrently from worker domains. *)

val total : snapshot list -> snapshot
(** The summary's TOTAL row: sums simulations, inferences, spend, budget,
    findings and GC work, but takes the {e max} of [wall_s] — concurrent
    cells' elapsed times overlap rather than add, while their allocation
    and collections are real per-domain work and do add. Its [profile]
    is [No_profile]. *)

val summary_table : snapshot list -> Table.t
(** The per-cell table, with a separator and {!total} row appended when
    there are at least two snapshots. *)

val summary : ?oc:out_channel -> snapshot list -> unit
(** Print {!summary_table} atomically (default stderr). *)
