(** Low-overhead structured span and counter tracing.

    A campaign's cost story (where do the seconds of a cell go: simulation
    steps, cache serves, search decisions, pool scheduling?) is recorded as
    begin/end spans and counter samples with monotonic timestamps. Recording
    is compiled in everywhere and costs one atomic load plus a branch when
    tracing is disabled — no allocation per span, verified by a test — so
    the hot paths carry their instrumentation permanently.

    Every domain records into its own buffer (via [Domain.DLS]), so parallel
    campaign cells never contend on a lock; the exporters aggregate all
    buffers. Export either as Chrome trace format JSON (open in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) or as a
    plain-text per-span summary table. *)

val set_enabled : bool -> unit
(** Turn recording on or off globally (all domains see the flag). Enabling
    (re)anchors the trace epoch at "now"; events already recorded keep
    their timestamps. *)

val enabled : unit -> bool

val enabled_by_env : ?var:string -> unit -> bool
(** Whether the environment asks for tracing ([AVIS_TRACE] by default;
    truthy unless ["0"|"false"|"off"|"no"]). Unset means disabled. The
    caller decides what to do with the answer — typically
    [set_enabled (enabled_by_env ())]. *)

val reset : unit -> unit
(** Drop every recorded event in every domain's buffer and re-anchor the
    epoch. The enabled flag is unchanged. *)

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when tracing is enabled, the call is
    recorded as a complete span (begin timestamp + duration) named [name]
    in category [cat] (default ["avis"]). If [f] raises, the span is still
    recorded before the exception is re-raised with its backtrace. When
    disabled this is just [f ()]. *)

val counter : string -> float -> unit
(** Record one sample of a named counter (cache hits, pool queue depth,
    budget spend, ...). Samples render as a stepped counter track in the
    Chrome trace viewer. *)

val instant : ?cat:string -> string -> unit
(** Record a zero-duration marker (e.g. a finding). *)

val event_count : unit -> int
(** Events currently buffered across all domains. *)

(** {2 Exporters} *)

val to_chrome_json : unit -> Json.t
(** All buffered events as a Chrome trace format object:
    [{"displayTimeUnit": "ms", "traceEvents": [...]}] with spans as ["X"]
    (complete) events, counters as ["C"] events, instants as ["i"] events,
    timestamps in microseconds since the epoch, and one thread per
    recording domain. *)

val write_chrome : path:string -> unit
(** Write {!to_chrome_json} (pretty-printed) to [path]. *)

type summary_row = {
  span_name : string;
  count : int;
  total_s : float;
  min_s : float;
  max_s : float;
}

val summary : unit -> summary_row list
(** Spans aggregated by name, sorted by descending total time. Nested
    spans overlap their parents, so totals are per-name costs, not a
    partition of the wall clock. *)

val wall_s : unit -> float
(** The extent of the recorded trace: latest span end minus earliest span
    begin, in seconds (0 when no spans were recorded). *)

val summary_table : unit -> Table.t
(** {!summary} rendered as a table with count, total/mean/min/max
    milliseconds and each span's share of {!wall_s}. *)
