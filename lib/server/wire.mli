(** The hunt daemon's wire protocol.

    One line per message over a Unix-domain (or TCP) stream socket, in two
    interleaved layers the first byte distinguishes:

    - lines starting with ['{'] are control messages — strict JSON parsed
      with {!Avis_util.Json} (requests client-to-server, responses
      server-to-client);
    - lines starting with ["[avis]"] are streamed {!Avis_util.Metrics}
      records, relayed verbatim from the worker that produced them, each
      tagged with the owning request id ([req=...]).

    Campaign results travel as {!Avis_core.Run_journal.record} values in
    their journal JSON encoding, so the bytes a client receives for a cell
    are exactly the bytes the daemon's journal memoises — a served result
    and a resumed one cannot differ. *)

open Avis_core

type hunt_request = {
  firmware : string;  (** ["apm"] or ["px4"]. *)
  workload : string;  (** A {!Workload.by_name} name. *)
  approaches : string list;  (** Search strategies, one cell each. *)
  budget_s : float;  (** Modelled wall-clock budget per cell. *)
  seed : int;  (** Base seed; each cell derives its own via FNV-1a. *)
  lanes : int option;
      (** Must be [None] or [Some 1]: there is no batched stepping, and
          {!Worker.cells_of_request} rejects any other value. Parsed so
          that frames from clients that still send it decode. *)
  shards : int;
      (** Historical: the static-shard count of an earlier daemon.
          Accepted (and round-tripped) for wire compatibility, but the
          dispatcher sizes workers from pending work, so the value no
          longer influences scheduling. *)
}

type request =
  | Submit of hunt_request
  | Watch  (** Subscribe to every request's metrics stream. *)
  | Status
  | Ping

type cell_status =
  | Cell_done of Run_journal.record  (** Ran live in a worker. *)
  | Cell_memo of Run_journal.record
      (** Served from a journal or from the run of another request that
          asked for the same cell, without re-running. Bit-identical to
          [Cell_done] of the same cell. *)
  | Cell_quarantined of { code : string; message : string; attempts : int }

type status_info = {
  active : int;  (** Long-lived worker processes currently alive. *)
  queued : int;  (** Cells pending dispatch. *)
  workers : int;  (** The daemon's concurrent-worker budget. *)
  memo_served : int;
      (** Cells answered with a memo without a dispatch of their own,
          since startup: journal records, and waiters on another
          request's run. *)
  worker_retries : int;  (** Cells re-queued after their worker died. *)
}

(** Server-to-client frames. A worker answers its assignment with the
    [Cell] frame the owning request's client receives. *)
type response =
  | Accepted of { req : string; cells : string list }
  | Rejected of { reason : string }
  | Cell of { req : string; approach : string; label : string; status : cell_status }
  | Done of { req : string; retries : int; quarantined : int }
  | Status_info of status_info
  | Pong

(** One cell of work, daemon to worker: the only frame on a worker's
    input pipe, whose EOF tells the worker to exit. A [cell-assign] frame
    carries the submit fields of a one-approach request rather than a
    serialised config: the worker expands them through
    {!Worker.cells_of_request} exactly as `submit` and in-process `hunt`
    do, so an assigned cell's config — and therefore its journal key and
    result bytes — cannot drift from the other entry points. *)
type assignment = {
  req : string;  (** The request that dispatched the cell. *)
  request : hunt_request;  (** Exactly one approach. *)
}

val is_metrics_line : string -> bool
(** Does this line belong to the metrics layer (starts with ["[avis]"])? *)

val render_request : request -> string
(** One line of JSON, no trailing newline. *)

val parse_request : string -> (request, string) result

val render_response : response -> string

val parse_response : string -> (response, string) result

val render_assignment : assignment -> string

val parse_assignment : string -> (assignment, string) result
