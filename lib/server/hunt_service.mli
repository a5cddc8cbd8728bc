(** The hunt daemon: a long-lived, multi-tenant campaign service.

    [serve] listens on a Unix-domain stream socket (and optionally a
    loopback TCP port), accepts newline-delimited {!Wire} requests from
    any number of clients, and dispatches submitted cells from one
    pending queue, oldest first, to long-lived forked workers that each
    run one cell at a time. Per-cell progress streams back to the
    submitting client (and to [watch] subscribers) as request-tagged
    {!Avis_util.Metrics} lines; results arrive as journal records.
    Dispatch only decides when a cell starts: per-cell seeding keeps
    every result's bytes identical whatever the order.

    {2 Crash behaviour}

    Every completed cell is appended to the daemon's {!Avis_core.Run_journal}
    by the worker that ran it, before it is reported. A worker that dies
    mid-cell (crash, OOM-kill, [SIGKILL]) costs exactly the one cell it
    was running: that cell goes back to the head of the queue and is
    re-dispatched to any live worker, up to {!worker_attempts}
    dispatches, after which it is quarantined with code [WORKER-LOST]
    instead of wedging the daemon. Cells the dead worker already
    reported are done; cells still queued were never its problem. A
    killed {e daemon} resumes the same way: restart it on the same
    journal and resubmit.

    The parent process stays single-domain (a [select] loop, no {!Pool}),
    which is what makes the [fork] per worker safe under OCaml 5. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** Also listen on 127.0.0.1:port. *)
  journal_path : string;  (** The shared campaign memo journal. *)
  store_dir : string option;
      (** Exported to workers as [AVIS_STORE_DIR]: one content-addressed
          checkpoint store shared by every worker process. *)
  workers : int;  (** Concurrent worker processes. *)
  jobs : int;
      (** Cells per worker at once. Must be 1; kept so that callers
          building this record literally still compile. *)
}

val default_config : unit -> config
(** [avis-huntd.sock] in the working directory, no TCP, journal
    [avis-huntd-journal.jsonl], no store, [workers] from
    {!Avis_util.Pool.jobs_of_env}, [jobs = 1]. *)

val worker_attempts : int
(** Times one cell is dispatched before it is quarantined (3). *)

val serve : config -> unit
(** Run the daemon until [SIGTERM]/[SIGINT]. Logs lifecycle events to
    stderr — including one [worker pid=N] line per fork, which is how the
    crash-recovery smoke test picks a victim, and one [re-queueing cell]
    line per cell a lost worker was running. Removes a stale socket file
    at startup and unlinks it on shutdown. Raises [Invalid_argument]
    unless [jobs] is 1. *)
