open Avis_core

type config = {
  socket_path : string;
  tcp_port : int option;
  journal_path : string;
  store_dir : string option;
  workers : int;
  jobs : int;
}

let default_config () =
  {
    socket_path = "avis-huntd.sock";
    tcp_port = None;
    journal_path = "avis-huntd-journal.jsonl";
    store_dir = None;
    workers = Avis_util.Pool.jobs_of_env ();
    jobs = 1;
  }

let worker_attempts = 3

let log fmt = Printf.eprintf ("[avis] huntd: " ^^ fmt ^^ "\n%!")

(* A slow or dead client must not wedge the daemon: writes are
   non-blocking with a bounded queue that sheds metrics lines first —
   control messages (results) are never dropped. *)
let max_queued_lines = 4096

type client = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (** Partial request line. *)
  outq : string Queue.t;  (** Newline-terminated lines pending write. *)
  mutable outbuf : string;  (** Partially written head line. *)
  mutable watching : bool;
}

type req_state = {
  id : string;
  mutable owner : Unix.file_descr option;
      (** The submitting client; [None] once it disconnects (the hunt
          still runs to completion — results live in the journal). *)
  mutable outstanding : int;
  mutable retries : int;
  mutable quarantined : int;
}

(* One cell from the submit that dispatched it until a worker answers
   or it is quarantined. The assignment is built once, so a re-dispatch
   after a worker loss re-sends the identical frame. *)
type job = {
  key : string;  (** The cell's {!Campaign.journal_key}. *)
  cell : Worker.cell;
  req : req_state;
      (** The request that dispatched it: it gets the worker's metrics
          lines and the worker's own [cell] frame. *)
  assignment : Wire.assignment;
  mutable dispatches : int;  (** Including the first. *)
  mutable waiters : req_state list;
      (** Later requests for the same key, newest first. *)
}

(* A cell since startup: its record once done, its job while queued or
   running. The on-disk journal covers everything before startup. *)
type entry = Completed of Run_journal.record | Open of job

type worker_proc = {
  pid : int;
  rpipe : Unix.file_descr;  (** Worker-to-daemon: results and metrics. *)
  wpipe : Unix.file_descr;  (** Daemon-to-worker: assignments. *)
  mutable wbuf : string;  (** Partial line from [rpipe]. *)
  mutable busy : job option;
      (** The cell assigned and not yet reported; [None] while idle,
          which a worker is from its fork until its first assignment. *)
}

type state = {
  cfg : config;
  journal : Run_journal.t;
  cells : (string, entry) Hashtbl.t;  (** By journal key. *)
  listeners : Unix.file_descr list;
  clients : (Unix.file_descr, client) Hashtbl.t;
  workers : (Unix.file_descr, worker_proc) Hashtbl.t;  (** By [rpipe]. *)
  mutable queue : job list;
      (** Oldest first: a submit appends its jobs, a re-queued job goes
          back to the head. *)
  mutable reqs : req_state list;
  mutable req_counter : int;
  mutable memo_served : int;
  mutable worker_retries : int;
}

(* ------------------------------------------------------------------ *)
(* Client output                                                        *)
(* ------------------------------------------------------------------ *)

let disconnect st (c : client) =
  Hashtbl.remove st.clients c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  List.iter
    (fun rq -> if rq.owner = Some c.fd then rq.owner <- None)
    st.reqs

let rec flush_client st (c : client) =
  if not (Hashtbl.mem st.clients c.fd) then ()
  else if c.outbuf <> "" then (
    match Unix.write_substring c.fd c.outbuf 0 (String.length c.outbuf) with
    | n ->
      c.outbuf <- String.sub c.outbuf n (String.length c.outbuf - n);
      if c.outbuf = "" then flush_client st c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> disconnect st c)
  else
    match Queue.take_opt c.outq with
    | Some line ->
      c.outbuf <- line;
      flush_client st c
    | None -> ()

let enqueue st (c : client) line =
  if
    Queue.length c.outq < max_queued_lines || not (Wire.is_metrics_line line)
  then begin
    Queue.add (line ^ "\n") c.outq;
    flush_client st c
  end

let send_to fd st line =
  match Hashtbl.find_opt st.clients fd with
  | Some c -> enqueue st c line
  | None -> ()

(* Owner plus every watcher (watchers see all requests' streams). *)
let broadcast st (rq : req_state) line =
  (match rq.owner with Some fd -> send_to fd st line | None -> ());
  Hashtbl.iter
    (fun fd c -> if c.watching && Some fd <> rq.owner then enqueue st c line)
    st.clients

let finish_req_if_done st rq =
  if rq.outstanding = 0 then begin
    broadcast st rq
      (Wire.render_response
         (Wire.Done
            { req = rq.id; retries = rq.retries; quarantined = rq.quarantined }));
    st.reqs <- List.filter (fun r -> r != rq) st.reqs;
    log "%s done (%d retrie(s), %d quarantined)" rq.id rq.retries
      rq.quarantined
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let spawn st =
  let dir_r, dir_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* Worker child: drop every parent fd except its two pipe ends —
       including other workers' assignment pipes, or closing one there
       would never deliver its EOF — restore default signal
       dispositions, serve cells, and _exit without running the parent's
       at_exit handlers. *)
    Unix.close dir_w;
    Unix.close res_r;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.listeners;
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) st.clients;
    Hashtbl.iter
      (fun _ w ->
        (try Unix.close w.rpipe with Unix.Unix_error _ -> ());
        try Unix.close w.wpipe with Unix.Unix_error _ -> ())
      st.workers;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    (try Worker.serve ~journal_path:st.cfg.journal_path ~input:dir_r ~out:res_w
     with e ->
       Printf.eprintf "[avis] huntd worker: uncaught %s\n%!"
         (Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close dir_r;
    Unix.close res_w;
    Hashtbl.replace st.workers res_r
      { pid; rpipe = res_r; wpipe = dir_w; wbuf = ""; busy = None };
    log "worker pid=%d forked" pid

let maybe_spawn st =
  let live = Hashtbl.length st.workers in
  let idle =
    Hashtbl.fold
      (fun _ w acc -> if Option.is_none w.busy then acc + 1 else acc)
      st.workers 0
  in
  let n =
    Worker.fork_budget ~limit:st.cfg.workers ~live ~idle
      ~pending:(List.length st.queue)
  in
  for _ = 1 to n do
    spawn st
  done

let cell_frame (rq : req_state) (cell : Worker.cell) status =
  Wire.render_response
    (Wire.Cell
       {
         req = rq.id;
         approach = cell.Worker.approach;
         label = cell.Worker.label;
         status;
       })

(* Answer one of [rq]'s cells with [line], its rendered [cell] frame. *)
let answer st rq status line =
  rq.outstanding <- rq.outstanding - 1;
  (match status with
  | Wire.Cell_quarantined _ -> rq.quarantined <- rq.quarantined + 1
  | Wire.Cell_done _ | Wire.Cell_memo _ -> ());
  broadcast st rq line;
  finish_req_if_done st rq

(* Answer [rq]'s [cell] with a completed record, without dispatching. *)
let serve_memo st rq (cell : Worker.cell) record =
  st.memo_served <- st.memo_served + 1;
  broadcast st rq
    (Avis_util.Metrics.line
       ~tags:[ ("req", rq.id) ]
       ~event:"memo"
       (Campaign.snapshot cell.Worker.config ~approach:cell.Worker.approach
          ~wall_s:0.0 (Campaign.Memo record)));
  let status = Wire.Cell_memo record in
  answer st rq status (cell_frame rq cell status)

(* A job ended with [status]: its request gets [line] (the worker's own
   frame, or the daemon's quarantine), and each waiter a memo of the
   same record or the same quarantine. *)
let end_job st job status line =
  (match status with
  | Wire.Cell_done record | Wire.Cell_memo record ->
    Hashtbl.replace st.cells job.key (Completed record)
  | Wire.Cell_quarantined _ -> Hashtbl.remove st.cells job.key);
  answer st job.req status line;
  List.iter
    (fun rq ->
      match status with
      | Wire.Cell_done record | Wire.Cell_memo record ->
        serve_memo st rq job.cell record
      | Wire.Cell_quarantined _ ->
        answer st rq status (cell_frame rq job.cell status))
    (List.rev job.waiters)

(* A worker's result pipe hit EOF, or its assignment pipe refused a write:
   reap it, then re-queue its busy job, if any, with its waiters (each
   request on the job counts the retry) —
   everything it already reported is done, everything still queued was
   never its problem. The job goes back to the head of the queue and is
   quarantined only once its own dispatch budget is spent. *)
let reap st (w : worker_proc) =
  Hashtbl.remove st.workers w.rpipe;
  (try Unix.close w.rpipe with Unix.Unix_error _ -> ());
  (try Unix.close w.wpipe with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  match w.busy with
  | None -> ()
  | Some job when job.dispatches < worker_attempts ->
    List.iter (fun rq -> rq.retries <- rq.retries + 1) (job.req :: job.waiters);
    st.worker_retries <- st.worker_retries + 1;
    log "worker pid=%d lost mid-cell; re-queueing cell %s (dispatch %d/%d)"
      w.pid job.cell.Worker.label (job.dispatches + 1) worker_attempts;
    st.queue <- job :: st.queue
  | Some job ->
    log "worker pid=%d lost; quarantining cell %s after %d dispatch(es)" w.pid
      job.cell.Worker.label job.dispatches;
    let status =
      Wire.Cell_quarantined
        {
          code = "WORKER-LOST";
          message =
            Printf.sprintf
              "worker process died before reporting this cell (%d \
               dispatch(es))"
              job.dispatches;
          attempts = job.dispatches;
        }
    in
    end_job st job status (cell_frame job.req job.cell status)

(* A worker is written one assignment only while idle, so the pipe never
   holds more than one short line and the write cannot block for long. *)
let write_assignment (w : worker_proc) a =
  match Worker.write_line w.wpipe (Wire.render_assignment a) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* Hand the oldest queued jobs to idle workers. Every dispatch decision
   goes through here, so arrival order is a property of the queue, not of
   any caller. A failed write means the worker died while idle: reap it
   now (it holds no job) and keep the job at the head. *)
let rec assign_pending st =
  match st.queue with
  | [] -> ()
  | job :: rest -> (
    let idle =
      Hashtbl.fold
        (fun _ w acc ->
          match acc with
          | Some _ -> acc
          | None -> if Option.is_none w.busy then Some w else None)
        st.workers None
    in
    match idle with
    | None -> ()
    | Some w ->
      if write_assignment w job.assignment then begin
        st.queue <- rest;
        job.dispatches <- job.dispatches + 1;
        w.busy <- Some job
      end
      else reap st w;
      assign_pending st)

(* A worker runs one cell at a time, and its pipe delivers that cell's
   metrics lines before its result, so a line belongs to the request
   that dispatched its job. A line from an idle worker still reaches
   watchers (it is diagnostic output, not protocol state). *)
let relay_metrics st (w : worker_proc) line =
  match w.busy with
  | Some job -> broadcast st job.req line
  | None ->
    Hashtbl.iter (fun _ c -> if c.watching then enqueue st c line) st.clients

(* A worker answers its job with the [cell] frame the job's request
   receives, forwarded unchanged. *)
let handle_worker_line st (w : worker_proc) line =
  if Wire.is_metrics_line line then relay_metrics st w line
  else
    match (w.busy, Wire.parse_response line) with
    | Some job, Ok (Wire.Cell { req; status; _ }) when req = job.req.id ->
      w.busy <- None;
      end_job st job status line
    | _ -> log "ignoring unexpected line from worker pid=%d: %s" w.pid line

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

(* Each cell is served from a completed record, attached to the open
   job of its key, or queued as a new job: one dispatch per key however
   many requests ask for it. *)
let submit st (c : client) (r : Wire.hunt_request) =
  match Worker.cells_of_request r with
  | Error reason -> enqueue st c (Wire.render_response (Wire.Rejected { reason }))
  | Ok cells ->
    st.req_counter <- st.req_counter + 1;
    let rq =
      {
        id = Printf.sprintf "r%d" st.req_counter;
        owner = Some c.fd;
        outstanding = List.length cells;
        retries = 0;
        quarantined = 0;
      }
    in
    st.reqs <- rq :: st.reqs;
    enqueue st c
      (Wire.render_response
         (Wire.Accepted
            { req = rq.id; cells = List.map (fun cl -> cl.Worker.label) cells }));
    log "%s accepted from client: %d cell(s)" rq.id (List.length cells);
    List.iter
      (fun (cell : Worker.cell) ->
        let key =
          Campaign.journal_key st.journal cell.Worker.config
            ~approach:cell.Worker.approach
        in
        match Hashtbl.find_opt st.cells key with
        | Some (Completed record) -> serve_memo st rq cell record
        | Some (Open job) -> job.waiters <- rq :: job.waiters
        | None -> (
          match Run_journal.find st.journal ~key with
          | Some record -> serve_memo st rq cell record
          | None ->
            let request =
              { r with Wire.approaches = [ cell.Worker.approach ] }
            in
            let job =
              {
                key;
                cell;
                req = rq;
                assignment = { Wire.req = rq.id; request };
                dispatches = 0;
                waiters = [];
              }
            in
            Hashtbl.replace st.cells key (Open job);
            st.queue <- st.queue @ [ job ]))
      cells;
    maybe_spawn st;
    assign_pending st

let handle_request st (c : client) line =
  match Wire.parse_request line with
  | Error reason -> enqueue st c (Wire.render_response (Wire.Rejected { reason }))
  | Ok Wire.Ping -> enqueue st c (Wire.render_response Wire.Pong)
  | Ok Wire.Watch -> c.watching <- true
  | Ok Wire.Status ->
    enqueue st c
      (Wire.render_response
         (Wire.Status_info
            {
              active = Hashtbl.length st.workers;
              queued = List.length st.queue;
              workers = st.cfg.workers;
              memo_served = st.memo_served;
              worker_retries = st.worker_retries;
            }))
  | Ok (Wire.Submit r) -> submit st c r

(* ------------------------------------------------------------------ *)
(* The event loop                                                       *)
(* ------------------------------------------------------------------ *)

let split_lines buf data =
  let all = buf ^ data in
  let rec go start acc =
    match String.index_from_opt all start '\n' with
    | Some i -> go (i + 1) (String.sub all start (i - start) :: acc)
    | None -> (List.rev acc, String.sub all start (String.length all - start))
  in
  go 0 []

let read_chunk fd =
  let buf = Bytes.create 65536 in
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> `Eof
  | n -> `Data (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Data ""
  | exception Unix.Unix_error _ -> `Eof

let handle_readable st fd =
  if List.mem fd st.listeners then begin
    match Unix.accept fd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      Hashtbl.replace st.clients cfd
        {
          fd = cfd;
          inbuf = "";
          outq = Queue.create ();
          outbuf = "";
          watching = false;
        }
    | exception Unix.Unix_error _ -> ()
  end
  else
    match Hashtbl.find_opt st.clients fd with
    | Some c -> (
      match read_chunk fd with
      | `Eof -> disconnect st c
      | `Data data ->
        let lines, rest = split_lines c.inbuf data in
        c.inbuf <- rest;
        List.iter
          (fun line -> if String.trim line <> "" then handle_request st c line)
          lines)
    | None -> (
      match Hashtbl.find_opt st.workers fd with
      | Some w -> (
        match read_chunk fd with
        | `Eof -> reap st w
        | `Data data ->
          let lines, rest = split_lines w.wbuf data in
          w.wbuf <- rest;
          List.iter (fun line -> handle_worker_line st w line) lines)
      | None -> ())

let serve cfg =
  if cfg.jobs <> 1 then
    invalid_arg "Hunt_service.serve: jobs must be 1 (a worker runs one cell)";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let on_stop = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop;
  (match cfg.store_dir with
  | Some dir -> Unix.putenv "AVIS_STORE_DIR" dir
  | None -> ());
  (* Open (and thereby create) the journal before any fork, so workers
     only ever see an existing file with a valid header. *)
  let journal = Run_journal.open_ cfg.journal_path in
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let unix_l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_l (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen unix_l 16;
  let tcp_l =
    Option.map
      (fun port ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen s 16;
        s)
      cfg.tcp_port
  in
  let st =
    {
      cfg;
      journal;
      cells = Hashtbl.create 64;
      listeners = unix_l :: Option.to_list tcp_l;
      clients = Hashtbl.create 16;
      workers = Hashtbl.create 16;
      queue = [];
      reqs = [];
      req_counter = 0;
      memo_served = 0;
      worker_retries = 0;
    }
  in
  log "listening on %s%s (journal %s: %d memo(s); %d worker(s))"
    cfg.socket_path
    (match cfg.tcp_port with
    | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
    | None -> "")
    cfg.journal_path
    (Run_journal.completed_count journal)
    (max 1 cfg.workers);
  while not !stop do
    maybe_spawn st;
    assign_pending st;
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    let worker_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.workers [] in
    let writable_wanted =
      Hashtbl.fold
        (fun fd c acc ->
          if c.outbuf <> "" || not (Queue.is_empty c.outq) then fd :: acc
          else acc)
        st.clients []
    in
    match
      Unix.select
        (st.listeners @ client_fds @ worker_fds)
        writable_wanted [] 0.2
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter (fun fd -> handle_readable st fd) readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt st.clients fd with
          | Some c -> flush_client st c
          | None -> ())
        writable
  done;
  log "shutting down: %d worker(s) to stop" (Hashtbl.length st.workers);
  Hashtbl.iter
    (fun _ w ->
      (* Closing the assignment pipe is the drain signal; SIGTERM then
         stops any still-running campaign rather than waiting it out. *)
      (try Unix.close w.wpipe with Unix.Unix_error _ -> ());
      (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
      try Unix.close w.rpipe with Unix.Unix_error _ -> ())
    st.workers;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) st.clients;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.listeners;
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path
