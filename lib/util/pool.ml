type shared = {
  queue : (unit -> unit) Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable wait_total_s : float;
      (** Cumulative seconds jobs sat queued before a worker picked them
          up — the scheduler-health number: a busy pool with near-zero
          queue wait is saturated by work, not by dispatch. *)
}

type t =
  | Inline of {
      mutable closed : bool;
      mutable failure : (exn * Printexc.raw_backtrace) option;
    }
  | Crew of { shared : shared; workers : unit Domain.t list; njobs : int }

let record_wait shared wait_s =
  Mutex.lock shared.mutex;
  shared.wait_total_s <- shared.wait_total_s +. wait_s;
  Mutex.unlock shared.mutex;
  Trace.counter "pool.queue_wait_s" wait_s

let run_job shared job =
  try Trace.span ~cat:"pool" "pool.job" job
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock shared.mutex;
    if shared.failure = None then shared.failure <- Some (e, bt);
    Mutex.unlock shared.mutex

let worker shared () =
  let rec loop () =
    Mutex.lock shared.mutex;
    while Queue.is_empty shared.queue && not shared.closed do
      Condition.wait shared.not_empty shared.mutex
    done;
    match Queue.take_opt shared.queue with
    | None ->
      (* Closed and drained. *)
      Mutex.unlock shared.mutex
    | Some job ->
      Condition.signal shared.not_full;
      Mutex.unlock shared.mutex;
      run_job shared job;
      loop ()
  in
  loop ()

let create ~jobs =
  if jobs <= 1 then Inline { closed = false; failure = None }
  else begin
    let shared =
      {
        queue = Queue.create ();
        capacity = 2 * jobs;
        mutex = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        closed = false;
        failure = None;
        wait_total_s = 0.0;
      }
    in
    let workers = List.init jobs (fun _ -> Domain.spawn (worker shared)) in
    Crew { shared; workers; njobs = jobs }
  end

let jobs = function Inline _ -> 1 | Crew { njobs; _ } -> njobs

let queue_wait_s = function
  | Inline _ -> 0.0
  | Crew { shared; _ } ->
    Mutex.lock shared.mutex;
    let w = shared.wait_total_s in
    Mutex.unlock shared.mutex;
    w

let submit t job =
  match t with
  | Inline i ->
    if i.closed then invalid_arg "Pool.submit: pool is closed";
    (* An inline job runs during submit: its queue wait is zero by
       construction. Emitted anyway so jobs=1 traces carry the counter. *)
    Trace.counter "pool.queue_wait_s" 0.0;
    (* Capture instead of raising here: [jobs = 1] must behave like
       [jobs > 1], where a failure only surfaces at [close_and_wait]. *)
    (try Trace.span ~cat:"pool" "pool.job" job
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       if i.failure = None then i.failure <- Some (e, bt))
  | Crew { shared; _ } ->
    Mutex.lock shared.mutex;
    if shared.closed then begin
      Mutex.unlock shared.mutex;
      invalid_arg "Pool.submit: pool is closed"
    end;
    while Queue.length shared.queue >= shared.capacity && not shared.closed do
      Condition.wait shared.not_full shared.mutex
    done;
    (* The pool may have been closed while we were blocked on [not_full]:
       enqueueing now could land the job after the workers have drained the
       queue and exited, silently dropping it (and starving [Pool.map] of a
       result). Refuse, exactly as if the submit had arrived late. *)
    if shared.closed then begin
      Mutex.unlock shared.mutex;
      invalid_arg "Pool.submit: pool is closed"
    end;
    let enqueued_at = Metrics.now_s () in
    Queue.push
      (fun () ->
        record_wait shared (Metrics.now_s () -. enqueued_at);
        job ())
      shared.queue;
    Trace.counter "pool.queue_depth" (float_of_int (Queue.length shared.queue));
    Condition.signal shared.not_empty;
    Mutex.unlock shared.mutex

let close_and_wait t =
  match t with
  | Inline i ->
    i.closed <- true;
    let failure = i.failure in
    i.failure <- None;
    (match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ())
  | Crew { shared; workers; _ } ->
    Mutex.lock shared.mutex;
    let first = not shared.closed in
    shared.closed <- true;
    Condition.broadcast shared.not_empty;
    Condition.broadcast shared.not_full;
    Mutex.unlock shared.mutex;
    (* Only the close that flipped [closed] joins the workers and may
       re-raise; every later close is a no-op. The failure is consumed
       under the mutex and only after the join, so a concurrent second
       close can neither steal it nor observe a half-written one. *)
    if first then begin
      List.iter Domain.join workers;
      Mutex.lock shared.mutex;
      let failure = shared.failure in
      shared.failure <- None;
      Mutex.unlock shared.mutex;
      match failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

(* LPT (longest-processing-time-first) list scheduling: feed the heaviest
   work to the pool first so a long item starts on a fresh worker instead
   of landing last on a drained queue and straggling alone. Results come
   back in input order, so callers are order-blind to the reordering. *)
let map_lpt ~jobs ~weight f items =
  match items with
  | [] -> []
  | items ->
    let arr = Array.of_list items in
    let n = Array.length arr in
    let w = Array.map weight arr in
    let order = Array.init n (fun i -> i) in
    (* Heaviest first; ties keep arrival order, so a weight function that
       knows nothing (all equal) degrades to plain [map]. *)
    Array.sort
      (fun a b -> match compare w.(b) w.(a) with 0 -> compare a b | c -> c)
      order;
    let results = Array.make n None in
    let pool = create ~jobs:(min jobs n) in
    Array.iter
      (fun i -> submit pool (fun () -> results.(i) <- Some (f arr.(i))))
      order;
    close_and_wait pool;
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None ->
           (* Only reachable when a sibling job raised first. *)
           failwith "Pool.map_lpt: job did not complete")

(* Constant weights tie everywhere, and ties keep input order. *)
let map ~jobs f items = map_lpt ~jobs ~weight:(fun _ -> 0.0) f items

let default_jobs () = Domain.recommended_domain_count ()

let jobs_of_env ?(var = "AVIS_JOBS") () =
  Env.positive_int ~var ~default:(default_jobs ()) ()
