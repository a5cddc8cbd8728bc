(* The hunt daemon: wire-protocol round trips, request expansion, and a
   live end-to-end session against a forked daemon.

   The end-to-end test is the library-level version of CI's daemon smoke
   job: fork [Hunt_service.serve], submit the same tiny hunt twice over
   the socket, and require the memo-served record to be byte-identical to
   the live one — the acceptance bar for the whole service. *)

open Avis_core
open Avis_server

let temp_counter = ref 0

let temp_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-server-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Wire round trips                                                     *)
(* ------------------------------------------------------------------ *)

let sample_request =
  {
    Wire.firmware = "apm";
    workload = "quickstart";
    approaches = [ "random"; "avis" ];
    (* Not representable in decimal: the bits must survive the wire. *)
    budget_s = 0.1 +. 0.2;
    seed = 42;
    lanes = None;
    shards = 2;
  }

let sample_record =
  {
    Run_journal.key = "abcdef0123456789";
    label = "random/ArduPilot/quickstart";
    simulations = 17;
    inferences = 3;
    spent_bits = Int64.bits_of_float 123.456;
    elapsed_bits = Some (Int64.bits_of_float 7.89);
    findings =
      [
        {
          Run_journal.simulation_index = 9;
          description = "a finding with spaces, \"quotes\" and \\ slashes";
          bucket = "Takeoff";
          bugs = [ "AV-3"; "AV-7" ];
        };
      ];
  }

let check_request r =
  match Wire.parse_request (Wire.render_request r) with
  | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
  | Error e -> Alcotest.failf "request did not parse back: %s" e

let check_response r =
  match Wire.parse_response (Wire.render_response r) with
  | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
  | Error e -> Alcotest.failf "response did not parse back: %s" e

let test_wire_request_roundtrip () =
  check_request (Wire.Submit sample_request);
  (* Frames from clients that still send the obsolete lanes field parse;
     [Worker.cells_of_request] then rejects them. *)
  check_request (Wire.Submit { sample_request with Wire.lanes = Some 4 });
  check_request Wire.Watch;
  check_request Wire.Status;
  check_request Wire.Ping

let test_wire_response_roundtrip () =
  check_response (Wire.Accepted { req = "r1"; cells = [ "a/b/c"; "d/e/f" ] });
  check_response (Wire.Rejected { reason = "unknown workload \"x\"" });
  check_response
    (Wire.Cell
       {
         req = "r1";
         approach = "random";
         label = "random/ArduPilot/quickstart";
         status = Wire.Cell_done sample_record;
       });
  check_response
    (Wire.Cell
       {
         req = "r1";
         approach = "random";
         label = "random/ArduPilot/quickstart";
         status = Wire.Cell_memo sample_record;
       });
  check_response
    (Wire.Cell
       {
         req = "r2";
         approach = "avis";
         label = "avis/PX4/auto-box";
         status =
           Wire.Cell_quarantined
             { code = "WORKER-LOST"; message = "worker died"; attempts = 3 };
       });
  check_response (Wire.Done { req = "r1"; retries = 1; quarantined = 0 });
  check_response
    (Wire.Status_info
       {
         active = 2;
         queued = 1;
         workers = 4;
         memo_served = 7;
         worker_retries = 1;
       });
  check_response Wire.Pong

let test_wire_rejects () =
  List.iter
    (fun line ->
      match Wire.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad request line: %s" line)
    [
      "";
      "not json";
      "{}";
      {|{"op":"fly"}|};
      (* Submit with a missing field and with malformed budget bits. *)
      {|{"op":"submit","firmware":"apm","workload":"quickstart","approaches":["random"],"seed":1,"shards":1}|};
      {|{"op":"submit","firmware":"apm","workload":"quickstart","approaches":["random"],"budget_bits":"zz","seed":1,"shards":1}|};
    ];
  match Wire.parse_response {|{"type":"cell","req":"r1"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a cell response without a status"

let sample_assignment =
  {
    Wire.req = "r7";
    request = { sample_request with Wire.approaches = [ "avis" ] };
  }

let test_wire_directive_roundtrip () =
  (match
     Wire.parse_assignment (Wire.render_assignment sample_assignment)
   with
  | Ok a ->
    Alcotest.(check bool) "assignment round-trips" true (a = sample_assignment)
  | Error e -> Alcotest.failf "assignment did not parse back: %s" e);
  List.iter
    (fun line ->
      match Wire.parse_assignment line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad assignment line: %s" line)
    [
      "not json";
      {|{"op":"cell-assign","req":"r1"}|};
      {|{"op":"cell-assign","firmware":"apm","workload":"quickstart","approaches":["random"],"budget_bits":"4034000000000000","seed":1,"shards":1}|};
      Wire.render_request (Wire.Submit sample_request);
    ]

(* The worker expands an assignment's request through the same
   validation as a submit, so its cell config cannot drift from what
   submit/hunt would build. *)
let test_assignment_rebuilds_config () =
  let assigned =
    match
      Wire.parse_assignment (Wire.render_assignment sample_assignment)
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "assignment did not parse back: %s" e
  in
  (match
     ( Worker.cells_of_request sample_request,
       Worker.cells_of_request assigned.Wire.request )
   with
  | Ok [ _; submitted ], Ok [ cell ] ->
    (* Configs carry closures (workload scenarios), so compare their
       canonical journal-identity bytes instead of the values. *)
    Alcotest.(check string) "assignment rebuilds the request's config"
      (Campaign.journal_identity submitted.Worker.config ~approach:"avis")
      (Campaign.journal_identity cell.Worker.config ~approach:"avis");
    Alcotest.(check string) "same label" submitted.Worker.label
      cell.Worker.label
  | Ok _, Ok _ -> Alcotest.fail "request or assignment expanded wrongly"
  | Error e, _ | _, Error e -> Alcotest.failf "expansion rejected: %s" e);
  match
    Worker.cells_of_request
      { sample_assignment.Wire.request with Wire.approaches = [ "teleport" ] }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown approach"

(* [idle] counts live workers not running a cell, so it is at most [live]. *)
let test_fork_budget () =
  let check name want ~limit ~live ~idle ~pending =
    Alcotest.(check int) name want (Worker.fork_budget ~limit ~live ~idle ~pending)
  in
  check "no pending work forks nothing" 0 ~limit:4 ~live:0 ~idle:0 ~pending:0;
  check "pending work forks up to the limit" 4 ~limit:4 ~live:0 ~idle:0
    ~pending:9;
  check "live workers count against the limit" 2 ~limit:4 ~live:2 ~idle:0
    ~pending:9;
  check "idle workers take pending first" 2 ~limit:4 ~live:1 ~idle:1
    ~pending:3;
  check "enough idle workers fork nothing" 0 ~limit:4 ~live:3 ~idle:3
    ~pending:3;
  check "at the limit forks nothing" 0 ~limit:4 ~live:4 ~idle:0 ~pending:9;
  check "never negative" 0 ~limit:2 ~live:3 ~idle:3 ~pending:1;
  check "limit clamps to one" 1 ~limit:0 ~live:0 ~idle:0 ~pending:5

let test_wire_budget_bits_lossless () =
  List.iter
    (fun budget ->
      match
        Wire.parse_request
          (Wire.render_request
             (Wire.Submit { sample_request with Wire.budget_s = budget }))
      with
      | Ok (Wire.Submit r) ->
        Alcotest.(check bool)
          (Printf.sprintf "bits of %h preserved" budget)
          true
          (Int64.bits_of_float r.Wire.budget_s = Int64.bits_of_float budget)
      | Ok _ -> Alcotest.fail "parsed to a different request"
      | Error e -> Alcotest.failf "failed to parse: %s" e)
    [ 7200.0; 0.1; 1e-300; Float.pi; 4.9e-324 ]

let test_metrics_layer_split () =
  Alcotest.(check bool) "metrics prefix" true
    (Wire.is_metrics_line "[avis] event=progress cell=x");
  Alcotest.(check bool) "control line" false
    (Wire.is_metrics_line {|{"type":"pong"}|});
  Alcotest.(check bool) "short line" false (Wire.is_metrics_line "[avi")

(* ------------------------------------------------------------------ *)
(* Request expansion                                                    *)
(* ------------------------------------------------------------------ *)

let test_cells_of_request () =
  (match Worker.cells_of_request { sample_request with Wire.lanes = Some 1 } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unbatched lanes = 1 rejected: %s" e);
  (* Two names of one strategy are two cells with their own keys. *)
  (match
     Worker.cells_of_request
       { sample_request with Wire.approaches = [ "avis"; "sabre" ] }
   with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "avis,sabre did not expand to two cells"
  | Error e -> Alcotest.failf "avis,sabre rejected: %s" e);
  match Worker.cells_of_request sample_request with
  | Error e -> Alcotest.failf "valid request rejected: %s" e
  | Ok cells ->
    Alcotest.(check int) "one cell per approach" 2 (List.length cells);
    List.iter2
      (fun name (cell : Worker.cell) ->
        Alcotest.(check string) "approach" name cell.Worker.approach;
        Alcotest.(check string) "label"
          (Printf.sprintf "%s/ArduPilot/quickstart" name)
          cell.Worker.label;
        (* The exact seed and budget an in-process hunt would use. *)
        Alcotest.(check int) "seed"
          (Campaign.cell_seed ~base:42 ~policy:"ArduPilot"
             ~workload:"quickstart" ~approach:name ())
          cell.Worker.config.Campaign.seed;
        Alcotest.(check bool) "budget bits" true
          (Int64.bits_of_float cell.Worker.config.Campaign.budget_s
          = Int64.bits_of_float sample_request.Wire.budget_s))
      sample_request.Wire.approaches cells

let test_cells_of_request_rejects () =
  let expect_error label r =
    match Worker.cells_of_request r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  expect_error "unknown firmware"
    { sample_request with Wire.firmware = "betaflight" };
  expect_error "unknown workload"
    { sample_request with Wire.workload = "nope" };
  expect_error "unknown approach"
    { sample_request with Wire.approaches = [ "random"; "montecarlo" ] };
  expect_error "no approaches" { sample_request with Wire.approaches = [] };
  expect_error "zero budget" { sample_request with Wire.budget_s = 0.0 };
  expect_error "negative budget" { sample_request with Wire.budget_s = -1.0 };
  expect_error "infinite budget"
    { sample_request with Wire.budget_s = infinity };
  expect_error "nan budget" { sample_request with Wire.budget_s = nan };
  expect_error "batched lanes" { sample_request with Wire.lanes = Some 4 };
  expect_error "approach named twice"
    { sample_request with Wire.approaches = [ "random"; "avis"; "random" ] }

(* The client prints daemon results under the strategy's display name;
   the mapping must agree with what each strategy actually reports. *)
let test_display_names_match () =
  let config =
    {
      (Campaign.default_config Avis_firmware.Policy.apm Workload.quickstart) with
      Campaign.budget_s = 1.0;
    }
  in
  let _, ctx, _ = Campaign.profile_and_context config in
  List.iter
    (fun name ->
      match Worker.strategy_of_name name with
      | None -> Alcotest.failf "approach %s unresolvable" name
      | Some strategy ->
        Alcotest.(check string)
          (name ^ " display name")
          (strategy ctx).Search.name (Worker.display_name name))
    [ "avis"; "strat-bfi"; "bfi"; "random"; "dfs"; "bfs" ]

(* ------------------------------------------------------------------ *)
(* End to end against a forked daemon                                   *)
(* ------------------------------------------------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc req =
  output_string oc (Wire.render_request req ^ "\n");
  flush oc

(* Read control responses until [until] says stop, checking every
   interleaved metrics line parses and carries the request tag. *)
let read_until ~req ic until =
  let collected = ref [] in
  let rec go () =
    let line = input_line ic in
    if Wire.is_metrics_line line then begin
      (match Avis_util.Metrics.parse_line line with
      | Ok (_, _, tags) ->
        Alcotest.(check (option string))
          "metrics line tagged with the request id" (Some req)
          (List.assoc_opt "req" tags)
      | Error e -> Alcotest.failf "bad metrics line (%s): %s" e line);
      go ()
    end
    else
      match Wire.parse_response line with
      | Error e -> Alcotest.failf "bad control line (%s): %s" e line
      | Ok resp ->
        collected := resp :: !collected;
        if until resp then List.rev !collected else go ()
  in
  go ()

(* A submitted request's [accepted] line: its id. *)
let accepted_req ic request =
  match Wire.parse_response (input_line ic) with
  | Ok (Wire.Accepted { req; cells }) ->
    Alcotest.(check int) "accepted all cells"
      (List.length request.Wire.approaches)
      (List.length cells);
    req
  | Ok (Wire.Rejected { reason }) ->
    Alcotest.failf "daemon rejected the hunt: %s" reason
  | Ok _ -> Alcotest.fail "expected accepted/rejected first"
  | Error e -> Alcotest.failf "bad accept line: %s" e

(* Every control line of request [req] up to its [done]: its cells'
   statuses. *)
let statuses ic req =
  let responses =
    read_until ~req ic (function Wire.Done d -> d.req = req | _ -> false)
  in
  List.filter_map
    (function
      | Wire.Cell { req = r; status; _ } when r = req -> Some status
      | _ -> None)
    responses

let collect ic request = statuses ic (accepted_req ic request)

let submit_and_collect ic oc request =
  send oc (Wire.Submit request);
  collect ic request

let tiny_request =
  {
    Wire.firmware = "apm";
    workload = "quickstart";
    approaches = [ "random" ];
    budget_s = 20.0;
    seed = 3;
    lanes = None;
    shards = 1;
  }

let record_bytes r = Avis_util.Json.to_string (Run_journal.record_to_json r)

(* The measured duration is not part of a cell's result. *)
let result_bytes r = record_bytes { r with Run_journal.elapsed_bits = None }

(* Fork [Hunt_service.serve] with [workers] workers on a fresh journal in
   a temp dir, wait for its socket, run [f dir socket_path], then stop it. *)
let with_daemon ~workers f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket_path = Filename.concat dir "huntd.sock" in
  let cfg =
    {
      Hunt_service.socket_path;
      tcp_port = None;
      journal_path = Filename.concat dir "journal.jsonl";
      store_dir = None;
      workers;
      jobs = 1;
    }
  in
  let daemon =
    match Unix.fork () with
    | 0 ->
      (try Hunt_service.serve cfg with _ -> Unix._exit 1);
      Unix._exit 0
    | pid -> pid
  in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec await_socket n =
    if Sys.file_exists socket_path then ()
    else if n = 0 then Alcotest.fail "daemon never created its socket"
    else begin
      Unix.sleepf 0.05;
      await_socket (n - 1)
    end
  in
  await_socket 100;
  f dir socket_path

let test_daemon_end_to_end () =
  with_daemon ~workers:2 @@ fun _ socket_path ->
  let ic, oc = connect socket_path in
  send oc Wire.Ping;
  (match Wire.parse_response (input_line ic) with
  | Ok Wire.Pong -> ()
  | _ -> Alcotest.fail "no pong");
  (* Cold: the cell runs live in a worker. *)
  let live =
    match submit_and_collect ic oc tiny_request with
    | [ Wire.Cell_done r ] -> r
    | [ Wire.Cell_memo _ ] -> Alcotest.fail "cold submit served a memo"
    | other -> Alcotest.failf "expected one live cell, got %d" (List.length other)
  in
  Alcotest.(check bool) "live cell simulated" true
    (live.Run_journal.simulations > 0);
  (* Warm: same request again must be memo-served, byte-identical. *)
  (match submit_and_collect ic oc tiny_request with
  | [ Wire.Cell_memo r ] ->
    Alcotest.(check string) "memo bytes = live bytes" (record_bytes live)
      (record_bytes r)
  | [ Wire.Cell_done _ ] -> Alcotest.fail "warm submit re-ran the cell"
  | other -> Alcotest.failf "expected one memo cell, got %d" (List.length other));
  send oc Wire.Status;
  match Wire.parse_response (input_line ic) with
  | Ok (Wire.Status_info s) ->
    Alcotest.(check bool) "memo served counted" true (s.Wire.memo_served >= 1);
    (* A forked worker counts as idle before it reads its first
       assignment, so one cell forks one worker, not one per loop pass. *)
    Alcotest.(check int) "one cell forked one worker" 1 s.Wire.active
  | _ -> Alcotest.fail "no status"

(* A worker killed between its journal append and its result frame
   leaves a record that the daemon's own memo table never saw; the
   re-dispatched cell must be served from the journal by a worker. Here
   the record is written in-process before the daemon has forked any
   worker, so the daemon, whose journal was loaded at startup, dispatches
   the cell and a freshly forked worker finds the memo. *)
let test_worker_serves_foreign_memo () =
  with_daemon ~workers:1 @@ fun dir socket_path ->
  let cell =
    match Worker.cells_of_request tiny_request with
    | Ok [ cell ] -> cell
    | _ -> Alcotest.fail "request did not expand to one cell"
  in
  let written =
    match
      Campaign.run_cell
        ~journal:(Run_journal.open_ (Filename.concat dir "journal.jsonl"))
        ~emit:(fun ~event:_ _ -> ())
        cell.Worker.config ~approach:cell.Worker.approach
        ~strategy:cell.Worker.strategy
    with
    | Campaign.Live (_, record), _ -> record
    | _ -> Alcotest.fail "in-process cell did not run live"
  in
  let ic, oc = connect socket_path in
  send oc (Wire.Submit tiny_request);
  let req = accepted_req ic tiny_request in
  let rec read events =
    let line = input_line ic in
    if Wire.is_metrics_line line then
      match Avis_util.Metrics.parse_line line with
      | Ok (event, _, _) -> read (event :: events)
      | Error e -> Alcotest.failf "bad metrics line (%s): %s" e line
    else
      match Wire.parse_response line with
      | Ok (Wire.Cell { req = r; status; _ }) when r = req ->
        (status, List.rev events)
      | Ok _ -> read events
      | Error e -> Alcotest.failf "bad control line (%s): %s" e line
  in
  let status, events = read [] in
  (match status with
  | Wire.Cell_memo record ->
    Alcotest.(check string) "memo bytes = in-process bytes, elapsed included"
      (record_bytes written) (record_bytes record)
  | Wire.Cell_done _ -> Alcotest.fail "the worker re-ran a journalled cell"
  | Wire.Cell_quarantined { code; _ } ->
    Alcotest.failf "the cell was quarantined (%s)" code);
  Alcotest.(check int) "exactly one relayed memo line" 1
    (List.length (List.filter (( = ) "memo") events));
  Alcotest.(check bool) "no done line" false (List.mem "done" events);
  ignore (statuses ic req : Wire.cell_status list);
  send oc Wire.Status;
  match Wire.parse_response (input_line ic) with
  | Ok (Wire.Status_info s) ->
    Alcotest.(check int) "served by the worker, not the daemon" 0
      s.Wire.memo_served
  | _ -> Alcotest.fail "no status"

(* A worker runs one cell at a time; [jobs] survives in the config only
   for callers that build it literally. *)
let test_serve_rejects_jobs () =
  Alcotest.check_raises "jobs = 2 refused before anything is bound"
    (Invalid_argument
       "Hunt_service.serve: jobs must be 1 (a worker runs one cell)")
    (fun () ->
      Hunt_service.serve { (Hunt_service.default_config ()) with jobs = 2 })

(* Two requests whose cells share a label, the second submitted while
   the first runs: each must be answered with its own record, byte-equal
   to an in-process run of that request. Both go over one connection, so
   their frames arrive in the order the daemon sent them, and B's
   [accepted] must come before A's [cell] frame: otherwise A had ended
   before B arrived. A's budget keeps it running well past its first
   metrics line (a tiny cell's lines and result arrive together). *)
let test_daemon_same_label_requests () =
  with_daemon ~workers:1 @@ fun dir socket_path ->
  let req_a = { tiny_request with Wire.budget_s = 300.0; seed = 3 } in
  let req_b = { tiny_request with Wire.budget_s = 40.0; seed = 4 } in
  let ic, oc = connect socket_path in
  send oc (Wire.Submit req_a);
  let id_a = accepted_req ic req_a in
  (* A's first metrics line precedes its result, so A is still running. *)
  while not (Wire.is_metrics_line (input_line ic)) do
    ()
  done;
  send oc (Wire.Submit req_b);
  (* Every control frame up to both requests' [done], in arrival order. *)
  let rec read frames dones =
    if dones = 2 then List.rev frames
    else
      let line = input_line ic in
      if Wire.is_metrics_line line then read frames dones
      else
        match Wire.parse_response line with
        | Ok (Wire.Done _ as frame) -> read (frame :: frames) (dones + 1)
        | Ok frame -> read (frame :: frames) dones
        | Error e -> Alcotest.failf "bad control line (%s): %s" e line
  in
  let frames = read [] 0 in
  let rec accepted_before_a = function
    | Wire.Accepted _ :: _ -> true
    | Wire.Cell { req; _ } :: _ when req = id_a -> false
    | _ :: rest -> accepted_before_a rest
    | [] -> false
  in
  Alcotest.(check bool) "B accepted before A's cell frame" true
    (accepted_before_a frames);
  let live id =
    match
      List.filter_map
        (function
          | Wire.Cell { req; status; _ } when req = id -> Some status
          | _ -> None)
        frames
    with
    | [ Wire.Cell_done record ] -> record
    | _ -> Alcotest.fail "expected one live cell per request"
  in
  let got_a = live id_a in
  let got_b =
    match
      List.find_map
        (function Wire.Accepted { req; _ } -> Some req | _ -> None)
        frames
    with
    | Some id_b -> live id_b
    | None -> Alcotest.fail "B was not accepted"
  in
  (* Same build, so the same journal fingerprint and keys as the daemon. *)
  let journal = Run_journal.open_ (Filename.concat dir "in-process.jsonl") in
  let in_process r =
    match Worker.cells_of_request r with
    | Ok [ cell ] -> (
      match
        Campaign.run_cell ~journal
          ~emit:(fun ~event:_ _ -> ())
          cell.Worker.config ~approach:cell.Worker.approach
          ~strategy:cell.Worker.strategy
      with
      | Campaign.Live (_, record), _ -> record
      | _ -> Alcotest.fail "in-process cell did not run live")
    | _ -> Alcotest.fail "request did not expand to one cell"
  in
  Alcotest.(check string) "request A got A's record"
    (result_bytes (in_process req_a)) (result_bytes got_a);
  Alcotest.(check string) "request B got B's record"
    (result_bytes (in_process req_b)) (result_bytes got_b);
  Alcotest.(check bool) "the two records differ" true
    (result_bytes got_a <> result_bytes got_b)

(* Two workers, and request B submitted while request A's identical cell
   runs: the cell is dispatched once, and B is answered with a memo of
   A's record, elapsed time included. The cell's budget keeps it running
   well past its first metrics line (a tiny cell's lines and result
   arrive together). *)
let test_daemon_in_flight_runs_once () =
  let request = { tiny_request with Wire.budget_s = 300.0 } in
  with_daemon ~workers:2 @@ fun dir socket_path ->
  let ic_a, oc_a = connect socket_path in
  let ic_b, oc_b = connect socket_path in
  send oc_a (Wire.Submit request);
  let id_a = accepted_req ic_a request in
  (* A's first metrics line precedes its result, so A is still running. *)
  while not (Wire.is_metrics_line (input_line ic_a)) do
    ()
  done;
  send oc_b (Wire.Submit request);
  let got_b = collect ic_b request in
  let live =
    match statuses ic_a id_a with
    | [ Wire.Cell_done record ] -> record
    | _ -> Alcotest.fail "A's cell did not run live"
  in
  (match got_b with
  | [ Wire.Cell_memo record ] ->
    Alcotest.(check string) "B's memo = A's record, elapsed included"
      (record_bytes live) (record_bytes record)
  | _ -> Alcotest.fail "B's only cell frame is not a memo");
  send oc_b Wire.Status;
  (match Wire.parse_response (input_line ic_b) with
  | Ok (Wire.Status_info s) ->
    Alcotest.(check int) "one worker forked" 1 s.Wire.active
  | _ -> Alcotest.fail "no status");
  let complete_for_key line =
    match Avis_util.Json.of_string line with
    | Ok j ->
      Avis_util.Json.member "key" j
      = Some (Avis_util.Json.String live.Run_journal.key)
      && Avis_util.Json.member "complete" j = Some (Avis_util.Json.Bool true)
    | Error _ -> false
  in
  Alcotest.(check int) "one complete record for the key" 1
    (List.length
       (List.filter complete_for_key
          (In_channel.with_open_text (Filename.concat dir "journal.jsonl")
             In_channel.input_lines)))

(* One worker: while request A's cell runs, B (-b 60) and then C (-b 120)
   queue behind it. Cells start in arrival order, so B's cell frame must
   arrive before C's; a queue ordered by budget or predicted duration
   would start C first. *)
let test_daemon_arrival_order () =
  with_daemon ~workers:1 @@ fun _ socket_path ->
  let ic, oc = connect socket_path in
  List.iter
    (fun (approach, budget_s) ->
      send oc
        (Wire.Submit
           { tiny_request with Wire.approaches = [ approach ]; budget_s }))
    [ ("random", 600.0); ("dfs", 60.0); ("bfs", 120.0) ];
  let rec read ~accepted ~cells ~done_ =
    if done_ = 3 then (List.rev accepted, List.rev cells)
    else
      let line = input_line ic in
      if Wire.is_metrics_line line then read ~accepted ~cells ~done_
      else
        match Wire.parse_response line with
        | Ok (Wire.Accepted { req; _ }) ->
          read ~accepted:(req :: accepted) ~cells ~done_
        | Ok (Wire.Cell { req; status = Wire.Cell_done _; _ }) ->
          read ~accepted ~cells:(req :: cells) ~done_
        | Ok (Wire.Done _) -> read ~accepted ~cells ~done_:(done_ + 1)
        | Ok _ -> Alcotest.failf "unexpected control line: %s" line
        | Error e -> Alcotest.failf "bad control line (%s): %s" e line
  in
  let accepted, cells = read ~accepted:[] ~cells:[] ~done_:0 in
  Alcotest.(check (list string)) "cells finish in submission order" accepted
    cells

let () =
  Alcotest.run "avis server"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_wire_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_wire_response_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_wire_rejects;
          Alcotest.test_case "budget crosses as bits" `Quick
            test_wire_budget_bits_lossless;
          Alcotest.test_case "directive round-trip" `Quick
            test_wire_directive_roundtrip;
          Alcotest.test_case "metrics/control layering" `Quick
            test_metrics_layer_split;
        ] );
      ( "worker",
        [
          Alcotest.test_case "cells mirror hunt's configs" `Quick
            test_cells_of_request;
          Alcotest.test_case "invalid requests rejected" `Quick
            test_cells_of_request_rejects;
          Alcotest.test_case "assignments rebuild request configs" `Quick
            test_assignment_rebuilds_config;
          Alcotest.test_case "fork budget" `Quick test_fork_budget;
          Alcotest.test_case "display names match strategies" `Quick
            test_display_names_match;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end: live then memo, same bytes" `Quick
            test_daemon_end_to_end;
          Alcotest.test_case "same-label requests get their own records"
            `Quick test_daemon_same_label_requests;
          Alcotest.test_case "a cell in flight is dispatched once" `Quick
            test_daemon_in_flight_runs_once;
          Alcotest.test_case "cells start in arrival order" `Quick
            test_daemon_arrival_order;
          Alcotest.test_case "a worker serves a memo it did not write" `Quick
            test_worker_serves_foreign_memo;
          Alcotest.test_case "serve rejects jobs other than 1" `Quick
            test_serve_rejects_jobs;
        ] );
    ]
