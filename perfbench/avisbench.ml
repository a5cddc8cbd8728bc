(* The benchmark's measuring program. run.py drives it one round at a time:

   - [cells]: run campaign cells in this process, one after another, the
     way `avis_cli hunt -j 1` runs them, with a calibration slice after
     every scenario;
   - [daemon]: a hunt daemon with one worker and one cell slot;
   - [client]: time the daemon from start to its first Pong, then drive
     it from two connections in a closed loop, admitting one live cell at
     a time so calibration slices run while the worker is idle;
   - [pin]: print the result digest of each cell, for pins.txt.

   Every mode writes its measurements as one JSON object; run.py turns
   them into metrics. Times are monotonic nanoseconds. *)

open Avis_core
module Wire = Avis_server.Wire

let now_ns = Yardstick.now_ns
let ( +: ) = Int64.add
let ( -: ) = Int64.sub

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jlist items = "[" ^ String.concat "," items ^ "]"
let jint n = string_of_int n
let jns n = Int64.to_string n
let jfloat f = Printf.sprintf "%.17g" f
let jopt f = function Some v -> f v | None -> "null"

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Calibration                                                          *)
(* ------------------------------------------------------------------ *)

(* Every calibration point as (start, length, slice): run.py leaves its
   length out of measured time and rescales each stretch of measured time
   by the slice time at the points on either side of it. *)
let slices : (int64 * int64 * int64) list ref = ref []

(* One calibration point of [burst] slices, timed by their median;
   returns the minor words it allocated so cell allocation counts can
   leave them out. *)
let calibrate ?(burst = 1) () =
  let w = Gc.minor_words () in
  let t0 = now_ns () in
  let ds = List.init burst (fun _ -> Yardstick.slice ()) in
  let t1 = now_ns () in
  ignore (Spans.record "host.calibration" ~t0 ~t1 : int);
  slices := (t0, t1 -: t0, List.nth (List.sort compare ds) (burst / 2)) :: !slices;
  Gc.minor_words () -. w

(* The first slice of a process runs on cold caches; it is not kept. *)
let warm_up () = ignore (Yardstick.slice () : int64)

let slices_json () =
  jlist
    (List.rev_map (fun (t, l, d) -> Printf.sprintf "[%Ld,%Ld,%Ld]" t l d) !slices)

(* ------------------------------------------------------------------ *)
(* cells                                                                *)
(* ------------------------------------------------------------------ *)

(* One campaign through Campaign.run_supervised, with a calibration slice
   before it, after it, and after every scenario. Untraced, the progress
   callback that runs those slices is the only hook. Traced, the
   strategy's Search.t is wrapped too, and spans and per-scenario times
   are recorded at those boundaries. *)
let run_cell ~traced ~pins (spec : Cells.spec) =
  let c = Cells.cell spec in
  ignore (calibrate () : float);
  let cell_span = Spans.open_ () in
  let t0 = now_ns () in
  let calib_words = ref 0.0 and seen = ref 0 in
  let profile_ns = ref 0L and next_ns = ref 0L and observe_ns = ref 0L in
  let book_ns = ref 0L and scenarios = ref [] in
  let next_end = ref t0 and observe_end = ref t0 in
  let traced_strategy ctx =
    let t = now_ns () in
    profile_ns := t -: t0;
    ignore (Spans.record "campaign.profile" ~t0 ~t1:t : int);
    let s = c.Avis_server.Worker.strategy ctx in
    {
      s with
      Search.next =
        (fun () ->
          let a = now_ns () in
          let step = s.Search.next () in
          let b = now_ns () in
          next_ns := !next_ns +: (b -: a);
          ignore (Spans.record "search.next" ~t0:a ~t1:b : int);
          (match step with Search.Run _ -> next_end := b | _ -> ());
          step);
      observe =
        (fun scenario run ->
          let a = now_ns () in
          scenarios := (!next_end, a) :: !scenarios;
          ignore (Spans.record "campaign.scenario" ~t0:!next_end ~t1:a : int);
          s.Search.observe scenario run;
          let b = now_ns () in
          observe_ns := !observe_ns +: (b -: a);
          ignore (Spans.record "search.observe" ~t0:a ~t1:b : int);
          observe_end := b);
    }
  in
  let progress (p : Campaign.progress) =
    if p.Campaign.simulations > !seen then begin
      seen := p.Campaign.simulations;
      if traced then begin
        let t = now_ns () in
        book_ns := !book_ns +: (t -: !observe_end);
        ignore (Spans.record "campaign.bookkeeping" ~t0:!observe_end ~t1:t : int)
      end;
      calib_words := !calib_words +. calibrate ()
    end
  in
  let strategy = if traced then traced_strategy else c.Avis_server.Worker.strategy in
  let outcome =
    Campaign.run_supervised ~progress c.Avis_server.Worker.config ~strategy
  in
  let t1 = now_ns () in
  Spans.close cell_span "campaign.cell" ~t0 ~t1;
  ignore (calibrate () : float);
  let timing =
    [
      ("id", jstr spec.Cells.id);
      ("t0", jns t0);
      ("t1", jns t1);
      ("profile_ns", jns !profile_ns);
      ("next_ns", jns !next_ns);
      ("observe_ns", jns !observe_ns);
      ("bookkeeping_ns", jns !book_ns);
      ( "scenarios",
        jlist (List.rev_map (fun (a, b) -> Printf.sprintf "[%Ld,%Ld]" a b) !scenarios) );
    ]
  in
  match outcome with
  | Campaign.Quarantined e ->
    jobj
      (timing
      @ [
          ("ok", "false");
          ( "error",
            jstr (Printf.sprintf "quarantined %s: %s" e.Campaign.code e.Campaign.message)
          );
        ])
  | Campaign.Completed r ->
    let digest = Cells.digest_of_result c r in
    let check = Cells.check pins spec.Cells.id digest in
    let s =
      match r.Campaign.cache_stats with
      | Some s -> s
      | None ->
        {
          Prefix_cache.hits = 0; misses = 0; saved_sim_s = 0.0; evictions = 0;
          resident_bytes = 0; store_hits = 0; store_misses = 0; store_bytes = 0;
        }
    in
    jobj
      (timing
      @ [
          ("ok", if Result.is_ok check then "true" else "false");
          ("error", match check with Ok () -> "null" | Error e -> jstr e);
          ("digest", jstr digest);
          ("simulations", jint r.Campaign.simulations);
          ("findings", jint (Campaign.unsafe_count r));
          ("spent_s", jfloat r.Campaign.wall_clock_spent_s);
          ("speedup", jfloat c.Avis_server.Worker.config.Campaign.speedup);
          ("minor_words", jfloat (r.Campaign.minor_words -. !calib_words));
          ("major_gcs", jint r.Campaign.major_collections);
          ("cache_hits", jint s.Prefix_cache.hits);
          ("cache_misses", jint s.Prefix_cache.misses);
          ("saved_sim_s", jfloat s.Prefix_cache.saved_sim_s);
          ("evictions", jint s.Prefix_cache.evictions);
          ("resident_bytes", jint s.Prefix_cache.resident_bytes);
          ("store_hits", jint s.Prefix_cache.store_hits);
          ("store_misses", jint s.Prefix_cache.store_misses);
          ("store_bytes", jint s.Prefix_cache.store_bytes);
        ])

let cells_mode ~out ~traced ~pins ids =
  Spans.enabled := traced;
  let specs = List.map Cells.spec_of_id ids in
  let ready = now_ns () in
  warm_up ();
  let cells = List.map (run_cell ~traced ~pins) specs in
  write_file out
    (jobj
       [
         ("ready_ns", jns ready);
         ("slices", slices_json ());
         ("cells", jlist cells);
         ("spans", Spans.to_json ());
       ])

let pin_mode ids =
  List.iter
    (fun id ->
      let spec = Cells.spec_of_id id in
      let c = Cells.cell spec in
      match
        Campaign.run_supervised c.Avis_server.Worker.config
          ~strategy:c.Avis_server.Worker.strategy
      with
      | Campaign.Completed r -> Printf.printf "%s %s\n%!" id (Cells.digest_of_result c r)
      | Campaign.Quarantined e ->
        Printf.eprintf "%s quarantined: %s\n%!" id e.Campaign.message;
        exit 1)
    ids

(* ------------------------------------------------------------------ *)
(* daemon                                                               *)
(* ------------------------------------------------------------------ *)

let daemon_mode ~socket ~journal =
  Avis_server.Hunt_service.serve
    {
      Avis_server.Hunt_service.socket_path = socket;
      tcp_port = None;
      journal_path = journal;
      store_dir = None;
      workers = 1;
      jobs = 1;
    }

(* ------------------------------------------------------------------ *)
(* client                                                               *)
(* ------------------------------------------------------------------ *)

type request = {
  rid : string;  (** The cell id. *)
  conn : int;
  live : bool;  (** First time this connection submits the id. *)
  submit_ns : int64;
  mutable accepted_ns : int64 option;
  mutable cell_ns : int64 option;
  mutable elapsed_s : float option;  (** The worker's own cell time. *)
  mutable error : string option;
}

type conn = {
  fd : Unix.file_descr;
  index : int;
  script : string list;
  mutable pending : string list;
  mutable inbuf : string;
  mutable current : request option;
  mutable finished : bool;
}

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go pos =
    if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos))
  in
  go 0

(* Complete lines from [fd], keeping a partial tail in [buf]. *)
let read_lines fd buf =
  let chunk = Bytes.create 65536 in
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
    let all = !buf ^ Bytes.sub_string chunk 0 n in
    let parts = String.split_on_char '\n' all in
    let rec split acc = function
      | [ last ] ->
        buf := last;
        List.rev acc
      | l :: rest -> split (l :: acc) rest
      | [] -> List.rev acc
    in
    Some (split [] parts)

let rec connect socket ~tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
    Unix.close fd;
    Unix.sleepf 0.0005;
    connect socket ~tries:(tries - 1)

(* Connect as soon as the daemon listens and wait for its Pong; returns
   the connection and when the Pong arrived. *)
let ping socket =
  let fd = connect socket ~tries:20_000 in
  send fd (Wire.render_request Wire.Ping);
  let buf = ref "" in
  let rec wait () =
    match read_lines fd buf with
    | None -> failwith "daemon closed the connection before Pong"
    | Some lines ->
      if List.exists (fun l -> Wire.parse_response l = Ok Wire.Pong) lines then now_ns ()
      else wait ()
  in
  let t = wait () in
  (fd, t)

let record_json r = Avis_util.Json.to_string (Run_journal.record_to_json r)

(* The client starts first: once it has said "ready", run.py starts a
   daemon and sends its spawn time, from which the daemon's set-up is
   timed while the client only polls for its socket. That repeats
   [setups] times; the client answers "pong" to all but the last daemon,
   which run.py then stops, and drives the last one. *)
let client_mode ~out ~traced ~pins ~socket ~journal ~setups scripts =
  Spans.enabled := traced;
  warm_up ();
  print_endline "ready";
  let rec start_daemons acc n =
    let since = Int64.of_string (input_line stdin) in
    let fd, pong = ping socket in
    let acc = (pong -: since) :: acc in
    if n <= 1 then (fd, List.rev acc)
    else begin
      Unix.close fd;
      print_endline "pong";
      start_daemons acc (n - 1)
    end
  in
  let fd_a, setup_times = start_daemons [] setups in
  let fd_b = connect socket ~tries:10 in
  let conns =
    List.mapi
      (fun index (fd, script) ->
        {
          fd; index; script; pending = script; inbuf = ""; current = None;
          finished = false;
        })
      (List.combine [ fd_a; fd_b ] scripts)
  in
  let done_reqs = ref [] in
  let live_records = Hashtbl.create 16 in
  (* At most one live cell is in flight: the worker's one slot is then
     idle between live cells, and the slice run there times the CPU the
     cells run on. Memo repeats are admitted at any time. *)
  let live_busy = ref false in
  let waiting = Queue.create () in
  let next_is_live c =
    match c.pending with
    | [] -> false
    | id :: _ ->
      let submitted = List.length c.script - List.length c.pending in
      not (List.mem id (List.filteri (fun i _ -> i < submitted) c.script))
  in
  let submit c =
    match c.pending with
    | [] -> ()
    | id :: rest ->
      let live = next_is_live c in
      if live then live_busy := true;
      c.pending <- rest;
      let spec = Cells.spec_of_id id in
      c.current <-
        Some
          {
            rid = id; conn = c.index; live; submit_ns = now_ns ();
            accepted_ns = None; cell_ns = None; elapsed_s = None; error = None;
          };
      send c.fd (Wire.render_request (Wire.Submit (Cells.request spec)))
  in
  let advance c =
    c.current <- None;
    if c.pending = [] then c.finished <- true
    else if next_is_live c && !live_busy then Queue.push c waiting
    else submit c
  in
  let fail r msg = if r.error = None then r.error <- Some msg in
  let on_cell r status =
    let t = now_ns () in
    r.cell_ns <- Some t;
    let check record =
      match Cells.check pins r.rid (Cells.digest record) with
      | Ok () -> ()
      | Error e -> fail r e
    in
    match status with
    | Wire.Cell_done record ->
      if not r.live then fail r (r.rid ^ ": a repeat ran live instead of from the journal");
      r.elapsed_s <- Run_journal.elapsed_s record;
      check record;
      Hashtbl.replace live_records r.rid (record_json record)
    | Wire.Cell_memo record -> (
      if r.live then fail r (r.rid ^ ": a first request was served as a memo");
      check record;
      match Hashtbl.find_opt live_records r.rid with
      | Some original when original = record_json record -> ()
      | Some _ -> fail r (r.rid ^ ": memo differs from its live original")
      | None -> fail r (r.rid ^ ": memo without a live original"))
    | Wire.Cell_quarantined { code; message; _ } ->
      fail r (Printf.sprintf "%s: quarantined %s: %s" r.rid code message)
  in
  let finish c r =
    let t = now_ns () in
    if r.cell_ns = None then fail r (r.rid ^ ": no cell result");
    if traced then begin
      let parent = Spans.record "client.request" ~t0:r.submit_ns ~t1:t in
      Option.iter
        (fun a ->
          ignore (Spans.record ~parent "server.accept" ~t0:r.submit_ns ~t1:a : int))
        r.accepted_ns;
      Option.iter
        (fun cell ->
          let t0 = Option.value r.accepted_ns ~default:r.submit_ns in
          ignore (Spans.record ~parent "server.cell" ~t0 ~t1:cell : int))
        r.cell_ns
    end;
    done_reqs := (r, t) :: !done_reqs;
    if r.live then begin
      live_busy := false;
      (* A burst, so that one slice disturbed by the daemon settling does
         not set the rate for a whole cell. *)
      ignore (calibrate ~burst:5 () : float);
      Option.iter submit (Queue.take_opt waiting)
    end;
    advance c
  in
  let handle c line =
    match c.current with
    | None -> ()
    | Some r -> (
      if not (Wire.is_metrics_line line) then
        match Wire.parse_response line with
        | Ok (Wire.Accepted _) -> if r.accepted_ns = None then r.accepted_ns <- Some (now_ns ())
        | Ok (Wire.Rejected { reason }) ->
          fail r (r.rid ^ ": rejected: " ^ reason);
          finish c r
        | Ok (Wire.Cell { status; _ }) -> on_cell r status
        | Ok (Wire.Done { quarantined; _ }) ->
          if quarantined > 0 then fail r (r.rid ^ ": quarantined");
          finish c r
        | Ok _ -> ()
        | Error e -> fail r (r.rid ^ ": bad frame: " ^ e))
  in
  ignore (calibrate ~burst:5 () : float);
  let start = now_ns () in
  List.iter advance conns;
  let rec loop () =
    let open_fds = List.filter_map (fun c -> if c.finished then None else Some c.fd) conns in
    if open_fds <> [] then begin
      let readable, _, _ =
        try Unix.select open_fds [] [] 5.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd readable then begin
            let buf = ref c.inbuf in
            match read_lines c.fd buf with
            | None ->
              Option.iter (fun r -> fail r (r.rid ^ ": daemon hung up")) c.current;
              Option.iter (fun r -> done_reqs := (r, now_ns ()) :: !done_reqs) c.current;
              c.finished <- true
            | Some lines ->
              c.inbuf <- !buf;
              List.iter (handle c) lines
          end)
        conns;
      loop ()
    end
  in
  loop ();
  let drained = List.fold_left (fun acc (_, t) -> if t > acc then t else acc) start !done_reqs in
  List.iter (fun c -> Unix.close c.fd) conns;
  let journal_records =
    In_channel.with_open_text journal In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           Option.bind (Result.to_option (Avis_util.Json.of_string l))
             Run_journal.record_of_json)
    |> List.length
  in
  let req_json (r, done_ns) =
    jobj
      [
        ("id", jstr r.rid);
        ("conn", jint r.conn);
        ("live", if r.live then "true" else "false");
        ("ok", if r.error = None then "true" else "false");
        ("error", jopt jstr r.error);
        ("submit_ns", jns r.submit_ns);
        ("accepted_ns", jopt jns r.accepted_ns);
        ("cell_ns", jopt jns r.cell_ns);
        ("done_ns", jns done_ns);
        ("elapsed_s", jopt jfloat r.elapsed_s);
      ]
  in
  write_file out
    (jobj
       [
         ("setups_ns", jlist (List.map jns setup_times));
         ("start_ns", jns start);
         ("end_ns", jns drained);
         ("slices", slices_json ());
         ("requests", jlist (List.rev_map req_json !done_reqs));
         ("journal_records", jint journal_records);
         ("spans", Spans.to_json ());
       ])

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: avisbench cells OUT TRACE PINS ID... | pin ID... | daemon SOCKET \
     JOURNAL | client OUT TRACE PINS SOCKET JOURNAL SETUPS IDS_A IDS_B";
  exit 2

let ids s = List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "cells" :: out :: trace :: pins :: ids ->
    cells_mode ~out ~traced:(trace = "1") ~pins:(Cells.load_pins pins) ids
  | "pin" :: ids -> pin_mode ids
  | [ "daemon"; socket; journal ] -> daemon_mode ~socket ~journal
  | [ "client"; out; trace; pins; socket; journal; setups; a; b ] ->
    client_mode ~out ~traced:(trace = "1") ~pins:(Cells.load_pins pins) ~socket
      ~journal ~setups:(int_of_string setups) [ ids a; ids b ]
  | _ -> usage ()
