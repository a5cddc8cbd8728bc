type event =
  | Span of { name : string; cat : string; ts : int64; dur : int64 }
  | Count of { name : string; ts : int64; value : float }
  | Instant of { name : string; cat : string; ts : int64 }

(* One buffer per recording domain: events are prepended to a private list,
   so recording never takes a lock and parallel campaign cells never
   contend. The registry only grows (a domain's buffer outlives it, so its
   events survive into the export). *)
type buffer = { tid : int; mutable events : event list; mutable n : int }

let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { tid = (Domain.self () :> int); events = []; n = 0 } in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0L

let now () = Monotonic_clock.now ()

let set_enabled on =
  if on && not (Atomic.get enabled_flag) then Atomic.set epoch (now ());
  Atomic.set enabled_flag on

let enabled () = Atomic.get enabled_flag

let enabled_by_env ?(var = "AVIS_TRACE") () = Env.flag ~var ()

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun b ->
      b.events <- [];
      b.n <- 0)
    !registry;
  Mutex.unlock registry_mutex;
  Atomic.set epoch (now ())

let record ev =
  let b = Domain.DLS.get buffer_key in
  b.events <- ev :: b.events;
  b.n <- b.n + 1

let span ?(cat = "avis") name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
      record (Span { name; cat; ts = t0; dur = Int64.sub (now ()) t0 });
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record (Span { name; cat; ts = t0; dur = Int64.sub (now ()) t0 });
      Printexc.raise_with_backtrace e bt
  end

let counter name value =
  if Atomic.get enabled_flag then record (Count { name; ts = now (); value })

let instant ?(cat = "avis") name =
  if Atomic.get enabled_flag then record (Instant { name; cat; ts = now () })

let all_events () =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  List.concat_map (fun b -> List.map (fun e -> (b.tid, e)) b.events) buffers

let event_count () =
  Mutex.lock registry_mutex;
  let n = List.fold_left (fun acc b -> acc + b.n) 0 !registry in
  Mutex.unlock registry_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace format (https://ui.perfetto.dev, chrome://tracing)     *)
(* ------------------------------------------------------------------ *)

let event_ts = function
  | Span { ts; _ } | Count { ts; _ } | Instant { ts; _ } -> ts

(* Timestamps are microseconds relative to the epoch; durations likewise. *)
let us_of ts = Int64.to_float (Int64.sub ts (Atomic.get epoch)) /. 1e3

let chrome_event tid ev =
  let base name cat ph ts =
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ph", Json.String ph);
      ("ts", Json.Number (us_of ts));
      ("pid", Json.int 0);
      ("tid", Json.int tid);
    ]
  in
  match ev with
  | Span { name; cat; ts; dur } ->
    Json.Assoc
      (base name cat "X" ts @ [ ("dur", Json.Number (Int64.to_float dur /. 1e3)) ])
  | Count { name; ts; value } ->
    Json.Assoc
      (base name "counter" "C" ts
      @ [ ("args", Json.Assoc [ ("value", Json.Number value) ]) ])
  | Instant { name; cat; ts } ->
    Json.Assoc (base name cat "i" ts @ [ ("s", Json.String "t") ])

let to_chrome_json () =
  let events = all_events () in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> Int64.compare (event_ts a) (event_ts b)) events
  in
  let tids = List.sort_uniq compare (List.map fst sorted) in
  let thread_names =
    List.map
      (fun tid ->
        Json.Assoc
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.int 0);
            ("tid", Json.int tid);
            ( "args",
              Json.Assoc
                [ ("name", Json.String (Printf.sprintf "domain-%d" tid)) ] );
          ])
      tids
  in
  Json.Assoc
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List (thread_names @ List.map (fun (tid, e) -> chrome_event tid e) sorted) );
    ]

let write_chrome ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty (to_chrome_json ()));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Plain-text per-span summary                                         *)
(* ------------------------------------------------------------------ *)

type summary_row = {
  span_name : string;
  count : int;
  total_s : float;
  min_s : float;
  max_s : float;
}

(* Spans flattened to (name, begin, duration) tuples — the inline record
   payload cannot escape its constructor. *)
let spans () =
  List.filter_map
    (function
      | _, Span { name; ts; dur; _ } -> Some (name, ts, dur)
      | _, (Count _ | Instant _) -> None)
    (all_events ())

let summary () =
  let agg = Hashtbl.create 32 in
  List.iter
    (fun (name, _, dur) ->
      let d = Int64.to_float dur /. 1e9 in
      let row =
        match Hashtbl.find_opt agg name with
        | Some r -> r
        | None ->
          { span_name = name; count = 0; total_s = 0.0; min_s = infinity;
            max_s = 0.0 }
      in
      Hashtbl.replace agg name
        {
          row with
          count = row.count + 1;
          total_s = row.total_s +. d;
          min_s = Float.min row.min_s d;
          max_s = Float.max row.max_s d;
        })
    (spans ());
  Hashtbl.fold (fun _ r acc -> r :: acc) agg []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let wall_s () =
  match spans () with
  | [] -> 0.0
  | ss ->
    let lo =
      List.fold_left (fun acc (_, ts, _) -> Int64.min acc ts) Int64.max_int ss
    in
    let hi =
      List.fold_left
        (fun acc (_, ts, dur) -> Int64.max acc (Int64.add ts dur))
        Int64.min_int ss
    in
    Int64.to_float (Int64.sub hi lo) /. 1e9

let summary_table () =
  let wall = wall_s () in
  let t =
    Table.create
      ~header:
        [ "span"; "count"; "total (ms)"; "mean (ms)"; "min (ms)"; "max (ms)";
          "% of wall" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.span_name;
          string_of_int r.count;
          Printf.sprintf "%.2f" (r.total_s *. 1e3);
          Printf.sprintf "%.3f" (r.total_s *. 1e3 /. float_of_int r.count);
          Printf.sprintf "%.3f" (r.min_s *. 1e3);
          Printf.sprintf "%.3f" (r.max_s *. 1e3);
          Printf.sprintf "%.1f%%" (100.0 *. r.total_s /. Float.max 1e-9 wall);
        ])
    (summary ());
  t
