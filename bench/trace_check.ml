(* Schema-check a Chrome-trace JSON artefact (BENCH_evaluation.trace.json,
   or the output of `avis_cli hunt --trace`): parse it back with
   Avis_util.Json, validate every event, and measure how much of each
   campaign cell's wall time its child spans account for.

   Usage: trace_check [--min-coverage PCT] FILE...

   Exits non-zero on a parse failure, a schema violation, a spanless
   trace, or (when --min-coverage is given) a campaign cell whose child
   spans cover less of its wall time than PCT percent. CI runs this over
   the bench smoke artefact and a warm store-backed hunt's trace. *)

open Avis_util

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let number = function Some (Json.Number f) -> Some f | _ -> None
let string_ = function Some (Json.String s) -> Some s | _ -> None

type span = { name : string; tid : int; ts : float; dur : float }

(* Every counter track the library emits. A counter name outside this set
   is a schema violation: either a typo at the emission site or a new
   counter that was not added here (and to the docs) when introduced. *)
let known_counters =
  [
    "cache.hits"; "cache.misses"; "cache.resident_bytes";
    "snapshot.bytes"; "store.hits"; "store.misses"; "store.bytes";
    "store.writes"; "store.profile_hits"; "store.profile_misses";
    "budget.spent_s"; "link.dropped"; "cell.quarantined";
  ]

let check_event ~path i ev =
  let get k = Json.member k ev in
  let name =
    match string_ (get "name") with
    | Some n -> n
    | None -> fail "%s: event %d has no string \"name\"" path i
  in
  let ph =
    match string_ (get "ph") with
    | Some p -> p
    | None -> fail "%s: event %d (%s) has no string \"ph\"" path i name
  in
  let ts () =
    match number (get "ts") with
    | Some t when t >= 0.0 -> t
    | Some _ -> fail "%s: event %d (%s) has a negative ts" path i name
    | None -> fail "%s: event %d (%s, ph=%s) has no numeric \"ts\"" path i name ph
  in
  let tid =
    match number (get "tid") with Some t -> int_of_float t | None -> 0
  in
  match ph with
  | "X" ->
    let ts = ts () in
    let dur =
      match number (get "dur") with
      | Some d when d >= 0.0 -> d
      | Some _ -> fail "%s: event %d (%s) has a negative dur" path i name
      | None -> fail "%s: span %d (%s) has no numeric \"dur\"" path i name
    in
    Some { name; tid; ts; dur }
  | "C" ->
    let (_ : float) = ts () in
    if not (List.mem name known_counters) then
      fail "%s: counter %d has unknown name %S (add new counters to \
            trace_check's known set)"
        path i name;
    (match Json.member "args" ev with
    | Some (Json.Assoc _) -> None
    | _ -> fail "%s: counter %d (%s) has no \"args\" object" path i name)
  | "i" ->
    let (_ : float) = ts () in
    None
  | "M" -> None
  | other -> fail "%s: event %d (%s) has unknown ph %S" path i name other

(* Fraction of [cell]'s duration covered by the union of the other spans
   recorded strictly inside it on the same thread. Nested spans overlap,
   which the interval union absorbs. *)
let cell_coverage cell spans =
  let inside =
    List.filter
      (fun s ->
        s.tid = cell.tid && s != cell && s.ts >= cell.ts
        && s.ts +. s.dur <= cell.ts +. cell.dur
        && s.name <> "campaign.cell")
      spans
  in
  let sorted = List.sort (fun a b -> compare a.ts b.ts) inside in
  let covered, _ =
    List.fold_left
      (fun (acc, edge) s ->
        let lo = Float.max s.ts edge in
        let hi = s.ts +. s.dur in
        if hi <= lo then (acc, edge) else (acc +. (hi -. lo), hi))
      (0.0, cell.ts) sorted
  in
  if cell.dur <= 0.0 then 1.0 else covered /. cell.dur

let check_file ~min_coverage path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "%s: %s" path e
  in
  let json =
    match Json.of_string text with
    | Ok j -> j
    | Error e -> fail "%s: not valid JSON: %s" path e
  in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> fail "%s: no \"traceEvents\" array" path
  in
  let spans =
    List.concat
      (List.mapi
         (fun i ev -> Option.to_list (check_event ~path i ev))
         events)
  in
  if spans = [] then fail "%s: no complete (\"X\") span events" path;
  let cells = List.filter (fun s -> s.name = "campaign.cell") spans in
  let coverages = List.map (fun c -> cell_coverage c spans) cells in
  let worst = List.fold_left Float.min 1.0 coverages in
  Printf.printf "%s: %d events, %d spans, %d campaign cells%s\n" path
    (List.length events) (List.length spans) (List.length cells)
    (if cells = [] then ""
     else Printf.sprintf ", worst cell span coverage %.1f%%" (100.0 *. worst));
  match min_coverage with
  | Some pct when cells <> [] && 100.0 *. worst < pct ->
    fail "%s: a campaign cell's child spans cover only %.1f%% of its wall \
          time (< %.1f%%)"
      path (100.0 *. worst) pct
  | _ -> ()

let () =
  let min_coverage = ref None in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--min-coverage" :: v :: rest ->
      (match float_of_string_opt v with
      | Some pct -> min_coverage := Some pct
      | None -> fail "bad --min-coverage %S" v);
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [] -> fail "usage: trace_check [--min-coverage PCT] FILE..."
  | files -> List.iter (check_file ~min_coverage:!min_coverage) files
