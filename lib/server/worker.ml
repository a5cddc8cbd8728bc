open Avis_core

type cell = {
  approach : string;
  config : Campaign.config;
  strategy : Search.context -> Search.t;
  label : string;
}

let policy_of_name name =
  match String.lowercase_ascii name with
  | "apm" | "ardupilot" -> Some Avis_firmware.Policy.apm
  | "px4" -> Some Avis_firmware.Policy.px4
  | _ -> None

let strategy_of_name name =
  match name with
  | "avis" | "sabre" -> Some (fun ctx -> Sabre.make ctx)
  | "strat-bfi" -> Some (fun ctx -> Strat_bfi.make ctx)
  | "bfi" -> Some (fun ctx -> Bfi.make ctx)
  | "random" -> Some (fun ctx -> Random_search.make ctx)
  | "dfs" -> Some (fun ctx -> Dfs.make ctx)
  | "bfs" -> Some (fun ctx -> Bfs.make ctx)
  | _ -> None

(* Must agree with each strategy's [Search.name]: `submit` uses this to
   print daemon results exactly as `hunt` prints live ones. *)
let display_name = function
  | "avis" | "sabre" -> "Avis (SABRE)"
  | "strat-bfi" -> "Stratified BFI"
  | "bfi" -> "BFI"
  | "random" -> "Random"
  | "dfs" -> "DFS"
  | "bfs" -> "BFS"
  | s -> s

let cells_of_request (r : Wire.hunt_request) =
  match policy_of_name r.firmware with
  | None ->
    Error (Printf.sprintf "unknown firmware %S (apm|px4)" r.firmware)
  | Some policy -> (
    match Workload.by_name r.workload with
    | None ->
      Error
        (Printf.sprintf
           "unknown workload %S (quickstart|manual-box|auto-box|fence-mission)"
           r.workload)
    | Some workload ->
      if r.approaches = [] then Error "no approach given"
      else if not (Float.is_finite r.budget_s) || r.budget_s <= 0.0 then
        Error (Printf.sprintf "budget must be finite and positive")
      else if not (r.lanes = None || r.lanes = Some 1) then
        (* A client asking for batched stepping, which does not exist,
           must hear so rather than silently get an unbatched run. *)
        Error "lanes must be absent or 1 (batched stepping is not supported)"
      else
        let rec build acc = function
          | [] -> Ok (List.rev acc)
          | name :: rest -> (
            match strategy_of_name name with
            | None ->
              Error
                (Printf.sprintf
                   "unknown approach %S (avis|strat-bfi|bfi|random|dfs|bfs)"
                   name)
            | Some strategy ->
              (* The exact config [avis_cli hunt] builds for this cell:
                 byte-identical journal keys depend on it. *)
              let config =
                {
                  (Campaign.default_config policy workload) with
                  Campaign.budget_s = r.budget_s;
                  seed =
                    Campaign.cell_seed ~base:r.seed
                      ~policy:policy.Avis_firmware.Policy.name
                      ~workload:workload.Workload.name ~approach:name ();
                }
              in
              let label = Campaign.label_of config ~approach:name in
              build ({ approach = name; config; strategy; label } :: acc) rest)
        in
        build [] r.approaches)

(* How many additional workers pending work justifies: never more than the
   configured limit allows, and never more than the cells that no idle
   worker could take — forking a process that would only ever block on an
   empty pipe wastes a fork and a journal load. *)
let fork_budget ~limit ~live ~idle ~pending =
  let limit = max 1 limit in
  max 0 (min (limit - live) (pending - idle))

let cell_of_assignment (a : Wire.assignment) =
  match
    cells_of_request
      {
        Wire.firmware = a.Wire.a_firmware;
        workload = a.Wire.a_workload;
        approaches = [ a.Wire.a_approach ];
        budget_s = a.Wire.a_budget_s;
        seed = a.Wire.a_seed;
        lanes = None;
        shards = 1;
      }
  with
  | Ok [ cell ] -> Ok cell
  | Ok _ -> Error "assignment expanded to more than one cell"
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Cell execution (forked child)                                        *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

(* Run one assigned cell and report its terminal [Cell_result]. *)
let execute_cell ~send ~journal (a : Wire.assignment) =
  let req = a.Wire.a_req in
  let send_result ~approach ~label status =
    send
      (Wire.render_response (Wire.Cell_result { req; approach; label; status }))
  in
  match cell_of_assignment a with
  | Error message ->
    (* Unreachable from a well-behaved daemon: assignments are expanded
       from requests the daemon already validated. Reported rather than
       crashed so one malformed frame cannot kill a whole executor. *)
    send_result ~approach:a.Wire.a_approach
      ~label:(Printf.sprintf "%s/?/%s" a.Wire.a_approach a.Wire.a_workload)
      (Wire.Cell_quarantined
         { code = "BAD-ASSIGNMENT"; message; attempts = 1 })
  | Ok cell ->
    let emit ~event snapshot =
      send (Avis_util.Metrics.line ~tags:[ ("req", req) ] ~event snapshot)
    in
    let outcome, _ =
      Campaign.run_cell ~journal ~emit cell.config ~approach:cell.approach
        ~strategy:cell.strategy
    in
    send_result ~approach:cell.approach ~label:cell.label
      (match outcome with
      | Campaign.Live (_, record) -> Wire.Cell_done record
      | Campaign.Memo record -> Wire.Cell_memo record
      | Campaign.Failed e ->
        (* A cell runs once; the wire's [attempts] counts the daemon's
           dispatches, which only [WORKER-LOST] ever raises above one. *)
        Wire.Cell_quarantined
          { code = e.Campaign.code; message = e.Campaign.message; attempts = 1 })

let serve ~journal_path ~input ~out =
  let send line =
    let payload = Bytes.of_string (line ^ "\n") in
    try write_all out payload 0 (Bytes.length payload)
    with Unix.Unix_error (Unix.EPIPE, _, _) ->
      (* Daemon gone; keep running so the journal still gets the
         records — the next daemon will memo-serve them. *)
      ()
  in
  let journal = Run_journal.open_ journal_path in
  let ic = Unix.in_channel_of_descr input in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      (match Wire.parse_assignment line with
      | Ok a -> execute_cell ~send ~journal a
      | Error e -> Printf.eprintf "[avis] huntd worker: %s\n%!" e);
      loop ()
  in
  loop ()
