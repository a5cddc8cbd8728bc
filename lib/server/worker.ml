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
      else if
        List.length (List.sort_uniq String.compare r.approaches)
        < List.length r.approaches
      then Error "an approach is named twice (one cell each)"
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

(* ------------------------------------------------------------------ *)
(* Cell execution (forked child)                                        *)
(* ------------------------------------------------------------------ *)

let write_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let rec go pos =
    if pos < Bytes.length bytes then
      go (pos + Unix.write fd bytes pos (Bytes.length bytes - pos))
  in
  go 0

(* Run one assigned cell and answer with the [Cell] frame its owning
   request's client receives. *)
let execute_cell ~send ~journal { Wire.req; request } =
  let answer ~approach ~label status =
    send (Wire.render_response (Wire.Cell { req; approach; label; status }))
  in
  match cells_of_request request with
  | Ok [ cell ] ->
    let emit ~event snapshot =
      send (Avis_util.Metrics.line ~tags:[ ("req", req) ] ~event snapshot)
    in
    let outcome, _ =
      Campaign.run_cell ~journal ~emit cell.config ~approach:cell.approach
        ~strategy:cell.strategy
    in
    answer ~approach:cell.approach ~label:cell.label
      (match outcome with
      | Campaign.Live (_, record) -> Wire.Cell_done record
      | Campaign.Memo record -> Wire.Cell_memo record
      | Campaign.Failed e ->
        (* A cell runs once; the wire's [attempts] counts the daemon's
           dispatches, which only [WORKER-LOST] ever raises above one. *)
        Wire.Cell_quarantined
          { code = e.Campaign.code; message = e.Campaign.message; attempts = 1 })
  | Ok _ | Error _ ->
    (* Unreachable from a well-behaved daemon, which assigns one
       validated approach. Answered rather than crashed so one malformed
       frame cannot kill a whole executor. *)
    let approach = String.concat "," request.Wire.approaches in
    answer ~approach ~label:approach
      (Wire.Cell_quarantined
         {
           code = "BAD-ASSIGNMENT";
           message = "not a valid one-approach request";
           attempts = 1;
         })

let serve ~journal_path ~input ~out =
  let send line =
    try write_line out line
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
