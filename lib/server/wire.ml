open Avis_util
open Avis_core

type hunt_request = {
  firmware : string;
  workload : string;
  approaches : string list;
  budget_s : float;
  seed : int;
  lanes : int option;
  shards : int;
}

type request =
  | Submit of hunt_request
  | Watch
  | Status
  | Ping

type cell_status =
  | Cell_done of Run_journal.record
  | Cell_memo of Run_journal.record
  | Cell_quarantined of { code : string; message : string; attempts : int }

type status_info = {
  active : int;
  queued : int;
  workers : int;
  memo_served : int;
  worker_retries : int;
}

type response =
  | Accepted of { req : string; cells : string list }
  | Rejected of { reason : string }
  | Cell of { req : string; approach : string; label : string; status : cell_status }
  | Done of { req : string; retries : int; quarantined : int }
  | Status_info of status_info
  | Pong

type assignment = { req : string; request : hunt_request }

let is_metrics_line line =
  String.length line >= 6 && String.sub line 0 6 = "[avis]"

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

(* The submit fields, shared by [submit] and [cell-assign] frames. The
   budget participates in the journal key by its IEEE-754 bits, so it
   crosses the wire losslessly — as bits, not as a decimal rendering. *)
let hunt_request_fields r =
  [
    ("firmware", Json.String r.firmware);
    ("workload", Json.String r.workload);
    ("approaches", Json.List (List.map (fun a -> Json.String a) r.approaches));
    ( "budget_bits",
      Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float r.budget_s)) );
    ("seed", Json.int r.seed);
    ("shards", Json.int r.shards);
  ]
  @ match r.lanes with Some n -> [ ("lanes", Json.int n) ] | None -> []

let request_to_json = function
  | Submit r ->
    Json.Assoc (("op", Json.String "submit") :: hunt_request_fields r)
  | Watch -> Json.Assoc [ ("op", Json.String "watch") ]
  | Status -> Json.Assoc [ ("op", Json.String "status") ]
  | Ping -> Json.Assoc [ ("op", Json.String "ping") ]

let str = function Some (Json.String s) -> Some s | _ -> None
let num = function Some (Json.Number f) -> Some (int_of_float f) | _ -> None
let ( let* ) = Option.bind

let hunt_request_of_json j =
  let* firmware = str (Json.member "firmware" j) in
  let* workload = str (Json.member "workload" j) in
  let* approaches =
    match Json.member "approaches" j with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc a ->
          match (acc, a) with
          | Some acc, Json.String s -> Some (s :: acc)
          | _ -> None)
        (Some []) l
      |> Option.map List.rev
    | _ -> None
  in
  let* budget_s =
    let* hex = str (Json.member "budget_bits" j) in
    let* bits = Int64.of_string_opt ("0x" ^ hex) in
    Some (Int64.float_of_bits bits)
  in
  let* seed = num (Json.member "seed" j) in
  let* shards = num (Json.member "shards" j) in
  let lanes = num (Json.member "lanes" j) in
  Some { firmware; workload; approaches; budget_s; seed; lanes; shards }

let request_of_json j =
  match str (Json.member "op" j) with
  | Some "submit" ->
    Option.map (fun r -> Submit r) (hunt_request_of_json j)
  | Some "watch" -> Some Watch
  | Some "status" -> Some Status
  | Some "ping" -> Some Ping
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let status_to_json = function
  | Cell_done record ->
    [ ("status", Json.String "done"); ("record", Run_journal.record_to_json record) ]
  | Cell_memo record ->
    [ ("status", Json.String "memo"); ("record", Run_journal.record_to_json record) ]
  | Cell_quarantined { code; message; attempts } ->
    [
      ("status", Json.String "quarantined");
      ("code", Json.String code);
      ("message", Json.String message);
      ("attempts", Json.int attempts);
    ]

let response_to_json = function
  | Accepted { req; cells } ->
    Json.Assoc
      [
        ("type", Json.String "accepted");
        ("req", Json.String req);
        ("cells", Json.List (List.map (fun c -> Json.String c) cells));
      ]
  | Rejected { reason } ->
    Json.Assoc
      [ ("type", Json.String "rejected"); ("reason", Json.String reason) ]
  | Cell { req; approach; label; status } ->
    Json.Assoc
      (( ("type", Json.String "cell")
       :: ("req", Json.String req)
       :: ("approach", Json.String approach)
       :: ("label", Json.String label)
       :: status_to_json status ))
  | Done { req; retries; quarantined } ->
    Json.Assoc
      [
        ("type", Json.String "done");
        ("req", Json.String req);
        ("retries", Json.int retries);
        ("quarantined", Json.int quarantined);
      ]
  | Status_info s ->
    Json.Assoc
      [
        ("type", Json.String "status");
        ("active", Json.int s.active);
        ("queued", Json.int s.queued);
        ("workers", Json.int s.workers);
        ("memo_served", Json.int s.memo_served);
        ("worker_retries", Json.int s.worker_retries);
      ]
  | Pong -> Json.Assoc [ ("type", Json.String "pong") ]

let status_of_json j =
  match str (Json.member "status" j) with
  | Some "done" ->
    let* record = Json.member "record" j in
    Option.map (fun r -> Cell_done r) (Run_journal.record_of_json record)
  | Some "memo" ->
    let* record = Json.member "record" j in
    Option.map (fun r -> Cell_memo r) (Run_journal.record_of_json record)
  | Some "quarantined" ->
    let* code = str (Json.member "code" j) in
    let* message = str (Json.member "message" j) in
    let* attempts = num (Json.member "attempts" j) in
    Some (Cell_quarantined { code; message; attempts })
  | Some _ | None -> None

let response_of_json j =
  match str (Json.member "type" j) with
  | Some "accepted" ->
    let* req = str (Json.member "req" j) in
    let* cells =
      match Json.member "cells" j with
      | Some (Json.List l) ->
        List.fold_left
          (fun acc c ->
            match (acc, c) with
            | Some acc, Json.String s -> Some (s :: acc)
            | _ -> None)
          (Some []) l
        |> Option.map List.rev
      | _ -> None
    in
    Some (Accepted { req; cells })
  | Some "rejected" ->
    let* reason = str (Json.member "reason" j) in
    Some (Rejected { reason })
  | Some "cell" ->
    let* req = str (Json.member "req" j) in
    let* approach = str (Json.member "approach" j) in
    let* label = str (Json.member "label" j) in
    let* status = status_of_json j in
    Some (Cell { req; approach; label; status })
  | Some "done" ->
    let* req = str (Json.member "req" j) in
    let* retries = num (Json.member "retries" j) in
    let* quarantined = num (Json.member "quarantined" j) in
    Some (Done { req; retries; quarantined })
  | Some "status" ->
    let* active = num (Json.member "active" j) in
    let* queued = num (Json.member "queued" j) in
    let* workers = num (Json.member "workers" j) in
    let* memo_served = num (Json.member "memo_served" j) in
    let* worker_retries = num (Json.member "worker_retries" j) in
    Some (Status_info { active; queued; workers; memo_served; worker_retries })
  | Some "pong" -> Some Pong
  | Some _ | None -> None

let parse_of of_json kind line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "malformed %s line: %s" kind e)
  | Ok j -> (
    match of_json j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unrecognised %s: %s" kind line))

let render_request r = Json.to_string (request_to_json r)
let parse_request line = parse_of request_of_json "request" line
let render_response r = Json.to_string (response_to_json r)
let parse_response line = parse_of response_of_json "response" line

(* A cell assignment is a one-approach submit plus the owning request. *)
let render_assignment { req; request } =
  Json.to_string
    (Json.Assoc
       (("op", Json.String "cell-assign")
       :: ("req", Json.String req)
       :: hunt_request_fields request))

let parse_assignment line =
  parse_of
    (fun j ->
      match str (Json.member "op" j) with
      | Some "cell-assign" ->
        let* req = str (Json.member "req" j) in
        let* request = hunt_request_of_json j in
        Some { req; request }
      | Some _ | None -> None)
    "assignment" line
