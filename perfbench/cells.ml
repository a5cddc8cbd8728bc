(* Benchmark cells: one campaign each, named by an id
   [firmware/workload/approach/budget/seed] (e.g. [apm/auto-box/avis/300/1])
   and expanded into exactly the config `avis_cli hunt` and the hunt daemon
   build, via [Worker.cells_of_request]. *)

open Avis_core

type spec = {
  id : string;
  firmware : string;
  workload : string;
  approach : string;
  budget_s : float;
  seed : int;
}

let spec_of_id id =
  match String.split_on_char '/' id with
  | [ firmware; workload; approach; budget; seed ] -> (
    match (int_of_string_opt budget, int_of_string_opt seed) with
    | Some b, Some s when b > 0 ->
      { id; firmware; workload; approach; budget_s = float_of_int b; seed = s }
    | _ -> invalid_arg ("bad cell id " ^ id))
  | _ -> invalid_arg ("bad cell id " ^ id)

let request (s : spec) =
  {
    Avis_server.Wire.firmware = s.firmware;
    workload = s.workload;
    approaches = [ s.approach ];
    budget_s = s.budget_s;
    seed = s.seed;
    lanes = None;
    shards = 1;
  }

let cell (s : spec) =
  match Avis_server.Worker.cells_of_request (request s) with
  | Ok [ c ] -> c
  | Ok _ -> invalid_arg ("cell id expands to several cells: " ^ s.id)
  | Error e -> invalid_arg (s.id ^ ": " ^ e)

(* A cell's result digest: everything deterministic in its journal record
   (simulations, inferences, the spent-budget bits and every finding), and
   nothing that depends on the binary or the clock (key, label and
   measured elapsed time). *)
let digest (r : Run_journal.record) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d|%d|%Lx\n" r.Run_journal.simulations r.Run_journal.inferences
    r.Run_journal.spent_bits;
  List.iter
    (fun (f : Run_journal.finding) ->
      Printf.bprintf b "%d|%s|%s|%s\n" f.Run_journal.simulation_index
        f.Run_journal.description f.Run_journal.bucket
        (String.concat "," f.Run_journal.bugs))
    r.Run_journal.findings;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_of_result (c : Avis_server.Worker.cell) result =
  digest
    (Campaign.record_of_result c.Avis_server.Worker.config
       ~approach:c.Avis_server.Worker.approach ~fingerprint:"" result)

(* The pinned digests: one [id digest] pair per line. *)
let load_pins path =
  let pins = Hashtbl.create 32 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ id; d ] ->
            Hashtbl.replace pins id d;
            go ()
          | _ -> go ())
      in
      go ());
  pins

(* [Ok ()] when [digest] matches the pin, else a one-line reason. *)
let check pins id digest =
  match Hashtbl.find_opt pins id with
  | None -> Error ("no pinned digest for " ^ id)
  | Some d when d = digest -> Ok ()
  | Some d -> Error (Printf.sprintf "%s: digest %s, pinned %s" id digest d)
