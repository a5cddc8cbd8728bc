open Avis_util

type finding = {
  simulation_index : int;
  description : string;
  bucket : string;
  bugs : string list;
}

type record = {
  key : string;
  label : string;
  simulations : int;
  inferences : int;
  spent_bits : int64;
  elapsed_bits : int64 option;
  findings : finding list;
}

type t = {
  path : string;
  fingerprint : string;
  table : (string, record) Hashtbl.t;
  mutex : Mutex.t;
  mutable needs_newline : bool;
      (** The file ends in a torn (newline-less) line a crash left behind;
          the next append must terminate it first, or the new record would
          concatenate onto the torn one and both lines would be lost. *)
  mutable loaded : int;
  mutable interrupted : int;
}

let path t = t.path
let fingerprint t = t.fingerprint
let completed_count t = t.loaded
let interrupted_count t = t.interrupted
let spent_s r = Int64.float_of_bits r.spent_bits
let elapsed_s r = Option.map Int64.float_of_bits r.elapsed_bits

let key ~fingerprint ~config_bytes =
  Digest.to_hex (Digest.string (fingerprint ^ "\x00" ^ config_bytes))

(* One record (or the header) per line: compact JSON, never pretty. *)

let header_json fingerprint =
  Json.Assoc
    [
      ("journal", Json.String "avis-run-journal");
      ("version", Json.int 1);
      ("fingerprint", Json.String fingerprint);
    ]

let json_of_finding f =
  Json.Assoc
    [
      ("sim", Json.int f.simulation_index);
      ("desc", Json.String f.description);
      ("bucket", Json.String f.bucket);
      ("bugs", Json.List (List.map (fun b -> Json.String b) f.bugs));
    ]

let json_of_record r =
  Json.Assoc
    (List.concat
       [
         [
           ("key", Json.String r.key);
           ("label", Json.String r.label);
           ("complete", Json.Bool true);
           ("sims", Json.int r.simulations);
           ("infs", Json.int r.inferences);
           ("spent_bits", Json.String (Printf.sprintf "%016Lx" r.spent_bits));
         ];
         (* Wall-clock duration of the cell, the worker-side cell time a
            daemon client reads off a result. Optional: journals written
            before the field existed (or records from paths that never
            measured) stay servable. *)
         (match r.elapsed_bits with
         | Some bits ->
           [ ("elapsed_bits", Json.String (Printf.sprintf "%016Lx" bits)) ]
         | None -> []);
         [ ("findings", Json.List (List.map json_of_finding r.findings)) ];
       ])

let str = function Some (Json.String s) -> Some s | _ -> None
let num = function Some (Json.Number f) -> Some (int_of_float f) | _ -> None
let ( let* ) = Option.bind

let finding_of_json j =
  let* simulation_index = num (Json.member "sim" j) in
  let* description = str (Json.member "desc" j) in
  let* bucket = str (Json.member "bucket" j) in
  let* bugs =
    match Json.member "bugs" j with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc b ->
          match (acc, b) with
          | Some acc, Json.String s -> Some (s :: acc)
          | _ -> None)
        (Some []) l
      |> Option.map List.rev
    | _ -> None
  in
  Some { simulation_index; description; bucket; bugs }

let record_to_json = json_of_record

let record_of_json j =
  let* key = str (Json.member "key" j) in
  let* label = str (Json.member "label" j) in
  let* simulations = num (Json.member "sims" j) in
  let* inferences = num (Json.member "infs" j) in
  let* spent_bits =
    let* hex = str (Json.member "spent_bits" j) in
    Int64.of_string_opt ("0x" ^ hex)
  in
  (* Tolerant: a missing field (old journal line) is [None]; a present but
     malformed one rejects the record like any other ill-typed field. *)
  let* elapsed_bits =
    match Json.member "elapsed_bits" j with
    | None -> Some None
    | Some (Json.String hex) ->
      Option.map Option.some (Int64.of_string_opt ("0x" ^ hex))
    | Some _ -> None
  in
  let* findings =
    match Json.member "findings" j with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc f ->
          match acc with
          | None -> None
          | Some acc -> Option.map (fun f -> f :: acc) (finding_of_json f))
        (Some []) l
      |> Option.map List.rev
    | _ -> None
  in
  Some { key; label; simulations; inferences; spent_bits; elapsed_bits; findings }

let warn fmt = Printf.eprintf ("[avis] journal: " ^^ fmt ^^ "\n%!")

let append_line t line =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let oc =
        open_out_gen
          [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 t.path
      in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          if t.needs_newline then begin
            output_char oc '\n';
            t.needs_newline <- false
          end;
          output_string oc line;
          output_char oc '\n';
          flush oc))

let write_header t = append_line t (Json.to_string (header_json t.fingerprint))

let read_text path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with _ -> None

(* A header written by a different binary: every memo in the file would be
   unsound to serve. Invalidate loudly — rename aside rather than delete,
   so the operator can inspect what was lost — and start fresh. *)
let invalidate t ~reason =
  let stale = t.path ^ ".stale" in
  warn "%s: %s; moving it to %s and starting a fresh journal" t.path reason
    stale;
  (try Sys.remove stale with _ -> ());
  (try Sys.rename t.path stale with _ -> ());
  t.needs_newline <- false;
  write_header t

let load t text =
  if not (String.length text > 0 && text.[String.length text - 1] = '\n')
  then t.needs_newline <- true;
  let lines = String.split_on_char '\n' text in
  (* A file ending in '\n' splits into lines plus one trailing "";
     otherwise the last element is a torn line a crash left behind. *)
  let lines, torn =
    match List.rev lines with
    | "" :: rest -> (List.rev rest, None)
    | torn :: rest -> (List.rev rest, Some torn)
    | [] -> ([], None)
  in
  (match torn with
  | Some l when String.trim l <> "" ->
    warn "%s: ignoring torn trailing line (%d bytes) from an interrupted \
          write"
      t.path (String.length l)
  | _ -> ());
  match lines with
  | [] -> invalidate t ~reason:"missing header line"
  | header :: records -> (
    let fp =
      match Json.of_string header with
      | Ok j -> (
        match (str (Json.member "journal" j), str (Json.member "fingerprint" j)) with
        | Some "avis-run-journal", Some fp -> Some fp
        | _ -> None)
      | Error _ -> None
    in
    match fp with
    | None -> invalidate t ~reason:"unrecognised header line"
    | Some fp when fp <> t.fingerprint ->
      invalidate t
        ~reason:
          (Printf.sprintf
             "written by a different binary (fingerprint %s, ours %s) — its \
              memos cannot be reused"
             fp t.fingerprint)
    | Some _ ->
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            match Json.of_string line with
            | Error e -> warn "%s: skipping unparseable line %d: %s" t.path (i + 2) e
            | Ok j -> (
              match Json.member "complete" j with
              | Some (Json.Bool false) -> t.interrupted <- t.interrupted + 1
              | _ -> (
                match record_of_json j with
                | Some r ->
                  Hashtbl.replace t.table r.key r;
                  t.loaded <- t.loaded + 1
                | None ->
                  warn "%s: skipping malformed record on line %d" t.path (i + 2))))
        records)

let open_ ?fingerprint path =
  let fingerprint =
    match fingerprint with
    | Some f -> f
    | None -> Checkpoint_store.default_fingerprint ()
  in
  let t =
    {
      path;
      fingerprint;
      table = Hashtbl.create 64;
      mutex = Mutex.create ();
      needs_newline = false;
      loaded = 0;
      interrupted = 0;
    }
  in
  (match read_text path with
  | Some text when String.length text > 0 -> load t text
  | Some _ | None -> write_header t);
  t

let find t ~key =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Hashtbl.find_opt t.table key)

let record_complete t r =
  append_line t (Json.to_string (json_of_record r));
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Hashtbl.replace t.table r.key r)

let record_interrupted t ~key ~label =
  append_line t
    (Json.to_string
       (Json.Assoc
          [
            ("key", Json.String key);
            ("label", Json.String label);
            ("complete", Json.Bool false);
          ]))
