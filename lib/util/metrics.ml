type profile_source = Profile_run | Profile_store | No_profile

let profile_label = function
  | Profile_run -> "run"
  | Profile_store -> "store"
  | No_profile -> "-"

type snapshot = {
  cell : string;
  simulations : int;
  inferences : int;
  spent_s : float;
  budget_s : float;
  findings : int;
  wall_s : float;
  minor_words : float;
  major_collections : int;
  store_hits : int;
  store_misses : int;
  store_bytes : int;
  profile : profile_source;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* The stream is parsed back by clients (the hunt daemon's submit/watch
   commands split on spaces and '='), so a value may not contain either
   raw. Cell labels are normally "approach/policy/workload", but the
   daemon serves labels derived from client requests — an unescaped space
   or '=' there would corrupt every consumer's view of the whole line,
   not just the one field. Percent-encode exactly the bytes the framing
   reserves: '%', '=', space and control characters (newlines would end
   the record early). Tag values (request ids) get the same treatment. *)
let needs_escape c = c = '%' || c = '=' || c = ' ' || Char.code c < 0x20

let escape_value s =
  if String.for_all (fun c -> not (needs_escape c)) s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape_value s =
  match String.index_opt s '%' with
  | None -> Ok s
  | Some _ ->
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else if s.[i] = '%' then
        if i + 2 < n then
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code when code >= 0 && code < 256 ->
            Buffer.add_char b (Char.chr code);
            go (i + 3)
          | Some _ | None -> Error (Printf.sprintf "bad %%-escape in %S" s)
        else Error (Printf.sprintf "truncated %%-escape in %S" s)
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
    in
    go 0

let prefix = "[avis]"

let line ?(tags = []) ~event s =
  let base =
    Printf.sprintf
      "%s event=%s cell=%s sims=%d infs=%d spent_s=%.1f budget_s=%.1f findings=%d wall_s=%.1f minor_mw=%.2f majors=%d store_h=%d store_m=%d store_b=%d prof=%s"
      prefix
      (escape_value event)
      (escape_value s.cell)
      s.simulations s.inferences s.spent_s s.budget_s s.findings s.wall_s
      (s.minor_words /. 1e6)
      s.major_collections s.store_hits s.store_misses s.store_bytes
      (profile_label s.profile)
  in
  List.fold_left
    (fun acc (k, v) ->
      acc ^ Printf.sprintf " %s=%s" (escape_value k) (escape_value v))
    base tags

(* The inverse of [line], strict enough that a daemon client can trust the
   stream: the "[avis]" prefix, every snapshot field present with its
   value parseable, and any remaining key=value pairs returned as tags in
   order. Numeric fields round-trip through their rendering (%.1f / %.2f),
   so [line] of a parsed snapshot reproduces the input line byte for byte;
   the cell label and tag values round-trip exactly, whatever bytes they
   contain. *)
let parse_line text =
  let ( let* ) = Result.bind in
  let* body =
    let p = prefix ^ " " in
    let pl = String.length p in
    if String.length text > pl && String.sub text 0 pl = p then
      Ok (String.sub text pl (String.length text - pl))
    else Error (Printf.sprintf "missing %S prefix" prefix)
  in
  let* pairs =
    List.fold_left
      (fun acc token ->
        let* acc = acc in
        if token = "" then Ok acc (* tolerate doubled spaces *)
        else
          match String.index_opt token '=' with
          | None -> Error (Printf.sprintf "token %S is not key=value" token)
          | Some i ->
            let k = String.sub token 0 i in
            let raw = String.sub token (i + 1) (String.length token - i - 1) in
            let* v = unescape_value raw in
            Ok ((k, v) :: acc))
      (Ok [])
      (String.split_on_char ' ' body)
  in
  let pairs = List.rev pairs in
  let field name =
    match List.assoc_opt name pairs with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int_field name =
    let* v = field name in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %s=%S is not an integer" name v)
  in
  let float_field name =
    let* v = field name in
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field %s=%S is not a number" name v)
  in
  let* event = field "event" in
  let* cell = field "cell" in
  let* simulations = int_field "sims" in
  let* inferences = int_field "infs" in
  let* spent_s = float_field "spent_s" in
  let* budget_s = float_field "budget_s" in
  let* findings = int_field "findings" in
  let* wall_s = float_field "wall_s" in
  let* minor_mw = float_field "minor_mw" in
  let* major_collections = int_field "majors" in
  let* store_hits = int_field "store_h" in
  let* store_misses = int_field "store_m" in
  let* store_bytes = int_field "store_b" in
  let* profile =
    let* v = field "prof" in
    match
      List.find_opt
        (fun p -> profile_label p = v)
        [ Profile_run; Profile_store; No_profile ]
    with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "field prof=%S is not run, store or -" v)
  in
  let known =
    [ "event"; "cell"; "sims"; "infs"; "spent_s"; "budget_s"; "findings";
      "wall_s"; "minor_mw"; "majors"; "store_h"; "store_m"; "store_b";
      "prof" ]
  in
  let tags = List.filter (fun (k, _) -> not (List.mem k known)) pairs in
  Ok
    ( event,
      {
        cell; simulations; inferences; spent_s; budget_s; findings; wall_s;
        minor_words = minor_mw *. 1e6; major_collections; store_hits;
        store_misses; store_bytes; profile;
      },
      tags )

(* One mutex for every channel: emission is rare (campaign granularity),
   and a single lock keeps interleaved stderr/file output ordered too. *)
let emit_mutex = Mutex.create ()

let emit ?(oc = stderr) ?tags ~event s =
  let text = line ?tags ~event s ^ "\n" in
  Mutex.lock emit_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock emit_mutex)
    (fun () ->
      output_string oc text;
      flush oc)

(* The TOTAL row sums the additive columns (simulations, inferences,
   modelled spend, budget, findings, GC work) but takes the max of
   [wall_s]: cells run concurrently, so their real elapsed times overlap
   rather than add. Allocation and collections are per-domain work and do
   add. *)
let total snapshots =
  List.fold_left
    (fun acc s ->
      {
        acc with
        simulations = acc.simulations + s.simulations;
        inferences = acc.inferences + s.inferences;
        spent_s = acc.spent_s +. s.spent_s;
        budget_s = acc.budget_s +. s.budget_s;
        findings = acc.findings + s.findings;
        wall_s = Float.max acc.wall_s s.wall_s;
        minor_words = acc.minor_words +. s.minor_words;
        major_collections = acc.major_collections + s.major_collections;
        store_hits = acc.store_hits + s.store_hits;
        store_misses = acc.store_misses + s.store_misses;
        (* Cells sharing one store directory would double-count its size;
           the max is the honest aggregate either way. *)
        store_bytes = max acc.store_bytes s.store_bytes;
      })
    {
      cell = "TOTAL (wall = max)"; simulations = 0; inferences = 0;
      spent_s = 0.0; budget_s = 0.0; findings = 0; wall_s = 0.0;
      minor_words = 0.0; major_collections = 0; store_hits = 0;
      store_misses = 0; store_bytes = 0; profile = No_profile;
    }
    snapshots

let summary_table snapshots =
  let t =
    Table.create
      ~header:
        [ "cell"; "sims"; "infs"; "spent (s)"; "budget (s)"; "findings";
          "wall (s)"; "minor (Mw)"; "majors"; "store hits"; "store miss";
          "store (MB)" ]
  in
  let row s =
    [
      s.cell; string_of_int s.simulations; string_of_int s.inferences;
      Printf.sprintf "%.1f" s.spent_s; Printf.sprintf "%.0f" s.budget_s;
      string_of_int s.findings; Printf.sprintf "%.1f" s.wall_s;
      Printf.sprintf "%.2f" (s.minor_words /. 1e6);
      string_of_int s.major_collections;
      string_of_int s.store_hits; string_of_int s.store_misses;
      Printf.sprintf "%.1f" (float_of_int s.store_bytes /. 1e6);
    ]
  in
  List.iter (fun s -> Table.add_row t (row s)) snapshots;
  (match snapshots with
  | [] | [ _ ] -> ()
  | _ ->
    Table.add_separator t;
    Table.add_row t (row (total snapshots)));
  t

let summary ?(oc = stderr) snapshots =
  let t = summary_table snapshots in
  Mutex.lock emit_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock emit_mutex)
    (fun () ->
      output_string oc (Table.render t);
      output_char oc '\n';
      flush oc)
