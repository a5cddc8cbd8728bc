(* The traced run's span recorder, kept in the benchmark's own code: spans
   are recorded around the calls the benchmark makes into the program, held
   in memory, and written out once the run ends. Recording is sequential
   (one domain), so the enclosing span is simply the top of a stack. *)

type span = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let parent () = match !stack with p :: _ -> p | [] -> -1

let fresh_id () =
  incr next_id;
  !next_id

(* A span whose interval is already known (e.g. from a timestamp taken
   when a callback returned), parented to [parent] or else to the innermost
   open span. Returns its id, or -1 when tracing is off. *)
let record ?parent:p name ~t0 ~t1 =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    let parent = match p with Some p -> p | None -> parent () in
    recorded := { id; parent; name; t0; t1 } :: !recorded;
    id
  end

(* Open a span that encloses later spans; [close] it with its start. *)
let open_ () =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    stack := id :: !stack;
    id
  end

let close id name ~t0 ~t1 =
  if id >= 0 then begin
    stack := List.filter (fun s -> s <> id) !stack;
    recorded := { id; parent = parent (); name; t0; t1 } :: !recorded
  end

let to_json () =
  List.rev_map
    (fun s ->
      Printf.sprintf "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%Ld,\"t1\":%Ld}"
        s.id s.parent s.name s.t0 s.t1)
    !recorded
  |> String.concat ","
  |> Printf.sprintf "[%s]"
