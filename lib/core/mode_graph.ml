type t = {
  transitions : (string * string) list list;
      (** What the graph was built from: its codec writes only this. *)
  nodes : string array;
  index : (string, int) Hashtbl.t;
  dist : int array array;  (* symmetrised shortest paths; max_int = infinite *)
  diameter : int;
  edges : (string * string) list;
}

let build ~transitions =
  let index = Hashtbl.create 16 in
  let nodes = ref [] in
  let intern label =
    match Hashtbl.find_opt index label with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index label i;
      nodes := label :: !nodes;
      i
  in
  let edge_set = Hashtbl.create 16 in
  List.iter
    (fun run ->
      List.iter
        (fun (from_mode, to_mode) ->
          let a = intern from_mode and b = intern to_mode in
          if a <> b then Hashtbl.replace edge_set (a, b) ())
        run)
    transitions;
  let n = Hashtbl.length index in
  let nodes = Array.of_list (List.rev !nodes) in
  let inf = max_int / 4 in
  let dist = Array.make_matrix (max n 1) (max n 1) inf in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0
  done;
  Hashtbl.iter (fun (a, b) () -> dist.(a).(b) <- 1) edge_set;
  (* Floyd–Warshall; the graphs have at most a dozen modes. *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
      done
    done
  done;
  (* Symmetrise: distance between modes is direction-free. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = min dist.(i).(j) dist.(j).(i) in
      dist.(i).(j) <- d;
      dist.(j).(i) <- d
    done
  done;
  let diameter = ref 1 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if dist.(i).(j) < inf && dist.(i).(j) > !diameter then
        diameter := dist.(i).(j)
    done
  done;
  let edges =
    Hashtbl.fold (fun (a, b) () acc -> (nodes.(a), nodes.(b)) :: acc) edge_set []
  in
  { transitions; nodes; index; dist; diameter = !diameter; edges }

let modes t = Array.to_list t.nodes

let has_mode t label = Hashtbl.mem t.index label

let diameter t = t.diameter

let distance t a b =
  if a = b then 0
  else
    match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
    | Some i, Some j ->
      let d = t.dist.(i).(j) in
      if d >= max_int / 4 then t.diameter else d
    | None, _ | _, None -> t.diameter

let edges t = t.edges

(* A graph is rebuilt from the transitions it was built from: the same
   inserts in the same order give the same nodes, distances and edge
   order. *)
let encode b t =
  let open Avis_util.Codec in
  w_list b
    (fun b run ->
      w_list b
        (fun b (from_mode, to_mode) ->
          w_string b from_mode;
          w_string b to_mode)
        run)
    t.transitions

(* Real graphs have about a dozen modes; a bound keeps hostile bytes from
   asking [build] for a huge distance matrix. *)
let max_decoded_modes = 256

let decode r =
  let open Avis_util.Codec in
  let transitions =
    r_list r (fun r ->
        r_list r (fun r ->
            let from_mode = r_string r in
            (from_mode, r_string r)))
  in
  let labels = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (a, b) ->
         Hashtbl.replace labels a ();
         Hashtbl.replace labels b ()))
    transitions;
  if Hashtbl.length labels > max_decoded_modes then
    corrupt "mode graph of %d modes" (Hashtbl.length labels);
  build ~transitions
