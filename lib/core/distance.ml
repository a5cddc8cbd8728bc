open Avis_geo
open Avis_sitl

type metric = Full | Position_only

(* The profiling runs, each padded to the longest by its final sample
   (the rule of the trace's [nth_padded]), as flat tick-major columns:
   run [r] at tick [k] is slot [k * runs + r], so the runs one tick is
   compared against sit side by side. Modes are interned: every graph
   node and every profiled label has an id below [modes], and [modes]
   stands for any other label. [mode_dist] holds [Mode_graph.distance]
   for each id pair, row-major with [modes] columns; its last row, the
   unknown label, is all [diameter], as [Mode_graph.distance] says. *)
type t = {
  graph : Mode_graph.t;
  p_hat : float;
  a_hat : float;
  scale : float; (* the graph's diameter D *)
  runs : int;
  ticks : int;
  px : float array;
  py : float array;
  pz : float array;
  ax : float array;
  ay : float array;
  az : float array;
  mode : int array;
  ids : (string, int) Hashtbl.t;
  modes : int;
  mode_dist : float array;
  spread_full : float;
  spread_position : float;
}

(* [Vec3.dist a b] over columns, bit for bit: the difference is [a − b]
   and the squares add as [Vec3.dot] adds them, x and y first. *)
let[@inline] dist3 x y z a b =
  let dx = x.(a) -. x.(b) and dy = y.(a) -. y.(b) and dz = z.(a) -. z.(b) in
  sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))

let build ~graph ~profiles =
  let traces = Array.of_list profiles in
  let runs = Array.length traces in
  let ticks =
    Array.fold_left (fun acc tr -> Int.max acc (Trace.length tr)) 0 traces
  in
  let ids = Hashtbl.create 16 in
  let intern label =
    match Hashtbl.find_opt ids label with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids label i;
      i
  in
  List.iter (fun m -> ignore (intern m)) (Mode_graph.modes graph);
  let column () = Array.make (runs * ticks) 0.0 in
  let px = column () and py = column () and pz = column () in
  let ax = column () and ay = column () and az = column () in
  let mode = Array.make (runs * ticks) 0 in
  Array.iteri
    (fun r tr ->
      let n = Trace.length tr in
      if n = 0 then invalid_arg "Distance.build: empty profiling run";
      let label = ref "" and id = ref 0 in
      for k = 0 to ticks - 1 do
        let i = Int.min k (n - 1) and j = (k * runs) + r in
        px.(j) <- Trace.px tr i;
        py.(j) <- Trace.py tr i;
        pz.(j) <- Trace.pz tr i;
        ax.(j) <- Trace.ax tr i;
        ay.(j) <- Trace.ay tr i;
        az.(j) <- Trace.az tr i;
        let m = Trace.mode tr i in
        if k = 0 || not (String.equal m !label) then begin
          label := m;
          id := intern m
        end;
        mode.(j) <- !id
      done)
    traces;
  let modes = Hashtbl.length ids in
  let labels = Array.make modes "" in
  Hashtbl.iter (fun label i -> labels.(i) <- label) ids;
  let diameter = Mode_graph.diameter graph in
  let mode_dist =
    Array.init ((modes + 1) * modes) (fun c ->
        let a = c / modes and b = c mod modes in
        float_of_int
          (if a = modes then diameter
           else Mode_graph.distance graph labels.(a) labels.(b)))
  in
  (* P̂ and Â: the largest pairwise position and acceleration distances.
     A maximum taken with [>] skips NaN and does not depend on the order
     the pairs are visited in. *)
  let p_best = ref 0.0 and a_best = ref 0.0 in
  for k = 0 to ticks - 1 do
    let base = k * runs in
    for i = 0 to runs - 1 do
      for j = i + 1 to runs - 1 do
        let dp = dist3 px py pz (base + i) (base + j) in
        if dp > !p_best then p_best := dp;
        let da = dist3 ax ay az (base + i) (base + j) in
        if da > !a_best then a_best := da
      done
    done
  done;
  let nonzero v = if v <= 1e-9 then 1.0 else v in
  let p_hat = nonzero !p_best and a_hat = nonzero !a_best in
  let scale = float_of_int diameter in
  (* Both metrics' largest state distance, each term computed as
     [state_distance] computes it. *)
  let full = ref 0.0 and position = ref 0.0 in
  for k = 0 to ticks - 1 do
    let base = k * runs in
    for i = 0 to runs - 1 do
      for j = i + 1 to runs - 1 do
        let a = base + i and b = base + j in
        let d_p = dist3 px py pz a b *. scale /. p_hat in
        if d_p > !position then position := d_p;
        let d_a = dist3 ax ay az a b *. scale /. a_hat in
        let d_m = mode_dist.((mode.(a) * modes) + mode.(b)) in
        let d = sqrt ((d_p *. d_p) +. (d_a *. d_a) +. (d_m *. d_m)) in
        if d > !full then full := d
      done
    done
  done;
  {
    graph; p_hat; a_hat; scale; runs; ticks; px; py; pz; ax; ay; az; mode;
    ids; modes; mode_dist; spread_full = !full; spread_position = !position;
  }

let graph t = t.graph
let p_hat t = t.p_hat
let a_hat t = t.a_hat
let runs t = t.runs

let spread ?(metric = Full) t =
  match metric with
  | Full -> t.spread_full
  | Position_only -> t.spread_position

let mode_id t label =
  match Hashtbl.find_opt t.ids label with Some i -> i | None -> t.modes

let within ~metric t ~tau trace i ~mode_id =
  let base = Int.min i (t.ticks - 1) * t.runs in
  let x = Trace.px trace i and y = Trace.py trace i and z = Trace.pz trace i in
  let ax = Trace.ax trace i and ay = Trace.ay trace i in
  let az = Trace.az trace i in
  let row = mode_id * t.modes in
  let found = ref false and r = ref 0 in
  while (not !found) && !r < t.runs do
    let j = base + !r in
    let dx = x -. t.px.(j) and dy = y -. t.py.(j) and dz = z -. t.pz.(j) in
    let d_p =
      sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) *. t.scale /. t.p_hat
    in
    let d =
      match metric with
      | Position_only -> d_p
      | Full ->
        let dx = ax -. t.ax.(j) and dy = ay -. t.ay.(j) and dz = az -. t.az.(j) in
        let d_a =
          sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) *. t.scale /. t.a_hat
        in
        let d_m = t.mode_dist.(row + t.mode.(j)) in
        sqrt ((d_p *. d_p) +. (d_a *. d_a) +. (d_m *. d_m))
    in
    if d <= tau then found := true;
    incr r
  done;
  !found

let position_component (a : Trace.sample) (b : Trace.sample) =
  Vec3.dist a.Trace.position b.Trace.position

let accel_component (a : Trace.sample) (b : Trace.sample) =
  Vec3.dist a.Trace.acceleration b.Trace.acceleration

let state_distance ?(metric = Full) t a b =
  let scale = float_of_int (Mode_graph.diameter t.graph) in
  let d_p = position_component a b *. scale /. t.p_hat in
  match metric with
  | Position_only -> d_p
  | Full ->
    let d_a = accel_component a b *. scale /. t.a_hat in
    let d_m =
      float_of_int (Mode_graph.distance t.graph a.Trace.mode b.Trace.mode)
    in
    sqrt ((d_p *. d_p) +. (d_a *. d_a) +. (d_m *. d_m))

(* The layout: the graph, the labels in id order, the run and tick
   counts, the six padded columns by their bits, the mode-id column as
   runs of equal ids (a tick's runs and consecutive ticks mostly share a
   mode), the mode distances, P̂, Â and both spreads. *)
let encode b t =
  let[@warning "+9"] {
    graph;
    (* Written as the labels in id order. *)
    ids;
    modes;
    (* The graph's diameter. *)
    scale = _;
    runs;
    ticks;
    px;
    py;
    pz;
    ax;
    ay;
    az;
    mode;
    mode_dist;
    p_hat;
    a_hat;
    spread_full;
    spread_position;
  } =
    t
  in
  let open Avis_util.Codec in
  Mode_graph.encode b graph;
  let labels = Array.make modes "" in
  Hashtbl.iter (fun label i -> labels.(i) <- label) ids;
  w_array b w_string labels;
  w_int b runs;
  w_int b ticks;
  let n = runs * ticks in
  List.iter (fun c -> w_floats b c ~len:n) [ px; py; pz; ax; ay; az ];
  let i = ref 0 in
  while !i < n do
    let id = mode.(!i) in
    let j = ref (!i + 1) in
    while !j < n && mode.(!j) = id do incr j done;
    w_int b (!j - !i);
    w_int b id;
    i := !j
  done;
  w_floats b mode_dist ~len:(Array.length mode_dist);
  w_f64 b p_hat;
  w_f64 b a_hat;
  w_f64 b spread_full;
  w_f64 b spread_position

let decode r =
  let open Avis_util.Codec in
  let graph = Mode_graph.decode r in
  let labels = r_array r r_string in
  let modes = Array.length labels in
  let ids = Hashtbl.create 16 in
  Array.iteri
    (fun i label ->
      if Hashtbl.mem ids label then corrupt "mode label %S twice" label;
      Hashtbl.add ids label i)
    labels;
  List.iteri
    (fun i m ->
      if not (i < modes && String.equal labels.(i) m) then
        corrupt "graph mode %S is not label %d" m i)
    (Mode_graph.modes graph);
  let runs = r_int r in
  let ticks = r_int r in
  (* Each slot holds six floats. *)
  if runs < 1 || ticks < 1 || ticks > remaining r / 48 / runs then
    corrupt "bad profile of %d runs by %d ticks" runs ticks;
  let n = runs * ticks in
  let column () =
    let c = Array.make n 0.0 in
    r_floats_into r c ~len:n;
    c
  in
  let px = column () in
  let py = column () in
  let pz = column () in
  let ax = column () in
  let ay = column () in
  let az = column () in
  let mode = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let count = r_int r in
    if count < 1 || count > n - !filled then corrupt "bad mode-id run of %d" count;
    let id = r_int r in
    if id < 0 || id >= modes then corrupt "bad mode id %d" id;
    Array.fill mode !filled count id;
    filled := !filled + count
  done;
  if modes > remaining r / 8 / (modes + 1) then
    corrupt "bad mode distances for %d modes" modes;
  let mode_dist = Array.make ((modes + 1) * modes) 0.0 in
  r_floats_into r mode_dist ~len:(Array.length mode_dist);
  let p_hat = r_f64 r in
  let a_hat = r_f64 r in
  let spread_full = r_f64 r in
  let spread_position = r_f64 r in
  {
    graph; p_hat; a_hat; scale = float_of_int (Mode_graph.diameter graph);
    runs; ticks; px; py; pz; ax; ay; az; mode; ids; modes; mode_dist;
    spread_full; spread_position;
  }
