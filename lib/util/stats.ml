let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sq /. float_of_int (List.length xs))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  List.nth sorted idx

let clamp ~lo ~hi v = Float.max lo (Float.min hi v)

let clampi ~lo ~hi v = Int.max lo (Int.min hi v)
