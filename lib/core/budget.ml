type t = {
  total_s : float;
  speedup : float;
  mutable spent_s : float;
  mutable simulations : int;
  mutable inferences : int;
}

let min_inference_s = 0.01

let create ?(speedup = 5.0) ~total_s () =
  if total_s <= 0.0 then invalid_arg "Budget.create: non-positive budget";
  { total_s; speedup; spent_s = 0.0; simulations = 0; inferences = 0 }

(* The ledger never records more than the budget: once the clock would
   run past [total_s] the campaign is over, and whatever tail the last
   activity had would not have been wall-clock spent. *)
let charge t seconds =
  t.spent_s <- Float.min t.total_s (t.spent_s +. seconds);
  Avis_util.Trace.counter "budget.spent_s" t.spent_s

let charge_simulation t ~sim_seconds =
  charge t (sim_seconds /. t.speedup);
  t.simulations <- t.simulations + 1

let charge_inference t seconds =
  charge t (Float.max seconds min_inference_s);
  t.inferences <- t.inferences + 1

let spent_s t = t.spent_s
let remaining_s t = Float.max 0.0 (t.total_s -. t.spent_s)
let exhausted t = t.spent_s >= t.total_s

let can_afford_run t ~sim_seconds = t.spent_s +. (sim_seconds /. t.speedup) <= t.total_s

let simulations_run t = t.simulations
let inferences_run t = t.inferences
