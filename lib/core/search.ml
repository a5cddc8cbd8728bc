open Avis_sensors

type context = {
  transitions : (float * string * string) list;
  mission_duration : float;
  instances : Sensor.id list;
  instances_of_kind : Sensor.kind -> int;
  mode_at : float -> string option;
  rng : Avis_util.Rng.t;
}

let context_of_run ~rng ~transitions ~duration =
  let transitions =
    List.map
      (fun tr ->
        Avis_hinj.Hinj.(tr.time, tr.from_mode, tr.to_mode))
      transitions
  in
  (* The mode in force at a time, precomputed as a time-sorted array and
     answered by binary search — [mode_at] is called per candidate site by
     the strategies, and the transition log replay was O(transitions) per
     query. The stable sort keeps the last-writer-wins order of the old
     fold for equal timestamps. *)
  let mode_table =
    Array.of_list
      (List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) transitions)
  in
  let mode_at time =
    (* Rightmost transition with [t <= time]. *)
    let lo = ref 0 and hi = ref (Array.length mode_table) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let t, _, _ = mode_table.(mid) in
      if t <= time then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then Some "Pre-Flight"
    else
      let _, _, to_mode = mode_table.(!lo - 1) in
      Some to_mode
  in
  {
    transitions;
    mission_duration = duration;
    instances = Suite.instances;
    instances_of_kind = Suite.count;
    mode_at;
    rng;
  }

type run_result = { unsafe : bool; observed_transitions : float list }

type step = Run of Scenario.t * float | Think of float | Exhausted

type t = {
  name : string;
  next : unit -> step;
  observe : Scenario.t -> run_result -> unit;
}

(* Link outages long enough to outlast the GCS-loss timeout (the firmware
   reacts at ~5 s of silence) and, in the long variant, most of the
   remaining flight. *)
let link_loss_durations = [ 15.0; 40.0 ]

let candidate_sets ctx ~at ~base =
  let fault id = Scenario.sensor_fault id at in
  let kinds = List.sort_uniq compare (List.map (fun i -> i.Sensor.kind) ctx.instances) in
  (* Whole-kind outages first: these defeat the redundancy and are the
     scenarios the firmware's failure handling actually has to survive. *)
  let kind_outage kind =
    List.filter (fun i -> i.Sensor.kind = kind) ctx.instances |> List.map fault
  in
  let whole_kind = List.map kind_outage kinds in
  (* Datalink outages are their own whole-kind loss: there is only one
     link, and silencing it is what exercises the GCS-loss failsafe. *)
  let link_outages =
    List.map
      (fun duration -> [ Scenario.link_loss ~at ~duration ])
      link_loss_durations
  in
  (* Pairs of whole-kind outages: the powerset over sensor *types* that the
     paper's Failures set ranges over (multi-type losses like GPS+battery
     are what PX4-13291 needs). *)
  let rec kind_pairs = function
    | [] -> []
    | k :: rest ->
      List.map (fun k' -> kind_outage k @ kind_outage k') rest @ kind_pairs rest
  in
  let whole_kind_pairs = kind_pairs kinds in
  let singles = List.map (fun id -> [ fault id ]) ctx.instances in
  let all = whole_kind @ link_outages @ whole_kind_pairs @ singles in
  (* Deduplicate (a whole-kind set of a 1-instance kind is also a single;
     a whole-kind set of a 2-instance kind is also a same-kind pair). *)
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun faults ->
      let scenario = Scenario.union base (Scenario.of_faults faults) in
      let key = Scenario.key scenario in
      if Hashtbl.mem seen key || Scenario.cardinality scenario = Scenario.cardinality base
      then None
      else begin
        Hashtbl.add seen key ();
        Some scenario
      end)
    all

let random_scenario ctx =
  let rng = ctx.rng in
  let at = Avis_util.Rng.float rng ctx.mission_duration in
  let all = Array.of_list ctx.instances in
  let u = Avis_util.Rng.uniform rng in
  if u < 0.05 then
    (* Occasionally schedule a datalink outage instead of sensor faults. *)
    let duration = 10.0 +. Avis_util.Rng.float rng 40.0 in
    Scenario.of_faults [ Scenario.link_loss ~at ~duration ]
  else
    let fault () = Scenario.sensor_fault (Avis_util.Rng.choose rng all) at in
    let picks = if u < 0.95 then 1 else if u < 0.995 then 2 else 3 in
    Scenario.of_faults (List.init picks (fun _ -> fault ()))
