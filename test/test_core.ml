(* Tests for avis_core's data structures: the mode graph, the liveliness
   metric, scenarios, the pruning policies, the budget model, the BFI
   model, report bucketing and the bug-study dataset. *)

open Avis_sensors
open Avis_core

(* Mode graph *)

let simple_graph =
  Mode_graph.build
    ~transitions:
      [
        [ ("Pre-Flight", "Takeoff"); ("Takeoff", "Waypoint 1");
          ("Waypoint 1", "Waypoint 2"); ("Waypoint 2", "Land");
          ("Land", "Disarmed") ];
      ]

let test_graph_nodes () =
  Alcotest.(check int) "six modes" 6 (List.length (Mode_graph.modes simple_graph));
  Alcotest.(check bool) "has takeoff" true (Mode_graph.has_mode simple_graph "Takeoff");
  Alcotest.(check bool) "no rtl" false
    (Mode_graph.has_mode simple_graph "Return To Launch")

let test_graph_distances () =
  Alcotest.(check int) "self" 0 (Mode_graph.distance simple_graph "Takeoff" "Takeoff");
  Alcotest.(check int) "adjacent" 1
    (Mode_graph.distance simple_graph "Takeoff" "Waypoint 1");
  Alcotest.(check int) "two hops" 2
    (Mode_graph.distance simple_graph "Takeoff" "Waypoint 2");
  Alcotest.(check int) "symmetric" 2
    (Mode_graph.distance simple_graph "Waypoint 2" "Takeoff")

let test_graph_diameter () =
  Alcotest.(check int) "chain diameter" 5 (Mode_graph.diameter simple_graph);
  Alcotest.(check int) "unknown mode at diameter" 5
    (Mode_graph.distance simple_graph "Takeoff" "Mystery")

let test_graph_merges_runs () =
  let g =
    Mode_graph.build
      ~transitions:[ [ ("A", "B") ]; [ ("B", "C") ]; [ ("A", "B"); ("B", "C") ] ]
  in
  Alcotest.(check int) "three modes" 3 (List.length (Mode_graph.modes g));
  Alcotest.(check int) "across runs" 2 (Mode_graph.distance g "A" "C")

(* The liveliness monitor. [Reference] is the monitor as it judged runs
   before it read columns: every sample a [Trace.sample] record, a full
   [Distance.state_distance] against every padded profiling run at every
   tick, a running minimum, and pairwise loops for P̂, Â and τ. The
   property below requires [Monitor] to give the same bits. *)

module Tr = Avis_sitl.Trace
module Sim = Avis_sitl.Sim
module Vec3 = Avis_geo.Vec3

module Reference = struct
  let pairwise_max traces component =
    let arr = Array.of_list traces in
    let n = Array.length arr in
    let len = Array.fold_left (fun acc tr -> max acc (Tr.length tr)) 0 arr in
    let best = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        for k = 0 to len - 1 do
          let d = component (Tr.nth_padded arr.(i) k) (Tr.nth_padded arr.(j) k) in
          if d > !best then best := d
        done
      done
    done;
    !best

  let nonzero v = if v <= 1e-9 then 1.0 else v

  let p_hat traces =
    nonzero
      (pairwise_max traces (fun a b -> Vec3.dist a.Tr.position b.Tr.position))

  let a_hat traces =
    nonzero
      (pairwise_max traces (fun a b ->
           Vec3.dist a.Tr.acceleration b.Tr.acceleration))

  let spread ~metric norm traces =
    pairwise_max traces (Distance.state_distance ~metric norm)

  let home_distance (s : Tr.sample) = Vec3.norm (Vec3.horizontal s.Tr.position)

  let envelope traces =
    List.fold_left
      (fun (alt, dist) trace ->
        Array.fold_left
          (fun (alt, dist) s ->
            ( Float.max alt s.Tr.position.Vec3.z,
              Float.max dist (home_distance s) ))
          (alt, dist) (Tr.samples trace))
      (0.0, 0.0) traces

  let is_safe_mode m = m = "Return To Launch" || m = "Land" || m = "Disarmed"

  let safe_mode_ok (samples : Tr.sample array) i ~entered_tick ~grounded_ticks =
    let s = samples.(i) in
    let alt = s.Tr.position.Vec3.z in
    if s.Tr.mode = "Return To Launch" then
      if i - entered_tick < 30 then true
      else begin
        let prev = samples.(i - 30) in
        home_distance s < home_distance prev -. 0.1
        || alt > prev.Tr.position.Vec3.z +. 0.2
        || home_distance s < 8.0
      end
    else if s.Tr.mode = "Land" then
      if i - entered_tick < 60 then true
      else begin
        let prev = samples.(i - 30) in
        alt < prev.Tr.position.Vec3.z -. 0.2
        || (alt < 0.3 && grounded_ticks <= 150)
      end
    else if s.Tr.mode = "Disarmed" then alt < 0.5
    else true

  let manual_hover_excuse (samples : Tr.sample array) i =
    let s = samples.(i) in
    if s.Tr.mode <> "Manual" then false
    else if i = 0 then true
    else begin
      let prev = samples.(max 0 (i - 10)) in
      let dt = Float.max 0.1 (s.Tr.time -. prev.Tr.time) in
      Vec3.norm (Vec3.horizontal (Vec3.sub s.Tr.position prev.Tr.position))
      /. dt
      < 1.5
    end

  let classify ~max_alt ~max_home_dist (samples : Tr.sample array) tick =
    let seen =
      Array.fold_left (fun acc s -> Float.max acc s.Tr.position.Vec3.z) 0.0 samples
    in
    if seen < 1.5 && max_alt > 5.0 then Monitor.Takeoff_failure
    else begin
      let away s =
        home_distance s > max_home_dist +. 10.0
        || s.Tr.position.Vec3.z > max_alt +. 10.0
      in
      let n = Array.length samples in
      if away samples.(min tick (n - 1)) || away samples.(n - 1) then
        Monitor.Fly_away
      else Monitor.Stalled
    end

  let first_violation ~metric ~norm ~tau profiles samples =
    let n = Array.length samples in
    let profiles = Array.of_list profiles in
    let result = ref None in
    let live_streak = ref 0 and safe_streak = ref 0 in
    let entered_tick = ref 0 and grounded_ticks = ref 0 in
    let i = ref 0 in
    while !result = None && !i < n do
      let s = samples.(!i) in
      if !i > 0 && samples.(!i - 1).Tr.mode <> s.Tr.mode then begin
        entered_tick := !i;
        grounded_ticks := 0
      end;
      if s.Tr.position.Vec3.z < 0.3 then incr grounded_ticks
      else grounded_ticks := 0;
      if is_safe_mode s.Tr.mode then begin
        if
          safe_mode_ok samples !i ~entered_tick:!entered_tick
            ~grounded_ticks:!grounded_ticks
        then safe_streak := 0
        else begin
          incr safe_streak;
          if !safe_streak >= 5 then
            result :=
              Some (Monitor.Safe_mode_invariant s.Tr.mode, s.Tr.time, s.Tr.mode, !i)
        end
      end
      else safe_streak := 0;
      if !result = None then begin
        let d_min = ref infinity in
        Array.iter
          (fun p ->
            let d = Distance.state_distance ~metric norm s (Tr.nth_padded p !i) in
            if d < !d_min then d_min := d)
          profiles;
        let preflight_refusal =
          s.Tr.mode = "Pre-Flight" && s.Tr.position.Vec3.z < 0.5
        in
        if
          !d_min > tau
          && (not (is_safe_mode s.Tr.mode))
          && (not (manual_hover_excuse samples !i))
          && not preflight_refusal
        then begin
          incr live_streak;
          if !live_streak >= 5 then
            result := Some (Monitor.Liveliness, s.Tr.time, s.Tr.mode, !i)
        end
        else live_streak := 0
      end;
      incr i
    done;
    !result

  let check ~metric ~norm ~tau ~max_alt ~max_home_dist profiles
      (o : Sim.outcome) =
    let samples = Tr.samples o.Sim.trace in
    let n = Array.length samples in
    if n = 0 then Monitor.Safe
    else
      match o.Sim.crash with
      | Some e ->
        Monitor.Unsafe
          {
            kind =
              Monitor.Safety (Format.asprintf "%a" Avis_physics.World.pp_contact e);
            time = o.Sim.duration;
            mode = samples.(n - 1).Tr.mode;
            symptom = Monitor.Crash;
          }
      | None when o.Sim.fence_breached ->
        Monitor.Unsafe
          {
            kind = Monitor.Fence_breach;
            time = o.Sim.duration;
            mode = samples.(n - 1).Tr.mode;
            symptom = Monitor.Fly_away;
          }
      | None -> (
        match first_violation ~metric ~norm ~tau profiles samples with
        | None -> Monitor.Safe
        | Some (kind, time, mode, tick) ->
          Monitor.Unsafe
            {
              kind;
              time;
              mode;
              symptom = classify ~max_alt ~max_home_dist samples tick;
            })
end

(* A generated case: profiling runs of unequal length with per-run mode
   graph edges, and one test run. [flavour] says which verdict the case
   is built to force, so every [Unsafe] kind is exercised. *)

type flavour = Free | Edge | Crash | Fence | Live | Hover | Safe_mode

let flavour_name = function
  | Free -> "free" | Edge -> "edge" | Crash -> "crash" | Fence -> "fence"
  | Live -> "live" | Hover -> "hover" | Safe_mode -> "safe-mode"

type row = {
  x : float; y : float; z : float;
  ax : float; ay : float; az : float;
  label : string;
}

type monitor_case = {
  flavour : flavour;
  runs : row array list;
  edges : (string * string) list list;
  test_run : row array;
  crash : Avis_physics.World.contact_event option;
  fence : bool;
}

let chain =
  [| "Pre-Flight"; "Takeoff"; "Waypoint 1"; "Waypoint 2"; "Return To Launch";
     "Land"; "Disarmed" |]

(* Graph labels, the three safe modes, Manual (a graph node only in some
   cases), "Mystery" (profiled but never a graph node) and "Unseen"
   (only ever in a test run). *)
let run_labels = Array.append chain [| "Manual"; "Mystery" |]
let test_labels = Array.append run_labels [| "Unseen" |]

let gen_monitor_case st =
  let int n = Random.State.int st n in
  let float f = Random.State.float st f in
  let noise f = float (2.0 *. f) -. f in
  let pick a = a.(int (Array.length a)) in
  let flavour = pick [| Free; Free; Edge; Crash; Fence; Live; Hover; Safe_mode |] in
  let nruns = 2 + int 7 in
  let rot = int nruns in
  let lengths = Array.init nruns (fun r -> 20 + (8 * ((r + rot) mod nruns)) + int 8) in
  let shortest = Array.fold_left min max_int lengths in
  let longest = Array.fold_left max 0 lengths in
  let test_length () =
    match int 3 with
    | 0 -> 1 + int (shortest - 1)
    | 1 -> longest + 1 + int 40
    | _ -> shortest + int (longest - shortest + 1)
  in
  let accel () =
    let nan_on = if int 30 = 0 then int 3 else -1 in
    let c i = if i = nan_on then Float.nan else noise 2.0 in
    (c 0, c 1, c 2)
  in
  if flavour = Edge then begin
    (* Identical constant runs on a one-edge graph: P̂ = Â = 1, D = 1 and
       τ is its 0.75 floor, so a test state offset by exactly 0.75 is at
       distance τ. *)
    let c = 0.25 *. float_of_int (int 40) in
    let still = { x = c; y = c; z = 10.0; ax = 0.0; ay = 0.0; az = 0.0; label = "Takeoff" } in
    let runs = Array.to_list (Array.map (fun n -> Array.make n still) lengths) in
    let off = ref 0.0 and label = ref "Takeoff" in
    let test_run =
      Array.init (test_length ()) (fun _ ->
          if int 6 = 0 then off := pick [| 0.0; 0.5; 0.75; 0.75; 0.8125 |];
          if int 6 = 0 then label := pick [| "Takeoff"; "Takeoff"; "Pre-Flight"; "Unseen" |];
          { still with x = c +. !off; label = !label })
    in
    { flavour; runs; edges = List.map (fun _ -> [ ("Takeoff", "Waypoint 1") ]) runs;
      test_run; crash = None; fence = false }
  end
  else begin
    let drift = 0.4 +. float 0.4 in
    let seg = 8 + int 8 in
    let scheduled k = chain.(min (k / seg) (Array.length chain - 1)) in
    let edges_of () =
      let es = ref [] in
      for i = Array.length chain - 2 downto 0 do
        if int 10 < 7 then es := (chain.(i), chain.(i + 1)) :: !es
      done;
      if int 2 = 0 then ("Waypoint 1", "Manual") :: !es else !es
    in
    let run n =
      let ox = float 4.0 and oy = noise 1.0 in
      Array.init n (fun k ->
          let ax, ay, az = accel () in
          {
            x = (drift *. float_of_int k) +. ox +. noise 0.3;
            y = oy +. noise 0.3;
            z = (if k < 3 then 0.0 else 10.0 +. noise 1.0);
            ax; ay; az;
            label = (if int 10 = 0 then pick run_labels else scheduled k);
          })
    in
    let runs = Array.to_list (Array.map run lengths) in
    let first = List.hd runs in
    let padded k = first.(min k (Array.length first - 1)) in
    (* Run 0 relabelled: within τ of the profile, whatever its modes. *)
    let follow k = { (padded k) with label = "Takeoff" } in
    let test_run =
      match flavour with
      | Live ->
        let n = longest + 10 in
        let d = int (n - 5) in
        Array.init n (fun k ->
            let r = follow k in
            if k < d then r else { r with x = r.x +. 1000.0; label = "Waypoint 2" })
      | Hover ->
        (* A Manual hold where run 0 was at tick [d], excused however far
           the profile moves on, then a dash that is not. *)
        let d = int 10 in
        let dash = d + 25 + int 20 in
        let hold = { (follow d) with label = "Manual" } in
        Array.init (dash + 10 + int 10) (fun k ->
            if k < d then follow k
            else if k < dash then hold
            else { hold with y = hold.y +. 1000.0 +. (3.0 *. float_of_int (k - dash)) })
      | Safe_mode ->
        let d = int 10 in
        let label, needed, row =
          match int 3 with
          | 0 -> ("Disarmed", 5, fun k -> { (follow k) with z = 5.0 })
          | 1 -> ("Return To Launch", 35, fun _ -> { (follow 0) with x = 60.0; y = 60.0; z = 10.0 })
          | _ -> ("Land", 65, fun _ -> { (follow 0) with z = 10.0 })
        in
        Array.init (d + needed + int 20) (fun k ->
            if k < d then follow k else { (row k) with label })
      | Free | Crash | Fence | Edge ->
        (* Segments of offset, label, altitude and motion: a hovering
           segment is what the Manual excuse looks for. *)
        let off = ref 0.0 and label = ref (scheduled 0) and alt = ref 10.0 in
        let along = ref 0.0 and moving = ref true in
        Array.init (test_length ()) (fun _ ->
            if int 10 = 0 then off := noise 8.0;
            if int 7 = 0 then label := pick test_labels;
            if int 12 = 0 then alt := pick [| 10.0; 10.0; 2.0; 0.4; 0.2 |];
            if int 8 = 0 then moving := not !moving;
            if !moving then along := !along +. drift;
            let ax, ay, az = accel () in
            {
              x = !along +. !off +. noise 0.3;
              y = noise 0.5;
              z = !alt +. noise 0.05;
              ax; ay; az;
              label = !label;
            })
    in
    let crash =
      if flavour = Crash then
        Some
          (pick
             [| Avis_physics.World.Ground_impact { speed = 3.0 +. float 5.0 };
                Avis_physics.World.Tipover |])
      else None
    in
    { flavour; runs; edges = List.map (fun _ -> edges_of ()) runs; test_run;
      crash; fence = flavour = Fence }
  end

let print_monitor_case c =
  Printf.sprintf "%s: runs of %s ticks, test run of %d"
    (flavour_name c.flavour)
    (String.concat "/"
       (List.map (fun r -> string_of_int (Array.length r)) c.runs))
    (Array.length c.test_run)

let trace_of rows =
  let tr = Tr.create ~period:0.0 () in
  let world = Avis_physics.World.create () in
  let body = Avis_physics.World.body world in
  Array.iteri
    (fun k r ->
      Avis_physics.Rigid_body.set_position body (Vec3.make r.x r.y r.z);
      Avis_physics.Rigid_body.set_acceleration body (Vec3.make r.ax r.ay r.az);
      Tr.record tr ~steps:k ~dt:0.1 world ~mode:r.label)
    rows;
  tr

let outcome_of ?crash ?(fence = false) ?(edges = []) rows =
  {
    Sim.trace = trace_of rows;
    crash;
    fence_breached = fence;
    workload_passed = true;
    transitions =
      List.map
        (fun (from_mode, to_mode) -> { Avis_hinj.Hinj.time = 0.0; from_mode; to_mode })
        edges;
    triggered_bugs = [];
    duration = 0.1 *. float_of_int (Array.length rows);
    sensor_reads = 0;
  }

let verdict_to_string = function
  | Monitor.Safe -> "Safe"
  | Monitor.Unsafe v ->
    Printf.sprintf "%s [time bits %Lx, %s]" (Monitor.describe v)
      (Int64.bits_of_float v.Monitor.time)
      (Monitor.symptom_to_string v.Monitor.symptom)

let same_verdict a b =
  match (a, b) with
  | Monitor.Safe, Monitor.Safe -> true
  | Monitor.Unsafe a, Monitor.Unsafe b ->
    a.Monitor.kind = b.Monitor.kind
    && Int64.equal (Int64.bits_of_float a.Monitor.time) (Int64.bits_of_float b.Monitor.time)
    && String.equal a.Monitor.mode b.Monitor.mode
    && a.Monitor.symptom = b.Monitor.symptom
  | Monitor.Safe, Monitor.Unsafe _ | Monitor.Unsafe _, Monitor.Safe -> false

let forced_kind_holds flavour verdict =
  match (flavour, verdict) with
  | (Free | Edge), _ -> true
  | Crash, Monitor.Unsafe { kind = Monitor.Safety _; _ }
  | Fence, Monitor.Unsafe { kind = Monitor.Fence_breach; _ }
  | (Live | Hover), Monitor.Unsafe { kind = Monitor.Liveliness; _ }
  | Safe_mode, Monitor.Unsafe { kind = Monitor.Safe_mode_invariant _; _ } -> true
  | (Crash | Fence | Live | Hover | Safe_mode), _ -> false

let prop_monitor_matches_reference =
  QCheck.Test.make ~count:600 ~name:"columnar monitor = reference monitor"
    (QCheck.make ~print:print_monitor_case gen_monitor_case)
    (fun c ->
      let profiling = List.map2 (fun rows edges -> outcome_of ~edges rows) c.runs c.edges in
      let outcome = outcome_of ?crash:c.crash ~fence:c.fence c.test_run in
      let profile = Monitor.build_profile profiling in
      let norm = Monitor.normalisers profile in
      let traces = List.map (fun o -> o.Sim.trace) profiling in
      let bits = Int64.bits_of_float in
      let same_bits what expected got =
        if not (Int64.equal (bits expected) (bits got)) then
          QCheck.Test.fail_reportf "%s: reference %h, columns %h" what expected got
      in
      same_bits "P̂" (Reference.p_hat traces) (Distance.p_hat norm);
      same_bits "Â" (Reference.a_hat traces) (Distance.a_hat norm);
      let tau_of metric =
        let spread = Reference.spread ~metric norm traces in
        same_bits "spread" spread (Distance.spread ~metric norm);
        Float.max 0.75 (1.35 *. spread)
      in
      same_bits "τ" (tau_of Distance.Full) (Monitor.tau profile);
      let max_alt, max_home_dist = Reference.envelope traces in
      List.iter
        (fun metric ->
          let expected =
            Reference.check ~metric ~norm ~tau:(tau_of metric) ~max_alt ~max_home_dist
              traces outcome
          in
          let got = Monitor.check ~metric profile outcome in
          if not (same_verdict expected got) then
            QCheck.Test.fail_reportf "%s metric: reference %s, columns %s"
              (match metric with Distance.Full -> "full" | Distance.Position_only -> "position")
              (verdict_to_string expected) (verdict_to_string got);
          (match
             ( (match expected with Monitor.Safe -> None | Monitor.Unsafe v -> Some v.Monitor.time),
               Monitor.detection_time ~metric profile outcome )
           with
          | None, None -> ()
          | Some a, Some b -> same_bits "detection time" a b
          | _ -> QCheck.Test.fail_reportf "detection time disagrees");
          if not (forced_kind_holds c.flavour expected) then
            QCheck.Test.fail_reportf "a %s case judged %s" (flavour_name c.flavour)
              (verdict_to_string expected))
        [ Distance.Full; Distance.Position_only ];
      true)

(* Scenario *)

let id kind index = { Sensor.kind; index }

let fault kind index at = Scenario.sensor_fault (id kind index) at

let test_scenario_canonical () =
  let a = Scenario.of_faults [ fault Sensor.Gps 1 5.0; fault Sensor.Gps 0 2.0 ] in
  let b = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Gps 1 5.0 ] in
  Alcotest.(check string) "same key" (Scenario.key a) (Scenario.key b);
  Alcotest.(check int) "dedup" 1
    (Scenario.cardinality (Scenario.of_faults [ fault Sensor.Gps 0 1.0; fault Sensor.Gps 0 1.0 ]))

let test_scenario_role_key () =
  (* Two backups of the same kind at the same time are symmetric... *)
  let compass_b1 = Scenario.of_faults [ fault Sensor.Compass 1 3.0 ] in
  let compass_b2 = Scenario.of_faults [ fault Sensor.Compass 1 3.0 ] in
  Alcotest.(check string) "backup symmetric" (Scenario.role_key compass_b1)
    (Scenario.role_key compass_b2);
  (* ...but primary vs backup differ. *)
  let compass_p = Scenario.of_faults [ fault Sensor.Compass 0 3.0 ] in
  Alcotest.(check bool) "primary distinct" true
    (Scenario.role_key compass_p <> Scenario.role_key compass_b1)

let test_scenario_subsumes () =
  let small = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  let large = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Battery 0 4.0 ] in
  Alcotest.(check bool) "subset" true (Scenario.subsumes ~smaller:small ~larger:large);
  Alcotest.(check bool) "not superset" false
    (Scenario.subsumes ~smaller:large ~larger:small);
  let shifted = Scenario.of_faults [ fault Sensor.Gps 0 2.5 ] in
  Alcotest.(check bool) "different time" false
    (Scenario.subsumes ~smaller:shifted ~larger:large)

let test_scenario_first_injection () =
  let s = Scenario.of_faults [ fault Sensor.Gps 0 7.0; fault Sensor.Barometer 0 3.0 ] in
  Alcotest.(check (option (float 1e-9))) "earliest" (Some 3.0)
    (Scenario.first_injection_time s);
  Alcotest.(check (option (float 1e-9))) "empty" None
    (Scenario.first_injection_time Scenario.empty);
  let with_link =
    Scenario.of_faults
      [ fault Sensor.Gps 0 7.0; Scenario.link_loss ~at:2.0 ~duration:15.0 ]
  in
  Alcotest.(check (option (float 1e-9))) "link counted" (Some 2.0)
    (Scenario.first_injection_time with_link)

let smaller_sensor_only = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ]

let test_scenario_link_faults () =
  let l = Scenario.link_loss ~at:5.0 ~duration:15.0 in
  let s = Scenario.of_faults [ l; fault Sensor.Gps 0 2.0 ] in
  (* Canonical key is insensitive to listing order and names the outage. *)
  let s' = Scenario.of_faults [ fault Sensor.Gps 0 2.0; l ] in
  Alcotest.(check string) "same key" (Scenario.key s) (Scenario.key s');
  Alcotest.(check bool) "key names link" true
    (let rec contains i =
       i + 4 <= String.length (Scenario.key s)
       && (String.sub (Scenario.key s) i 4 = "link" || contains (i + 1))
     in
     contains 0);
  (* Link losses dedupe like any other fault and have no instance symmetry:
     the role key keeps them verbatim. *)
  Alcotest.(check int) "dedup" 1
    (Scenario.cardinality (Scenario.of_faults [ l; Scenario.link_loss ~at:5.0 ~duration:15.0 ]));
  Alcotest.(check string) "role key verbatim"
    (Scenario.role_key (Scenario.of_faults [ l ]))
    (Scenario.role_key (Scenario.of_faults [ Scenario.link_loss ~at:5.0 ~duration:15.0 ]));
  (* Durations distinguish outages even at the same start time. *)
  Alcotest.(check bool) "duration matters" true
    (Scenario.key (Scenario.of_faults [ l ])
    <> Scenario.key (Scenario.of_faults [ Scenario.link_loss ~at:5.0 ~duration:30.0 ]));
  (* Subsumption sees link faults like sensor faults. *)
  let smaller = Scenario.of_faults [ l ] in
  Alcotest.(check bool) "link subset" true
    (Scenario.subsumes ~smaller ~larger:s);
  Alcotest.(check bool) "not superset" false
    (Scenario.subsumes ~smaller:s ~larger:smaller);
  (* Only sensor faults become injector plans; outages go to the link. *)
  Alcotest.(check int) "plan excludes link" 1 (List.length (Scenario.to_plan s));
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "outages" [ (5.0, 15.0) ]
    (Scenario.link_outages s);
  Alcotest.(check bool) "has link loss" true (Scenario.has_link_loss s);
  Alcotest.(check bool) "sensor-only has none" false
    (Scenario.has_link_loss smaller_sensor_only)

(* Prune *)

let test_prune_dedup () =
  let p = Prune.create () in
  let s = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  Alcotest.(check bool) "fresh" false (Prune.should_prune p s);
  Prune.note_run p s;
  Alcotest.(check bool) "repeat pruned" true (Prune.should_prune p s)

let test_prune_symmetry () =
  let p = Prune.create () in
  Prune.note_run p (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]);
  (* A different backup instance of a 3-compass vehicle would map to the
     same role key; with 2 compasses index 1 is the only backup, so test
     with gps backup which shares the role structure. *)
  Alcotest.(check bool) "equivalent role pruned" true
    (Prune.should_prune p (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]));
  let p' = Prune.create ~symmetry:false () in
  Prune.note_run p' (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]);
  Alcotest.(check bool) "exact key still pruned without symmetry" true
    (Prune.should_prune p' (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]))

let test_prune_found_bug () =
  let p = Prune.create () in
  let bug = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  Prune.note_bug p bug;
  let superset = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Battery 0 2.0 ] in
  Alcotest.(check bool) "superset pruned" true (Prune.should_prune p superset);
  let p' = Prune.create ~found_bug:false () in
  Prune.note_bug p' bug;
  Alcotest.(check bool) "policy off" false (Prune.should_prune p' superset)

let test_prune_formulas () =
  (* Fig. 6: three compasses, 21 -> 5. *)
  Alcotest.(check int) "N(2^N-1) for 3" 21 (Prune.unpruned_scenarios ~instances:3);
  Alcotest.(check int) "2N-1 for 3" 5 (Prune.symmetry_scenarios ~instances:3);
  Alcotest.(check int) "2N-1 for 1" 1 (Prune.symmetry_scenarios ~instances:1)

let prop_symmetry_saves =
  QCheck.Test.make ~name:"symmetry always reduces for N >= 2" ~count:20
    (QCheck.int_range 2 12)
    (fun n ->
      Prune.symmetry_scenarios ~instances:n < Prune.unpruned_scenarios ~instances:n)

(* Budget *)

let test_budget_accounting () =
  let b = Budget.create ~speedup:10.0 ~total_s:100.0 () in
  Budget.charge_simulation b ~sim_seconds:100.0;
  Alcotest.(check (float 1e-9)) "sim cost scaled" 10.0 (Budget.spent_s b);
  Budget.charge_inference b 5.0;
  Alcotest.(check (float 1e-9)) "inference full price" 15.0 (Budget.spent_s b);
  Alcotest.(check bool) "not exhausted" false (Budget.exhausted b);
  Alcotest.(check bool) "can afford" true (Budget.can_afford_run b ~sim_seconds:800.0);
  Alcotest.(check bool) "cannot afford" false (Budget.can_afford_run b ~sim_seconds:900.0);
  Budget.charge_inference b 85.0;
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check int) "counters" 1 (Budget.simulations_run b);
  Alcotest.(check int) "inferences" 2 (Budget.inferences_run b)

let test_budget_rejects_nonpositive () =
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Budget.create: non-positive budget") (fun () ->
      ignore (Budget.create ~total_s:0.0 ()))

let test_budget_overshoot_clamped () =
  let b = Budget.create ~speedup:1.0 ~total_s:10.0 () in
  Budget.charge_simulation b ~sim_seconds:25.0;
  Alcotest.(check (float 1e-9)) "simulation saturates at total" 10.0
    (Budget.spent_s b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check (float 1e-9)) "nothing left" 0.0 (Budget.remaining_s b);
  let b' = Budget.create ~speedup:1.0 ~total_s:10.0 () in
  Budget.charge_inference b' 9.0;
  Budget.charge_inference b' 9.0;
  Alcotest.(check (float 1e-9)) "inference saturates at total" 10.0
    (Budget.spent_s b')

let test_budget_zero_cost_inference_floored () =
  let b = Budget.create ~speedup:1.0 ~total_s:1.0 () in
  Budget.charge_inference b 0.0;
  Alcotest.(check (float 1e-12)) "zero cost still charged"
    Budget.min_inference_s (Budget.spent_s b);
  Budget.charge_inference b (-5.0);
  Alcotest.(check (float 1e-12)) "negative cost floored too"
    (2.0 *. Budget.min_inference_s) (Budget.spent_s b);
  Alcotest.(check int) "both counted" 2 (Budget.inferences_run b)

let test_budget_afford_matches_charge () =
  (* What can_afford_run approves must be exactly what charge_simulation
     books: an exact fit drains the budget to zero, not past it. *)
  let b = Budget.create ~speedup:2.0 ~total_s:10.0 () in
  Alcotest.(check bool) "exact fit affordable" true
    (Budget.can_afford_run b ~sim_seconds:20.0);
  Budget.charge_simulation b ~sim_seconds:20.0;
  Alcotest.(check (float 1e-9)) "charged what was approved" 10.0
    (Budget.spent_s b);
  Alcotest.(check bool) "now exhausted" true (Budget.exhausted b);
  Alcotest.(check bool) "nothing further affordable" false
    (Budget.can_afford_run b ~sim_seconds:0.1)

(* BFI model *)

let test_bfi_mode_class () =
  Alcotest.(check string) "waypoint collapsed" "Waypoint"
    (Bfi_model.mode_class_of_label "Waypoint 7");
  Alcotest.(check string) "others kept" "Land" (Bfi_model.mode_class_of_label "Land")

let test_bfi_model_distribution () =
  let model = Bfi_model.default () in
  let features mode whole =
    { Bfi_model.mode_class = mode; kinds = [ Sensor.Gps ];
      whole_kind_lost = whole; multiplicity = 1 }
  in
  let cruise = Bfi_model.predict model (features "Waypoint" true) in
  let takeoff = Bfi_model.predict model (features "Takeoff" true) in
  Alcotest.(check bool) "cruise scored higher" true (cruise > takeoff);
  Alcotest.(check bool) "cruise approved" true (cruise > 0.5);
  Alcotest.(check bool) "takeoff rejected" true (takeoff < 0.5);
  let multi =
    Bfi_model.predict model
      { Bfi_model.mode_class = "Waypoint"; kinds = [ Sensor.Gps; Sensor.Battery ];
        whole_kind_lost = true; multiplicity = 2 }
  in
  Alcotest.(check bool) "multi-failure rejected" true (multi < 0.5)

let test_bfi_predict_probability_range () =
  let model = Bfi_model.default () in
  List.iter
    (fun mode ->
      let p =
        Bfi_model.predict model
          { Bfi_model.mode_class = mode; kinds = [ Sensor.Compass ];
            whole_kind_lost = false; multiplicity = 1 }
      in
      Alcotest.(check bool) "in (0,1)" true (p > 0.0 && p < 1.0))
    [ "Takeoff"; "Waypoint"; "Manual"; "Land" ]

let test_bfi_train_empty () =
  Alcotest.check_raises "empty corpus"
    (Invalid_argument "Bfi_model.train: empty corpus") (fun () ->
      ignore (Bfi_model.train []))

(* Report buckets *)

let test_report_buckets () =
  Alcotest.(check string) "waypoint" "Waypoint"
    (Report.bucket_label (Report.bucket_of_mode "Waypoint 2"));
  Alcotest.(check string) "preflight folds to takeoff" "Takeoff"
    (Report.bucket_label (Report.bucket_of_mode "Pre-Flight"));
  Alcotest.(check string) "rtl folds to land" "Land"
    (Report.bucket_label (Report.bucket_of_mode "Return To Launch"))

let test_report_mode_at () =
  let transitions =
    [
      { Avis_hinj.Hinj.time = 2.0; from_mode = "Pre-Flight"; to_mode = "Takeoff" };
      { Avis_hinj.Hinj.time = 10.0; from_mode = "Takeoff"; to_mode = "Waypoint 1" };
    ]
  in
  Alcotest.(check string) "before all" "Pre-Flight"
    (Report.mode_at_from_transitions transitions 1.0);
  Alcotest.(check string) "mid" "Takeoff"
    (Report.mode_at_from_transitions transitions 5.0);
  (* A transition at exactly the query time is attributed to the mode
     before it. *)
  Alcotest.(check string) "boundary" "Takeoff"
    (Report.mode_at_from_transitions transitions 10.0)

(* Bug study *)

(* Fault spec parsing (the CLI's --fault syntax) *)

let test_fault_spec_parses () =
  let ok s expect =
    match Fault_spec.parse s with
    | Ok t ->
      Alcotest.(check bool) (s ^ " fields") true (t = expect);
      (* Canonical print round-trips. *)
      Alcotest.(check bool) (s ^ " round-trips") true
        (Fault_spec.parse (Fault_spec.to_string t) = Ok t)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "gps@12.5" { Fault_spec.kind = Sensor.Gps; index = None; at = 12.5 };
  ok "gps[0]@12.5" { Fault_spec.kind = Sensor.Gps; index = Some 0; at = 12.5 };
  ok "barometer[2]@0"
    { Fault_spec.kind = Sensor.Barometer; index = Some 2; at = 0.0 }

let test_fault_spec_rejects () =
  let rejects s =
    match Fault_spec.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter rejects
    [
      (* Regression: a malformed index used to degrade silently to an
         all-instances fault. *)
      "gps[abc]@5";
      "gps[]@5";
      "gps[1@5";
      "gps[1]]@5";
      "gps[-1]@5";
      (* Times must be finite and non-negative. Regression: "inf" used to
         parse, producing a scenario that can never fire yet still
         charges budget. *)
      "gps@nan";
      "gps@inf";
      "gps@infinity";
      "gps@-inf";
      "gps@1e999";
      "gps@-1";
      "gps@";
      "gps";
      (* Unknown sensor kinds. *)
      "sonar@5";
      "@5";
    ]

(* to_string then parse must reproduce any spec exactly. Times are drawn
   on a grid that "%g" renders losslessly (at most 6 significant digits),
   which covers every time a user could have typed back in. *)
let test_fault_spec_roundtrip_qcheck =
  let gen =
    QCheck.Gen.(
      let* kind =
        oneofl
          Sensor.
            [ Accelerometer; Gyroscope; Compass; Gps; Barometer; Battery ]
      in
      let* index = opt (int_bound 3) in
      let* at =
        oneof
          [
            map (fun d -> float_of_int d /. 100.0) (int_bound 100_000);
            map float_of_int (int_bound 1_000_000);
            return 0.0;
          ]
      in
      return { Fault_spec.kind; index; at })
  in
  QCheck.Test.make ~count:500 ~name:"fault spec to_string/parse round-trips"
    (QCheck.make gen)
    (fun spec ->
      match Fault_spec.parse (Fault_spec.to_string spec) with
      | Ok parsed ->
        if parsed <> spec then
          QCheck.Test.fail_reportf "round-trip changed %S to %S"
            (Fault_spec.to_string spec)
            (Fault_spec.to_string parsed)
        else true
      | Error e ->
        QCheck.Test.fail_reportf "parse %S failed: %s"
          (Fault_spec.to_string spec) e)

let test_bugstudy_totals () =
  Alcotest.(check int) "215 records" 215 Avis_bugstudy.Bugstudy.total;
  Alcotest.(check int) "44 sensor bugs" 44
    (List.length Avis_bugstudy.Bugstudy.sensor_bugs)

let test_bugstudy_findings () =
  let open Avis_bugstudy.Bugstudy in
  Alcotest.(check bool) "finding 1: ~20% sensor" true
    (Float.abs (fraction_by_cause Sensor_fault -. 0.20) < 0.015);
  Alcotest.(check bool) "finding 1: ~40% of crashes" true
    (Float.abs (crash_fraction_by_cause Sensor_fault -. 0.40) < 0.02);
  Alcotest.(check bool) "finding 2: ~47% default-reproducible" true
    (Float.abs (sensor_default_reproducible_fraction -. 0.47) < 0.02);
  Alcotest.(check bool) "finding 3: ~34% serious" true
    (Float.abs (sensor_serious_fraction -. 0.34) < 0.02);
  Alcotest.(check bool) "semantic ~90% asymptomatic" true
    (Float.abs (semantic_asymptomatic_fraction -. 0.90) < 0.02)

let test_bugstudy_symptom_breakdown_sums () =
  let open Avis_bugstudy.Bugstudy in
  let total_sensor =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (symptom_breakdown sensor_bugs)
  in
  Alcotest.(check int) "breakdown covers all" 44 total_sensor

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_core"
    [
      ( "mode graph",
        [
          Alcotest.test_case "nodes" `Quick test_graph_nodes;
          Alcotest.test_case "distances" `Quick test_graph_distances;
          Alcotest.test_case "diameter" `Quick test_graph_diameter;
          Alcotest.test_case "merges runs" `Quick test_graph_merges_runs;
        ] );
      ("monitor", [ q prop_monitor_matches_reference ]);
      ( "scenario",
        [
          Alcotest.test_case "canonical" `Quick test_scenario_canonical;
          Alcotest.test_case "role key" `Quick test_scenario_role_key;
          Alcotest.test_case "subsumes" `Quick test_scenario_subsumes;
          Alcotest.test_case "first injection" `Quick test_scenario_first_injection;
          Alcotest.test_case "link faults" `Quick test_scenario_link_faults;
        ] );
      ( "prune",
        [
          Alcotest.test_case "dedup" `Quick test_prune_dedup;
          Alcotest.test_case "symmetry" `Quick test_prune_symmetry;
          Alcotest.test_case "found bug" `Quick test_prune_found_bug;
          Alcotest.test_case "formulas" `Quick test_prune_formulas;
          q prop_symmetry_saves;
        ] );
      ( "budget",
        [
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "rejects nonpositive" `Quick test_budget_rejects_nonpositive;
          Alcotest.test_case "overshoot clamped" `Quick test_budget_overshoot_clamped;
          Alcotest.test_case "zero-cost inference floored" `Quick test_budget_zero_cost_inference_floored;
          Alcotest.test_case "afford matches charge" `Quick test_budget_afford_matches_charge;
        ] );
      ( "bfi model",
        [
          Alcotest.test_case "mode class" `Quick test_bfi_mode_class;
          Alcotest.test_case "distribution" `Quick test_bfi_model_distribution;
          Alcotest.test_case "probability range" `Quick test_bfi_predict_probability_range;
          Alcotest.test_case "train empty" `Quick test_bfi_train_empty;
        ] );
      ( "report",
        [
          Alcotest.test_case "buckets" `Quick test_report_buckets;
          Alcotest.test_case "mode at" `Quick test_report_mode_at;
        ] );
      ( "fault spec",
        [
          Alcotest.test_case "parses" `Quick test_fault_spec_parses;
          Alcotest.test_case "rejects malformed" `Quick test_fault_spec_rejects;
          q test_fault_spec_roundtrip_qcheck;
        ] );
      ( "bug study",
        [
          Alcotest.test_case "totals" `Quick test_bugstudy_totals;
          Alcotest.test_case "findings" `Quick test_bugstudy_findings;
          Alcotest.test_case "breakdown sums" `Quick test_bugstudy_symptom_breakdown_sums;
        ] );
    ]
