(* Tests for the search strategies: the shared candidate generator and the
   scheduling orders of SABRE, DFS, BFS, Random and the BFI variants. *)

open Avis_sensors
open Avis_core

let make_ctx ?(transitions = [ (2.0, "Pre-Flight", "Takeoff"); (10.0, "Takeoff", "Waypoint 1"); (30.0, "Waypoint 1", "Land") ]) () =
  let instances = Suite.instances in
  {
    Search.transitions;
    mission_duration = 50.0;
    instances;
    instances_of_kind =
      (fun kind ->
        List.length (List.filter (fun i -> i.Sensor.kind = kind) instances));
    mode_at =
      (fun time ->
        List.fold_left
          (fun acc (t, _, to_mode) -> if t <= time then Some to_mode else acc)
          (Some "Pre-Flight") transitions);
    rng = Avis_util.Rng.create 1;
  }

let drain ?(limit = 1000) searcher =
  (* Pull scenarios, reporting every run as safe with no transitions. *)
  let rec loop acc n =
    if n >= limit then List.rev acc
    else
      match searcher.Search.next () with
      | Search.Exhausted -> List.rev acc
      | Search.Think _ -> loop acc (n + 1)
      | Search.Run (scenario, _) ->
        searcher.Search.observe scenario
          { Search.unsafe = false; observed_transitions = [] };
        loop (scenario :: acc) (n + 1)
  in
  loop [] 0

let injection_time scenario =
  match Scenario.first_injection_time scenario with
  | Some t -> t
  | None -> Alcotest.fail "scenario without faults"

let test_candidates_cover_whole_kinds () =
  let ctx = make_ctx () in
  let candidates = Search.candidate_sets ctx ~at:5.0 ~base:Scenario.empty in
  (* Every redundant kind's whole-kind outage must be present. *)
  List.iter
    (fun kind ->
      let whole =
        List.exists
          (fun s ->
            let of_kind =
              List.filter (fun i -> i.Sensor.kind = kind) (Scenario.sensors_failed s)
            in
            List.length of_kind = ctx.Search.instances_of_kind kind)
          candidates
      in
      Alcotest.(check bool) (Sensor.kind_to_string kind ^ " whole-kind set") true whole)
    Sensor.all_kinds;
  (* No duplicates. *)
  let keys = List.map Scenario.key candidates in
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_candidates_whole_kind_first () =
  let ctx = make_ctx () in
  let candidates = Search.candidate_sets ctx ~at:5.0 ~base:Scenario.empty in
  let first = List.hd candidates in
  Alcotest.(check bool) "first defeats redundancy" true
    (Scenario.cardinality first >= 2
    ||
    let ids = Scenario.sensors_failed first in
    List.length ids = 1
    && ctx.Search.instances_of_kind (List.hd ids).Sensor.kind = 1)

let test_candidates_include_link_loss () =
  let ctx = make_ctx () in
  let candidates = Search.candidate_sets ctx ~at:5.0 ~base:Scenario.empty in
  let outages = List.filter Scenario.has_link_loss candidates in
  Alcotest.(check bool) "link outages offered" true (outages <> []);
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9)) "scheduled at the site" 5.0
        (injection_time s))
    outages

let test_candidates_compose_base () =
  let ctx = make_ctx () in
  let base =
    Scenario.of_faults [ Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 3.0 ]
  in
  let candidates = Search.candidate_sets ctx ~at:8.0 ~base in
  List.iter
    (fun s ->
      Alcotest.(check bool) "contains base" true (Scenario.subsumes ~smaller:base ~larger:s))
    candidates

let test_sabre_starts_at_transitions () =
  let ctx = make_ctx () in
  let searcher = Sabre.make ctx in
  let scenarios = drain ~limit:30 searcher in
  Alcotest.(check bool) "nonempty" true (scenarios <> []);
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-6)) "first site is the first transition" 2.0
        (injection_time s))
    (List.filteri (fun i _ -> i < 3) scenarios)

let test_sabre_visits_all_transitions_before_shifts () =
  let ctx = make_ctx () in
  let searcher = Sabre.make ctx in
  let scenarios = drain ~limit:400 searcher in
  let times = List.sort_uniq compare (List.map injection_time scenarios) in
  Alcotest.(check bool) "site times include all transitions" true
    (List.mem 2.0 times && List.mem 10.0 times && List.mem 30.0 times)

let test_sabre_shifted_resites () =
  let ctx = make_ctx ~transitions:[ (2.0, "Pre-Flight", "Takeoff") ] () in
  let searcher = Sabre.make ctx in
  let scenarios = drain ~limit:300 searcher in
  let times = List.sort_uniq compare (List.map injection_time scenarios) in
  (* Line 20: after exhausting the site at 2.0, SABRE revisits 2.5, 3.0... *)
  Alcotest.(check bool) "shifted sites appear" true (List.mem 2.5 times)

let test_sabre_composes_on_observed_transitions () =
  let ctx = make_ctx ~transitions:[ (2.0, "Pre-Flight", "Takeoff") ] () in
  let searcher = Sabre.make ctx in
  (* Run one scenario and report a new transition at 20 s; later scenarios
     should compose on top of it. *)
  let first =
    match searcher.Search.next () with
    | Search.Run (s, _) -> s
    | _ -> Alcotest.fail "expected a run"
  in
  searcher.Search.observe first
    { Search.unsafe = false; observed_transitions = [ 20.0 ] };
  let rest = drain ~limit:2000 searcher in
  let composed =
    List.exists
      (fun s ->
        Scenario.cardinality s > Scenario.cardinality first
        && Scenario.subsumes ~smaller:first ~larger:s)
      rest
  in
  Alcotest.(check bool) "composite scenario generated" true composed

let test_sabre_found_bug_pruning () =
  let ctx = make_ctx ~transitions:[ (2.0, "Pre-Flight", "Takeoff") ] () in
  let searcher = Sabre.make ctx in
  (* Report the first scenario as a bug; no later scenario may subsume it. *)
  let first =
    match searcher.Search.next () with
    | Search.Run (s, _) -> s
    | _ -> Alcotest.fail "expected a run"
  in
  searcher.Search.observe first
    { Search.unsafe = true; observed_transitions = [] };
  let rest = drain ~limit:500 searcher in
  List.iter
    (fun s ->
      Alcotest.(check bool) "not a superset of the bug" false
        (Scenario.subsumes ~smaller:first ~larger:s))
    rest

let test_dfs_descends () =
  let ctx = make_ctx () in
  let searcher = Dfs.make ctx in
  let scenarios = drain ~limit:200 searcher in
  let times = List.map injection_time scenarios in
  let sorted_desc = List.sort (fun a b -> compare b a) times in
  Alcotest.(check (list (float 1e-9))) "monotonically late-to-early" sorted_desc times;
  Alcotest.(check bool) "starts at the end" true
    (Float.abs (List.hd times -. ctx.Search.mission_duration) < 0.2)

let test_bfs_ascends () =
  let ctx = make_ctx () in
  let searcher = Bfs.make ctx in
  let scenarios = drain ~limit:200 searcher in
  let times = List.map injection_time scenarios in
  let sorted_asc = List.sort compare times in
  Alcotest.(check (list (float 1e-9))) "monotonically early-to-late" sorted_asc times;
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (List.hd times)

let test_random_within_mission () =
  let ctx = make_ctx () in
  let searcher = Random_search.make ctx in
  let scenarios = drain ~limit:300 searcher in
  Alcotest.(check int) "streams freely" 300 (List.length scenarios);
  List.iter
    (fun s ->
      let t = injection_time s in
      Alcotest.(check bool) "inside mission" true
        (t >= 0.0 && t <= ctx.Search.mission_duration))
    scenarios

let test_random_mostly_single_faults () =
  let ctx = make_ctx () in
  let searcher = Random_search.make ctx in
  let scenarios = drain ~limit:500 searcher in
  let singles =
    List.length (List.filter (fun s -> Scenario.cardinality s = 1) scenarios)
  in
  Alcotest.(check bool) "over half are single-instance" true
    (float_of_int singles /. float_of_int (List.length scenarios) > 0.5)

let test_bfi_pays_inference () =
  let ctx = make_ctx () in
  let searcher = Bfi.make ctx in
  let inference = ref 0.0 in
  let runs = ref 0 in
  for _ = 1 to 200 do
    match searcher.Search.next () with
    | Search.Run (s, cost) ->
      inference := !inference +. cost;
      incr runs;
      searcher.Search.observe s { Search.unsafe = false; observed_transitions = [] }
    | Search.Think cost -> inference := !inference +. cost
    | Search.Exhausted -> ()
  done;
  Alcotest.(check bool) "inference dominates" true (!inference >= 1000.0);
  Alcotest.(check bool) "rarely runs" true (!runs <= 20)

let test_strat_bfi_gates_by_mode () =
  (* All sites in Takeoff: the model rejects everything. *)
  let ctx = make_ctx ~transitions:[ (2.0, "Pre-Flight", "Takeoff") ] () in
  let searcher = Strat_bfi.make ctx in
  let ran = ref 0 and thought = ref 0 in
  for _ = 1 to 100 do
    match searcher.Search.next () with
    | Search.Run (s, _) ->
      incr ran;
      searcher.Search.observe s { Search.unsafe = false; observed_transitions = [] }
    | Search.Think _ -> incr thought
    | Search.Exhausted -> ()
  done;
  Alcotest.(check int) "nothing approved at takeoff" 0 !ran;
  Alcotest.(check bool) "candidates were considered" true (!thought > 50);
  (* Cruise sites get approvals. *)
  let ctx' = make_ctx ~transitions:[ (10.0, "Takeoff", "Waypoint 1") ] () in
  let searcher' = Strat_bfi.make ctx' in
  let ran' = ref 0 in
  for _ = 1 to 100 do
    match searcher'.Search.next () with
    | Search.Run (s, _) ->
      incr ran';
      searcher'.Search.observe s { Search.unsafe = false; observed_transitions = [] }
    | Search.Think _ | Search.Exhausted -> ()
  done;
  Alcotest.(check bool) "cruise scenarios approved" true (!ran' > 0)

let () =
  Alcotest.run "avis_search"
    [
      ( "candidates",
        [
          Alcotest.test_case "whole kinds covered" `Quick test_candidates_cover_whole_kinds;
          Alcotest.test_case "whole kinds first" `Quick test_candidates_whole_kind_first;
          Alcotest.test_case "compose base" `Quick test_candidates_compose_base;
          Alcotest.test_case "link loss offered" `Quick
            test_candidates_include_link_loss;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "starts at transitions" `Quick test_sabre_starts_at_transitions;
          Alcotest.test_case "visits all transitions" `Quick test_sabre_visits_all_transitions_before_shifts;
          Alcotest.test_case "shifted revisits" `Quick test_sabre_shifted_resites;
          Alcotest.test_case "composes scenarios" `Quick test_sabre_composes_on_observed_transitions;
          Alcotest.test_case "found-bug pruning" `Quick test_sabre_found_bug_pruning;
        ] );
      ( "strawmen",
        [
          Alcotest.test_case "dfs descends" `Quick test_dfs_descends;
          Alcotest.test_case "bfs ascends" `Quick test_bfs_ascends;
          Alcotest.test_case "random in-mission" `Quick test_random_within_mission;
          Alcotest.test_case "random single-heavy" `Quick test_random_mostly_single_faults;
        ] );
      ( "bfi",
        [
          Alcotest.test_case "pays inference" `Quick test_bfi_pays_inference;
          Alcotest.test_case "strat-bfi mode gating" `Quick test_strat_bfi_gates_by_mode;
        ] );
    ]
