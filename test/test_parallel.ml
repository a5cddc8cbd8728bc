(* Parallel campaign execution: the domain pool, the structured metrics
   lines, the zero-progress guard on the search loop, and the guarantee
   that a parallel campaign matrix is identical, finding for finding, to
   the sequential one. *)

open Avis_util
open Avis_firmware
open Avis_core

(* Pool *)

let test_pool_map_order () =
  let items = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun x -> 2 * x) items)
    (Pool.map ~jobs:4 (fun x -> 2 * x) items)

let test_pool_inline_matches_parallel () =
  let items = List.init 20 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int))
    "jobs=1 equals jobs=8" (Pool.map ~jobs:1 f items) (Pool.map ~jobs:8 f items)

let test_pool_more_jobs_than_items () =
  Alcotest.(check (list int)) "2 items on 16 workers" [ 2; 3 ]
    (Pool.map ~jobs:16 succ [ 1; 2 ])

let test_pool_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 succ [])

exception Boom

let test_pool_propagates_exception () =
  Alcotest.check_raises "job failure re-raised" Boom (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 3 then raise Boom else x)
           (List.init 8 Fun.id)))

let test_pool_env_defaults () =
  Alcotest.(check int) "unset variable falls back to the hardware"
    (Pool.default_jobs ())
    (Pool.jobs_of_env ~var:"AVIS_TEST_SURELY_UNSET_JOBS" ())

let spin_until cond =
  while not (cond ()) do
    Domain.cpu_relax ()
  done

(* Every item runs even when some raise, inline and on domains alike, and
   the failure re-raised is the first in input order: on domains, item 2
   is held back so that item 5 fails first in time. *)
let test_pool_failure_runs_every_item () =
  List.iter
    (fun jobs ->
      let ran = Array.make 8 false in
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d: first failure in input order" jobs)
        (Failure "item 2")
        (fun () ->
          ignore
            (Pool.map ~jobs
               (fun i ->
                 ran.(i) <- true;
                 if i = 2 then begin
                   let t0 = Metrics.now_s () in
                   spin_until (fun () -> Metrics.now_s () -. t0 > 0.02)
                 end;
                 if i = 2 || i = 5 then failwith (Printf.sprintf "item %d" i))
               (List.init 8 Fun.id)));
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: every item ran" jobs)
        true (Array.for_all Fun.id ran))
    [ 1; 4 ]

(* Metrics *)

let test_metrics_line_format () =
  let s =
    {
      Metrics.cell = "Avis/apm/auto-box"; simulations = 41; inferences = 7;
      spent_s = 612.04; budget_s = 7200.0; findings = 3; wall_s = 0.84;
      minor_words = 12_500_000.0; major_collections = 2; store_hits = 5;
      store_misses = 1; store_bytes = 4096; profile = Metrics.Profile_store;
    }
  in
  Alcotest.(check string) "grep-able key=value record"
    "[avis] event=progress cell=Avis/apm/auto-box sims=41 infs=7 \
     spent_s=612.0 budget_s=7200.0 findings=3 wall_s=0.8 minor_mw=12.50 \
     majors=2 store_h=5 store_m=1 store_b=4096 prof=store"
    (Metrics.line ~event:"progress" s)

let test_metrics_clock_monotonic () =
  let a = Metrics.now_s () in
  let b = Metrics.now_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

let snap ?(minor = 0.0) ?(majors = 0) ?(store = (0, 0, 0)) cell ~sims ~infs
    ~spent ~findings ~wall =
  let store_hits, store_misses, store_bytes = store in
  {
    Metrics.cell; simulations = sims; inferences = infs; spent_s = spent;
    budget_s = 7200.0; findings; wall_s = wall; minor_words = minor;
    major_collections = majors; store_hits; store_misses; store_bytes;
    profile = Metrics.Profile_run;
  }

let test_metrics_total_row () =
  let a =
    snap "Avis/apm/auto-box" ~sims:41 ~infs:7 ~spent:612.0 ~findings:3
      ~wall:0.8 ~minor:1.5e6 ~majors:2 ~store:(4, 2, 9000)
  in
  let b =
    snap "Avis/px4/auto-box" ~sims:9 ~infs:2 ~spent:88.5 ~findings:1 ~wall:2.5
      ~minor:0.5e6 ~majors:1 ~store:(1, 3, 5000)
  in
  let t = Metrics.total [ a; b ] in
  Alcotest.(check string) "labelled as the max-wall total" "TOTAL (wall = max)"
    t.Metrics.cell;
  Alcotest.(check int) "sims summed" 50 t.Metrics.simulations;
  Alcotest.(check int) "infs summed" 9 t.Metrics.inferences;
  Alcotest.(check (float 1e-9)) "spend summed" 700.5 t.Metrics.spent_s;
  Alcotest.(check int) "findings summed" 4 t.Metrics.findings;
  (* Concurrent cells overlap in real time: wall is a max, not a sum —
     but allocation and collections are per-domain work, so they add. *)
  Alcotest.(check (float 1e-9)) "wall is the max" 2.5 t.Metrics.wall_s;
  Alcotest.(check (float 1e-9)) "minor words summed" 2.0e6 t.Metrics.minor_words;
  Alcotest.(check int) "majors summed" 3 t.Metrics.major_collections;
  Alcotest.(check int) "store hits summed" 5 t.Metrics.store_hits;
  Alcotest.(check int) "store misses summed" 5 t.Metrics.store_misses;
  (* Cells may share one store directory, so bytes take the max. *)
  Alcotest.(check int) "store bytes are the max" 9000 t.Metrics.store_bytes

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_metrics_summary_table () =
  let a = snap "a" ~sims:1 ~infs:0 ~spent:1.0 ~findings:0 ~wall:1.0 in
  let b = snap "b" ~sims:2 ~infs:0 ~spent:2.0 ~findings:0 ~wall:2.0 in
  let two = Table.render (Metrics.summary_table [ a; b ]) in
  Alcotest.(check bool) "TOTAL row present for two cells" true
    (contains ~needle:"TOTAL (wall = max)" two);
  let one = Table.render (Metrics.summary_table [ a ]) in
  Alcotest.(check bool) "no TOTAL row for a single cell" false
    (contains ~needle:"TOTAL" one)

(* The zero-progress guard: a searcher that keeps thinking at zero cost
   must still drain the budget and terminate. *)

let spinner _ctx =
  {
    Search.name = "spinner";
    next = (fun () -> Search.Think 0.0);
    observe = (fun _ _ -> ());
  }

let test_zero_cost_think_terminates () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 2.0;
    }
  in
  let result = Campaign.run config ~strategy:spinner in
  Alcotest.(check int) "no simulations" 0 result.Campaign.simulations;
  Alcotest.(check (float 1e-9)) "budget fully drained, never exceeded" 2.0
    result.Campaign.wall_clock_spent_s;
  Alcotest.(check bool) "bounded think count" true
    (result.Campaign.inferences
    <= int_of_float (2.0 /. Budget.min_inference_s) + 1)

(* Determinism: the parallel matrix equals the sequential matrix. *)

let matrix_budget_s = 120.0

let matrix_approaches =
  [
    ("Avis", fun ctx -> Sabre.make ctx);
    ("Random", fun ctx -> Random_search.make ctx);
  ]

let run_matrix ~jobs =
  let cells =
    List.concat_map
      (fun policy ->
        List.map (fun approach -> (policy, approach)) matrix_approaches)
      [ Policy.apm; Policy.px4 ]
  in
  Pool.map ~jobs
    (fun (policy, (name, strategy)) ->
      let config =
        {
          (Campaign.default_config policy Workload.auto_box) with
          Campaign.budget_s = matrix_budget_s;
          seed =
            Campaign.cell_seed ~policy:policy.Policy.name
              ~workload:Workload.auto_box.Workload.name ~approach:name ();
        }
      in
      (name, policy.Policy.name, Campaign.run config ~strategy))
    cells

let fingerprint (result : Campaign.result) =
  ( result.Campaign.approach,
    result.Campaign.simulations,
    result.Campaign.inferences,
    result.Campaign.wall_clock_spent_s,
    List.map
      (fun f -> (f.Campaign.simulation_index, Report.describe f.Campaign.report))
      result.Campaign.findings )

let test_parallel_matrix_matches_sequential () =
  let sequential = run_matrix ~jobs:1 in
  let parallel = run_matrix ~jobs:4 in
  List.iter2
    (fun (name, policy, seq) (name', policy', par) ->
      Alcotest.(check string) "same cell approach" name name';
      Alcotest.(check string) "same cell policy" policy policy';
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s identical finding-for-finding" name policy)
        true
        (fingerprint seq = fingerprint par);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s stays within budget" name policy)
        true
        (seq.Campaign.wall_clock_spent_s <= matrix_budget_s))
    sequential parallel

let test_cell_seed_stable_and_distinct () =
  let seed ?base approach =
    Campaign.cell_seed ?base ~policy:"apm" ~workload:"auto-box" ~approach ()
  in
  Alcotest.(check int) "stable across calls" (seed "Avis") (seed "Avis");
  Alcotest.(check bool) "distinct per approach" true (seed "Avis" <> seed "BFI");
  Alcotest.(check bool) "distinct per base seed" true
    (seed ~base:1 "Avis" <> seed ~base:2 "Avis");
  Alcotest.(check bool) "positive" true (seed "Avis" > 0)

(* Scheduler identity: a cell's bytes are a function of the cell alone,
   never of when or in what order the scheduler happened to run it. Any
   permutation of the execution order must yield byte-identical campaign
   records and journal contents. *)

let perm_specs =
  List.concat_map
    (fun (name, strategy) ->
      List.map (fun base -> (name, strategy, base)) [ 1; 2 ])
    [
      ("Avis", fun ctx -> Sabre.make ctx);
      ("Random", fun ctx -> Random_search.make ctx);
    ]

let perm_config (name, _, base) =
  {
    (Campaign.default_config Policy.apm Workload.quickstart) with
    Campaign.budget_s = 15.0;
    seed =
      Campaign.cell_seed ~base ~policy:Policy.apm.Policy.name
        ~workload:Workload.quickstart.Workload.name ~approach:name ();
  }

(* elapsed_bits is the one informational field allowed to differ between
   runs (measured wall time); everything else must match to the byte. *)
let perm_record_bytes record =
  Json.to_string
    (Run_journal.record_to_json { record with Run_journal.elapsed_bits = None })

let perm_run order =
  let path = Filename.temp_file "avis-perm" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let journal = Run_journal.open_ ~fingerprint:"perm" path in
  let digests =
    List.map
      (fun i ->
        let ((name, strategy, _) as spec) = List.nth perm_specs i in
        let config = perm_config spec in
        match
          Campaign.run_cell ~journal
            ~emit:(fun ~event:_ _ -> ())
            config ~approach:name ~strategy
        with
        | Campaign.Live (_, record), _ -> (i, perm_record_bytes record)
        | (Campaign.Memo _ | Campaign.Failed _), _ ->
          failwith "a fresh journal must run every cell live")
      order
  in
  (* Reopen the journal as a reader: the records it serves back must be
     byte-identical too, independent of the order they were appended. *)
  let reader = Run_journal.open_ ~fingerprint:"perm" path in
  let memos =
    List.mapi
      (fun i ((name, _, _) as spec) ->
        match Campaign.journal_memo reader (perm_config spec) ~approach:name with
        | Some record -> (i, perm_record_bytes record)
        | None -> (i, "missing"))
      perm_specs
  in
  (List.sort compare digests, memos)

let perm_reference = lazy (perm_run [ 0; 1; 2; 3 ])

let test_permutation_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5
       ~name:"any execution order yields byte-identical cells"
       (QCheck.make
          ~print:(fun order ->
            String.concat "," (List.map string_of_int order))
          (QCheck.Gen.shuffle_l [ 0; 1; 2; 3 ]))
       (fun order ->
         let ref_results, ref_memos = Lazy.force perm_reference in
         let results, memos = perm_run order in
         results = ref_results && memos = ref_memos))

let () =
  Alcotest.run "avis_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "inline = parallel" `Quick test_pool_inline_matches_parallel;
          Alcotest.test_case "more workers than items" `Quick test_pool_more_jobs_than_items;
          Alcotest.test_case "empty input" `Quick test_pool_empty;
          Alcotest.test_case "exception propagates" `Quick test_pool_propagates_exception;
          Alcotest.test_case "env fallback" `Quick test_pool_env_defaults;
          Alcotest.test_case "a failure runs every item" `Quick
            test_pool_failure_runs_every_item;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "line format" `Quick test_metrics_line_format;
          Alcotest.test_case "monotonic clock" `Quick test_metrics_clock_monotonic;
          Alcotest.test_case "total row" `Quick test_metrics_total_row;
          Alcotest.test_case "summary table" `Quick test_metrics_summary_table;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "zero-cost think terminates" `Quick test_zero_cost_think_terminates;
          Alcotest.test_case "cell seeds" `Quick test_cell_seed_stable_and_distinct;
          Alcotest.test_case "parallel matrix = sequential" `Slow test_parallel_matrix_matches_sequential;
          test_permutation_identity;
        ] );
    ]
