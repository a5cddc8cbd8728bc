(* Hunt for sensor bugs against the ArduPilot personality on the auto-box
   mission — a small-budget version of the paper's main experiment, with
   all four approaches of Table III racing in parallel on a domain pool.
   Each campaign is an independent cell with its own seed and budget, so
   the findings are identical whatever AVIS_JOBS is set to.

   Run with: AVIS_JOBS=4 dune exec examples/fault_hunt.exe *)

open Avis_util
open Avis_core

let budget_s = 1500.0
let policy = Avis_firmware.Policy.apm
let workload = Workload.auto_box

let approaches =
  [
    ("Avis", fun ctx -> Sabre.make ctx);
    ("Strat-BFI", fun ctx -> Strat_bfi.make ctx);
    ("BFI", fun ctx -> Bfi.make ctx);
    ("Random", fun ctx -> Random_search.make ctx);
  ]

let cell (name, strategy) =
  ( {
      (Campaign.default_config policy workload) with
      Campaign.budget_s;
      seed =
        Campaign.cell_seed ~policy:policy.Avis_firmware.Policy.name
          ~workload:workload.Workload.name ~approach:name ();
    },
    name,
    strategy )

let () =
  let jobs = Pool.jobs_of_env () in
  Printf.printf
    "Profiling %s on %s, then hunting with %d approaches on %d domain(s) \
     (%.0f s wall-clock budget each)...\n%!"
    policy.Avis_firmware.Policy.name workload.Workload.name
    (List.length approaches) jobs budget_s;
  let results = Campaign.run_cells ~jobs (List.map cell approaches) in
  List.iter2
    (fun (name, _) (outcome, _) ->
      match outcome with
      | Campaign.Failed e ->
        Printf.printf "\n%s: QUARANTINED [%s]: %s\n" name e.Campaign.code
          e.Campaign.message
      | Campaign.Live (_, record) | Campaign.Memo record ->
        let findings = record.Run_journal.findings in
        Printf.printf "\n%s: %d simulations, %d unsafe conditions found:\n" name
          record.Run_journal.simulations (List.length findings);
        List.iteri
          (fun i (f : Run_journal.finding) ->
            Printf.printf "%2d. (simulation #%d)\n    %s\n" (i + 1)
              f.Run_journal.simulation_index f.Run_journal.description)
          findings;
        Printf.printf "unsafe conditions by operating mode at injection:\n";
        List.iter
          (fun (label, n) -> Printf.printf "  %-8s %d\n" label n)
          (Campaign.count_by_bucket findings))
    approaches results;
  Metrics.summary (List.map snd results)
