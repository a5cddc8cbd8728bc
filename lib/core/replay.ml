open Avis_sitl

let reconstruct_scenario ~reference relative_faults =
  Scenario.of_faults
    (List.map
       (fun rf ->
         let entered =
           if rf.Report.mode = "Pre-Flight" then Some 0.0
           else
             List.fold_left
               (fun acc tr ->
                 match acc with
                 | Some _ -> acc
                 | None ->
                   if tr.Avis_hinj.Hinj.to_mode = rf.Report.mode then
                     Some tr.Avis_hinj.Hinj.time
                   else None)
               None reference
         in
         let base = match entered with Some t -> t | None -> 0.0 in
         let at = base +. rf.Report.offset_s in
         match rf.Report.subject with
         | Report.Subject_sensor sensor -> Scenario.sensor_fault sensor at
         | Report.Subject_link duration -> Scenario.link_loss ~at ~duration)
       relative_faults)

type outcome = {
  reproduced : bool;
  verdict : Monitor.verdict;
  original : Report.t;
  replay_duration : float;
}

let replay ~config ~profile ~seed report =
  (* Probe run: observe this seed's transition timing without faults. *)
  let probe = Campaign.execute_run config ~seed ~scenario:Scenario.empty in
  let scenario =
    reconstruct_scenario ~reference:probe.Sim.transitions
      report.Report.relative_faults
  in
  let outcome = Campaign.execute_run config ~seed ~scenario in
  let verdict = Monitor.check profile outcome in
  {
    reproduced = (match verdict with Monitor.Unsafe _ -> true | Monitor.Safe -> false);
    verdict;
    original = report;
    replay_duration = outcome.Sim.duration;
  }
