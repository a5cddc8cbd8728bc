(* The staged selftest sequencer: every check passes on a healthy build,
   a forced divergence or an unusable store surfaces the right stable
   error code (a failure diagnoses, never raises), and soak mode loops
   without drift on a deterministic build. *)

open Avis_core

let codes =
  [ "DET-FP"; "SNAP-RT"; "STORE-RW"; "CACHE-ID"; "POOL-SANE"; "ALLOC-0" ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_all_checks_pass () =
  let reports = Selftest.run_all () in
  Alcotest.(check (list string)) "staged order is stable" codes
    (List.map (fun (r : Selftest.report) -> r.Selftest.code) reports);
  List.iter
    (fun (r : Selftest.report) ->
      if not r.Selftest.passed then
        Alcotest.failf "%s failed: %s" r.Selftest.code r.Selftest.detail)
    reports;
  Alcotest.(check bool) "all_passed" true (Selftest.all_passed reports);
  let rendered = Avis_util.Table.render (Selftest.table reports) in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " in the table") true
        (contains rendered code))
    codes

let test_forced_det_fp_failure () =
  (* A perturbed kernel — one part in 10^12 on dt — must trip the
     bit-equality fingerprint, and the failure must come back as a
     diagnosis under the stable code, not an exception. *)
  let perturbed w ~motor_commands ~dt =
    Avis_physics.World.step w ~motor_commands ~dt:(dt *. (1.0 +. 1e-12))
  in
  let r = Selftest.run_check (Selftest.det_fp ~optimized:perturbed ()) in
  Alcotest.(check string) "stable code" "DET-FP" r.Selftest.code;
  Alcotest.(check bool) "fails" false r.Selftest.passed;
  Alcotest.(check bool) "detail names the divergence" true
    (contains r.Selftest.detail "diverges")

let test_forced_store_rw_failure () =
  (* A regular file where the store directory should be: every put is
     swallowed, the round-trip lookup misses, and the check reports it. *)
  let file = Filename.temp_file "avis-selftest" ".not-a-dir" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let r = Selftest.run_check (Selftest.store_rw ~dir:file ()) in
  Alcotest.(check string) "stable code" "STORE-RW" r.Selftest.code;
  Alcotest.(check bool) "fails" false r.Selftest.passed

let test_checks_never_raise () =
  (* Even a check whose [run] throws must come back as a failed report. *)
  let boom =
    { Selftest.code = "BOOM"; name = "throws"; run = (fun () -> failwith "x") }
  in
  let r = Selftest.run_check boom in
  Alcotest.(check bool) "reported, not raised" false r.Selftest.passed;
  Alcotest.(check bool) "exception rendered in detail" true
    (contains r.Selftest.detail "Failure")

let test_soak_iterations () =
  let progressed = ref [] in
  let s =
    Selftest.soak ~iterations:4
      ~progress:(fun i -> progressed := i :: !progressed)
      ~minutes:0.0 ()
  in
  Alcotest.(check int) "exactly the asked iterations" 4 s.Selftest.iterations;
  Alcotest.(check (list int)) "progress ticks 1-based, in order" [ 1; 2; 3; 4 ]
    (List.rev !progressed);
  (* Iteration 4 revisits seed 1, so at least one same-seed comparison
     happened — and on a deterministic build it must not drift. *)
  Alcotest.(check (list string)) "no drift" [] s.Selftest.drift

let () =
  Alcotest.run "avis_selftest"
    [
      ( "staged checks",
        [
          Alcotest.test_case "all pass on a healthy build" `Slow
            test_all_checks_pass;
          Alcotest.test_case "forced DET-FP failure" `Quick
            test_forced_det_fp_failure;
          Alcotest.test_case "forced STORE-RW failure" `Quick
            test_forced_store_rw_failure;
          Alcotest.test_case "a throwing check is a failed report" `Quick
            test_checks_never_raise;
        ] );
      ( "soak",
        [ Alcotest.test_case "rotating seeds, no drift" `Slow test_soak_iterations ] );
    ]
