(* Tests for the extension beyond the paper's core: artefact export, and
   the JSON emitter it writes through. *)

open Avis_util
open Avis_firmware
open Avis_sitl
open Avis_core

(* Json *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Number 1.5));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Number Float.nan))

let test_json_escaping () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\""
    (Json.to_string (Json.String "a\"b\\c\nd"))

let test_json_structures () =
  let v =
    Json.Assoc [ ("xs", Json.List [ Json.int 1; Json.int 2 ]); ("ok", Json.Bool false) ]
  in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"ok\":false}" (Json.to_string v);
  Alcotest.(check bool) "pretty contains newlines" true
    (String.contains (Json.to_string_pretty v) '\n')

(* Export *)

let run_quickstart () =
  let config =
    { (Sim.default_config Policy.apm) with Sim.max_duration = 75.0 }
  in
  let sim = Sim.create config in
  let passed = Workload.execute Workload.quickstart sim in
  Sim.outcome sim ~workload_passed:passed

let test_export_outcome_json () =
  let o = run_quickstart () in
  let json = Json.to_string (Export.outcome_to_json o) in
  Alcotest.(check bool) "mentions transitions" true
    (String.length json > 200);
  (* A rough well-formedness check: brackets balance. *)
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_export_mode_graph_dot () =
  let graph = Mode_graph.build ~transitions:[ [ ("A", "B"); ("B", "C") ] ] in
  let dot = Export.mode_graph_to_dot graph in
  Alcotest.(check bool) "digraph" true (String.length dot > 10);
  Alcotest.(check bool) "edge present" true
    (let needle = "\"A\" -> \"B\"" in
     let rec contains i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "avis_extensions"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
        ] );
      ( "export",
        [
          Alcotest.test_case "outcome json" `Quick test_export_outcome_json;
          Alcotest.test_case "mode graph dot" `Quick test_export_mode_graph_dot;
        ] );
    ]
