(* Writes the build's code fingerprint as [let hex = "..."] to OUT: the MD5
   of every .ml, .mli, dune and dune-project file under ROOT outside its
   test/ directory, by relative path and content, and of the compiler
   version, architecture, system and build profile. No executable outside
   test/ links a test file, so a test's code cannot change what another
   executable stores or serves; leaving test/ out, an edit to a test
   relinks and reruns only its own suite.

   Usage: ocaml gen_fingerprint.ml OUT ROOT VERSION ARCH SYSTEM PROFILE *)

let digested name =
  name = "dune" || name = "dune-project"
  || Filename.check_suffix name ".ml"
  || Filename.check_suffix name ".mli"

(* Relative paths of the digested files under [root]/[rel]. *)
let rec walk root rel acc =
  Array.fold_left
    (fun acc name ->
      let rel = if rel = "" then name else rel ^ "/" ^ name in
      if rel = "test" then acc
      else if Sys.is_directory (Filename.concat root rel) then walk root rel acc
      else if digested name then rel :: acc
      else acc)
    acc
    (Sys.readdir (Filename.concat root rel))

let () =
  match Sys.argv with
  | [| _; out; root; version; arch; system; profile |] ->
    let file rel = rel ^ " " ^ Digest.to_hex (Digest.file (Filename.concat root rel)) in
    let lines =
      [ version; arch; system; profile ] @ List.map file (List.sort compare (walk root "" []))
    in
    let hex = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
    Out_channel.with_open_text out (fun oc -> Printf.fprintf oc "let hex = %S\n" hex)
  | _ ->
    prerr_endline "usage: ocaml gen_fingerprint.ml OUT ROOT VERSION ARCH SYSTEM PROFILE";
    exit 2
