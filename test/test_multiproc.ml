(* Multi-process sharing of the run journal and the checkpoint store —
   the invariants the hunt daemon's forked workers rely on.

   (1) Two processes appending to one [Run_journal] concurrently never
   tear or interleave a record: every line of the resulting file is
   complete JSON and every appended record is served back by [find].
   Appends go through a single buffered write to a file opened with
   [O_APPEND] per line, which POSIX makes atomic with respect to the
   write offset.

   (2) Two processes racing [Checkpoint_store] writes on the same keys
   both leave valid entries behind: the store writes to a temp name and
   renames into place, so a reader never observes a partial file. *)

open Avis_core

let temp_counter = ref 0

let temp_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-mp-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Run [child] in a forked process; the child must not return. *)
let in_child child =
  match Unix.fork () with
  | 0 ->
    (try child () with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let wait_ok name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n ->
    Alcotest.failf "%s: child exited with %d" name n
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Alcotest.failf "%s: child killed/stopped by signal %d" name s

(* ------------------------------------------------------------------ *)
(* Concurrent journal writers                                           *)
(* ------------------------------------------------------------------ *)

let writers = 2
let records_per_writer = 50

let record ~writer ~i =
  {
    Run_journal.key = Printf.sprintf "key-%d-%03d" writer i;
    (* Spaces and separators on purpose: framing must not care. *)
    label = Printf.sprintf "cell %d/%03d with = and spaces" writer i;
    simulations = i;
    inferences = writer;
    spent_bits = Int64.bits_of_float (float_of_int i *. 1.5);
    elapsed_bits = Some (Int64.bits_of_float (float_of_int i *. 0.25));
    findings =
      [
        {
          Run_journal.simulation_index = i;
          description = "synthetic finding for the concurrency test";
          bucket = "Takeoff";
          bugs = [ "AV-0" ];
        };
      ];
  }

let test_journal_concurrent_writers () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "journal.jsonl" in
  (* Create the file and header before any writer exists, as the daemon
     does, so children race only on record appends. *)
  let _ = Run_journal.open_ ~fingerprint:"mp-test" path in
  let pids =
    List.init writers (fun writer ->
        in_child (fun () ->
            let j = Run_journal.open_ ~fingerprint:"mp-test" path in
            for i = 0 to records_per_writer - 1 do
              Run_journal.record_complete j (record ~writer ~i)
            done))
  in
  List.iter (wait_ok "journal writer") pids;
  (* Every line of the file must be complete, parseable JSON: a torn or
     interleaved write would leave a line that is not. *)
  let ic = open_in_bin path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Avis_util.Json.of_string line with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "unparseable journal line (%s): %s" e line
     done
   with End_of_file -> close_in_noerr ic);
  Alcotest.(check int)
    "header + all records on disk"
    (1 + (writers * records_per_writer))
    !lines;
  (* And a fresh reader serves every record back. *)
  let j = Run_journal.open_ ~fingerprint:"mp-test" path in
  Alcotest.(check int) "all records load" (writers * records_per_writer)
    (Run_journal.completed_count j);
  for writer = 0 to writers - 1 do
    for i = 0 to records_per_writer - 1 do
      let key = Printf.sprintf "key-%d-%03d" writer i in
      match Run_journal.find j ~key with
      | None -> Alcotest.failf "record %s lost" key
      | Some r ->
        Alcotest.(check int) (key ^ " simulations") i r.Run_journal.simulations
    done
  done

(* ------------------------------------------------------------------ *)
(* Racing checkpoint-store writers                                      *)
(* ------------------------------------------------------------------ *)

let times = 20

let test_store_racing_writers () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let payload i = Printf.sprintf "payload-%04d-%s" i (String.make 256 'x') in
  let child () =
    let store =
      Checkpoint_store.create ~fingerprint:"mp-test" ~dir ()
    in
    for i = 1 to times do
      Checkpoint_store.put store ~key:"shared" ~time:(float_of_int i)
        ~payload:(lazy (payload i))
    done
  in
  let pids = [ in_child child; in_child child ] in
  List.iter (wait_ok "store writer") pids;
  let store =
    Checkpoint_store.create ~fingerprint:"mp-test" ~dir ()
  in
  for i = 1 to times do
    match
      Checkpoint_store.lookup store ~key:"shared"
        ~before:(float_of_int i +. 0.5)
    with
    | None -> Alcotest.failf "no checkpoint served before t=%d.5" i
    | Some (t, data) ->
      Alcotest.(check (float 0.0)) "latest time" (float_of_int i) t;
      Alcotest.(check string) "payload intact" (payload i) data
  done

let () =
  Alcotest.run "avis multiproc"
    [
      ( "multiproc",
        [
          Alcotest.test_case "journal: two writer processes, no torn lines"
            `Quick test_journal_concurrent_writers;
          Alcotest.test_case "store: racing writers both readable" `Quick
            test_store_racing_writers;
        ] );
    ]
