(* The `avis_cli huntd` command. The daemon, in-process `avis_cli hunt`
   runs and the bench harness come from one build, so they share one
   journal fingerprint and each memo-serves the others' completed cells. *)

open Cmdliner

let run socket tcp_port journal store_dir workers =
  let base = Avis_server.Hunt_service.default_config () in
  Avis_server.Hunt_service.serve
    {
      Avis_server.Hunt_service.socket_path = socket;
      tcp_port;
      journal_path = journal;
      store_dir;
      workers =
        (match workers with
        | Some w -> max 1 w
        | None -> base.Avis_server.Hunt_service.workers);
      jobs = 1;
    }

let socket_arg =
  Arg.(value & opt string "avis-huntd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (removed on shutdown).")

let tcp_arg =
  Arg.(value & opt (some int) None
       & info [ "tcp-port" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:PORT (same wire protocol).")

let journal_arg =
  Arg.(value & opt string "avis-huntd-journal.jsonl"
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Campaign memo journal shared by every worker process. A \
                 killed daemon restarted on the same journal serves \
                 completed cells as memos instead of re-running them.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Content-addressed checkpoint store shared by the worker \
                 processes (exported to them as \\$AVIS_STORE_DIR).")

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"Concurrent worker processes, each running one cell at a \
                 time; pending cells start oldest first. Defaults to \
                 \\$AVIS_JOBS, then the hardware's recommendation.")

let cmd =
  Cmd.v
    (Cmd.info "huntd"
       ~doc:"Run the multi-tenant hunt daemon (pair with `submit` and \
             `watch`).")
    Term.(const run $ socket_arg $ tcp_arg $ journal_arg $ store_arg
          $ workers_arg)
