let map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  (* Catch every failure so the other items still run; the one re-raised
     is the first in input order, whatever order the domains finished. *)
  let results = Array.make n None in
  let run i =
    results.(i) <-
      Some
        (match Trace.span ~cat:"pool" "pool.job" (fun () -> f arr.(i)) with
        | r -> Ok r
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let next = Atomic.make 0 in
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      run i;
      drain ()
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn drain) in
  drain ();
  List.iter Domain.join helpers;
  Array.to_list results
  |> List.map (function
       | Some (Ok r) -> r
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)

let default_jobs () = Domain.recommended_domain_count ()

let jobs_of_env ?(var = "AVIS_JOBS") () =
  Env.positive_int ~var ~default:(default_jobs ()) ()
