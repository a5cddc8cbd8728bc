type endpoint = Gcs_end | Vehicle_end

type chunk = { deliver_at : int; data : string }

type outage = { from_step : int; until_step : int }

(* The most steps a jittered chunk is held beyond the next one. *)
let max_jitter_steps = 2

type t = {
  jitter : Avis_util.Rng.t option;
  outages : outage list;
  mutable now : int;
  mutable to_vehicle : chunk list; (* newest first *)
  mutable to_gcs : chunk list;
  mutable last_to_vehicle : int;
  mutable last_to_gcs : int;
  mutable dropped : int;
}

let create ?jitter ?(outages = []) () =
  { jitter; outages; now = 0; to_vehicle = []; to_gcs = [];
    last_to_vehicle = 0; last_to_gcs = 0; dropped = 0 }

let encode_chunk b c =
  Avis_util.Codec.w_int b c.deliver_at;
  Avis_util.Codec.w_string b c.data

let decode_chunk r =
  let deliver_at = Avis_util.Codec.r_int r in
  let data = Avis_util.Codec.r_string r in
  { deliver_at; data }

(* The outage schedule is not written: a restore passes it back, the
   original or a fork's. *)
let encode b (s : t) =
  let open Avis_util.Codec in
  w_version b 3;
  w_option b (fun b rng -> w_i64 b (Avis_util.Rng.to_bits rng)) s.jitter;
  w_int b s.now;
  w_list b encode_chunk s.to_vehicle;
  w_list b encode_chunk s.to_gcs;
  w_int b s.last_to_vehicle;
  w_int b s.last_to_gcs;
  w_int b s.dropped

let decode ~outages r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:3 in
  let jitter = r_option r (fun r -> Avis_util.Rng.of_bits (r_i64 r)) in
  let now = r_int r in
  let to_vehicle = r_list r decode_chunk in
  let to_gcs = r_list r decode_chunk in
  let last_to_vehicle = r_int r in
  let last_to_gcs = r_int r in
  let dropped = r_int r in
  {
    jitter;
    outages;
    now;
    to_vehicle;
    to_gcs;
    last_to_vehicle;
    last_to_gcs;
    dropped;
  }

let delay t =
  match t.jitter with
  | None -> 1
  | Some rng -> 1 + Avis_util.Rng.int rng (max_jitter_steps + 1)

let in_outage t =
  List.exists (fun o -> o.from_step <= t.now && t.now < o.until_step) t.outages

let send t from data =
  if data <> "" then begin
    (* Scheduled outage windows silence the channel without consuming any
       randomness, so a fork that substitutes a different outage schedule
       (Sim.restore ~link_outages) replays the surviving traffic
       bit-identically. *)
    if in_outage t then begin
      t.dropped <- t.dropped + 1;
      Avis_util.Trace.counter "link.dropped" (float_of_int t.dropped)
    end
    else begin
      (* A byte stream never reorders: each chunk's delivery time is at
         least the previous chunk's in the same direction. *)
      let at = t.now + delay t in
      match from with
      | Gcs_end ->
        let at = Int.max at t.last_to_vehicle in
        t.last_to_vehicle <- at;
        t.to_vehicle <- { deliver_at = at; data } :: t.to_vehicle
      | Vehicle_end ->
        let at = Int.max at t.last_to_gcs in
        t.last_to_gcs <- at;
        t.to_gcs <- { deliver_at = at; data } :: t.to_gcs
    end
  end

let step t = t.now <- t.now + 1

let rec any_due now = function
  | [] -> false
  | c :: rest -> c.deliver_at <= now || any_due now rest

let receive t at =
  let queue = match at with Gcs_end -> t.to_gcs | Vehicle_end -> t.to_vehicle in
  (* Most steps deliver nothing: skip the partition, sort and concat. *)
  if not (any_due t.now queue) then ""
  else begin
    let due, pending = List.partition (fun c -> c.deliver_at <= t.now) queue in
    (match at with
    | Gcs_end -> t.to_gcs <- pending
    | Vehicle_end -> t.to_vehicle <- pending);
    (* Queues are newest-first; restore send order, then stably order by
       delivery time so jittered chunks cannot overtake within a step. *)
    let ordered =
      List.stable_sort (fun a b -> compare a.deliver_at b.deliver_at) (List.rev due)
    in
    String.concat "" (List.map (fun c -> c.data) ordered)
  end

let dropped t = t.dropped
