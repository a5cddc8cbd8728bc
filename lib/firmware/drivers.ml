open Avis_sensors

type kind_state = {
  count : int;
  ids : Sensor.id array;  (* instance ids, built once for the probes *)
  period : float;
  mutable next_sample : float;
  mutable failed : (int * float) list;  (* instance index -> failure time *)
  mutable lost_at : float option;  (* derived from [failed] *)
  mutable fresh : Sensor.reading option;
  mutable stale : Sensor.reading option;
}

(* Indexed by [Sensor.kind_tag]. *)
type t = {
  suite : Suite.t;
  hinj : Avis_hinj.Hinj.t;
  kinds : kind_state array;
}

let period_for (params : Params.t) = function
  | Sensor.Accelerometer | Sensor.Gyroscope -> params.Params.imu_period
  | Sensor.Gps -> params.Params.gps_period
  | Sensor.Compass -> params.Params.compass_period
  | Sensor.Barometer -> params.Params.baro_period
  | Sensor.Battery -> params.Params.battery_period

(* The annotation makes [=] an int compare, not a polymorphic C call per
   failed instance on every sample. *)
let rec has_failed (index : int) = function
  | [] -> false
  | (i, _) :: rest -> i = index || has_failed index rest

(* The lowest-indexed instance not yet failed, or -1 once all have. *)
let rec first_healthy ks index =
  if index >= ks.count then -1
  else if has_failed index ks.failed then first_healthy ks (index + 1)
  else index

(* A kind is lost once every instance has failed, dated by the last
   instance to go. *)
let lost_at_of ks =
  match ks.failed with
  | _ :: _ as failed when first_healthy ks 0 < 0 ->
    Some (List.fold_left (fun acc (_, at) -> Float.max acc at) neg_infinity failed)
  | _ -> None

let create ~params ~suite ~hinj () =
  let kind_state kind =
    let count = Suite.count kind in
    {
      count;
      ids = Array.init count (fun index -> { Sensor.kind; index });
      period = period_for params kind;
      next_sample = 0.0;
      failed = [];
      lost_at = None;
      fresh = None;
      stale = None;
    }
  in
  { suite; hinj; kinds = Array.of_list (List.map kind_state Sensor.all_kinds) }

(* Probe every not-yet-failed instance (the health monitoring real firmware
   performs on backups too), recording clean failures, and read the
   lowest-indexed healthy instance. *)
let probe_and_read t ks world ~time =
  for index = 0 to ks.count - 1 do
    if not (has_failed index ks.failed) then
      match Avis_hinj.Hinj.sensor_read t.hinj ~time ks.ids.(index) with
      | Avis_hinj.Hinj.Healthy -> ()
      | Avis_hinj.Hinj.Failed ->
        ks.failed <- (index, time) :: ks.failed;
        ks.lost_at <- lost_at_of ks
  done;
  let active = first_healthy ks 0 in
  if active >= 0 then begin
    let reading = Some (Suite.read t.suite world ks.ids.(active)) in
    ks.fresh <- reading;
    ks.stale <- reading
  end

let sample t world ~time =
  for tag = 0 to Array.length t.kinds - 1 do
    let ks = t.kinds.(tag) in
    ks.fresh <- None;
    if time >= ks.next_sample then begin
      ks.next_sample <- ks.next_sample +. ks.period;
      (* If scheduling fell far behind (it should not), resynchronise. *)
      if ks.next_sample <= time then ks.next_sample <- time +. ks.period;
      probe_and_read t ks world ~time
    end
  done

let state_for t kind = t.kinds.(Sensor.kind_tag kind)

let fresh t kind = (state_for t kind).fresh
let stale t kind = (state_for t kind).stale
let kind_failed_at t kind = (state_for t kind).lost_at

(* Each kind's schedule, failures and readings, in [Sensor.all_kinds]
   order. The instance count and the period are the suite's and the
   parameter set's constants, and the suite and the injector are the
   decoding caller's: none of them is written. *)
let encode b t =
  let open Avis_util.Codec in
  w_version b 3;
  Array.iter
    (fun ks ->
      w_f64 b ks.next_sample;
      w_list b
        (fun b (index, at) ->
          w_int b index;
          w_f64 b at)
        ks.failed;
      w_option b Sensor.encode_reading ks.fresh;
      w_option b Sensor.encode_reading ks.stale)
    t.kinds

let decode ~params ~suite ~hinj r =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:3 in
  let t = create ~params ~suite ~hinj () in
  Array.iter
    (fun ks ->
      ks.next_sample <- r_f64 r;
      ks.failed <-
        r_list r (fun r ->
            let index = r_int r in
            let at = r_f64 r in
            (index, at));
      ks.lost_at <- lost_at_of ks;
      ks.fresh <- r_option r Sensor.decode_reading;
      ks.stale <- r_option r Sensor.decode_reading)
    t.kinds;
  t
