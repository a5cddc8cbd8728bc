open Avis_sensors

type kind_status = {
  healthy : bool;
  primary_failed_at : float option;
  kind_failed_at : float option;
  active_instance : int option;
  fresh : Sensor.reading option;
  stale : Sensor.reading option;
}

type kind_state = {
  kind : Sensor.kind;
  count : int;
  period : float;
  mutable next_sample : float;
  mutable failed : (int * float) list;  (* instance index -> failure time *)
  mutable fresh : Sensor.reading option;
  mutable stale : Sensor.reading option;
}

type t = {
  suite : Suite.t;
  hinj : Avis_hinj.Hinj.t;
  kinds : kind_state list;
}

let period_for (params : Params.t) = function
  | Sensor.Accelerometer | Sensor.Gyroscope -> params.Params.imu_period
  | Sensor.Gps -> params.Params.gps_period
  | Sensor.Compass -> params.Params.compass_period
  | Sensor.Barometer -> params.Params.baro_period
  | Sensor.Battery -> params.Params.battery_period

let create ~params ~suite ~hinj () =
  let kinds =
    List.filter_map
      (fun kind ->
        let count = Suite.count suite kind in
        if count = 0 then None
        else
          Some
            {
              kind;
              count;
              period = period_for params kind;
              next_sample = 0.0;
              failed = [];
              fresh = None;
              stale = None;
            })
      Sensor.all_kinds
  in
  { suite; hinj; kinds }

type snapshot = kind_state list

(* [failed] entries and readings are immutable, so copying the record's
   mutable slots is a deep copy. *)
let copy_kind ks = { ks with next_sample = ks.next_sample }

let snapshot t = List.map copy_kind t.kinds

let restore ~suite ~hinj s = { suite; hinj; kinds = List.map copy_kind s }

let instance_failed ks index = List.mem_assoc index ks.failed

let active_instance ks =
  let rec first i = if i >= ks.count then None
    else if instance_failed ks i then first (i + 1)
    else Some i
  in
  first 0

(* Probe every not-yet-failed instance (the health monitoring real firmware
   performs on backups too), recording clean failures, and read the
   lowest-indexed healthy instance. *)
let probe_and_read t ks world ~time =
  for index = 0 to ks.count - 1 do
    if not (instance_failed ks index) then begin
      let id = { Sensor.kind = ks.kind; index } in
      match Avis_hinj.Hinj.sensor_read t.hinj ~time id with
      | Avis_hinj.Hinj.Healthy -> ()
      | Avis_hinj.Hinj.Failed -> ks.failed <- (index, time) :: ks.failed
    end
  done;
  match active_instance ks with
  | None -> None
  | Some index -> Some (Suite.read t.suite world { Sensor.kind = ks.kind; index })

let sample t world ~time =
  List.iter
    (fun ks ->
      ks.fresh <- None;
      if time >= ks.next_sample then begin
        ks.next_sample <- ks.next_sample +. ks.period;
        (* If scheduling fell far behind (it should not), resynchronise. *)
        if ks.next_sample <= time then ks.next_sample <- time +. ks.period;
        match probe_and_read t ks world ~time with
        | Some reading ->
          ks.fresh <- Some reading;
          ks.stale <- Some reading
        | None -> ()
      end)
    t.kinds

let state_for t kind =
  match List.find_opt (fun ks -> ks.kind = kind) t.kinds with
  | Some ks -> ks
  | None -> invalid_arg ("Drivers: no such kind " ^ Sensor.kind_to_string kind)

let status t kind =
  let ks = state_for t kind in
  let active = active_instance ks in
  {
    healthy = active <> None;
    primary_failed_at = List.assoc_opt 0 ks.failed;
    kind_failed_at =
      (if active = None then
         match List.map snd ks.failed with
         | [] -> None
         | times -> Some (List.fold_left Float.max neg_infinity times)
       else None);
    active_instance = active;
    fresh = ks.fresh;
    stale = ks.stale;
  }

let kind_healthy t kind = (status t kind).healthy

let failure_start t kind =
  let ks = state_for t kind in
  match List.map snd ks.failed with
  | [] -> None
  | times -> Some (List.fold_left Float.min infinity times)

let encode_kind_state b (ks : kind_state) =
  let open Avis_util.Codec in
  Sensor.encode_kind b ks.kind;
  w_int b ks.count;
  w_f64 b ks.period;
  w_f64 b ks.next_sample;
  w_list b
    (fun b (index, at) ->
      w_int b index;
      w_f64 b at)
    ks.failed;
  w_option b Sensor.encode_reading ks.fresh;
  w_option b Sensor.encode_reading ks.stale

let decode_kind_state r : kind_state =
  let open Avis_util.Codec in
  let kind = Sensor.decode_kind r in
  let count = r_int r in
  let period = r_f64 r in
  let next_sample = r_f64 r in
  let failed =
    r_list r (fun r ->
        let index = r_int r in
        let at = r_f64 r in
        (index, at))
  in
  let fresh = r_option r Sensor.decode_reading in
  let stale = r_option r Sensor.decode_reading in
  { kind; count; period; next_sample; failed; fresh; stale }

let encode_snapshot b (s : snapshot) =
  let open Avis_util.Codec in
  w_version b 2;
  w_list b encode_kind_state s

let decode_snapshot r : snapshot =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:2 in
  r_list r decode_kind_state
