type upload_state =
  | Upload_idle
  | Upload_in_progress
  | Upload_done
  | Upload_failed
  | Upload_timed_out

type tx_status = Tx_pending | Tx_acked of bool | Tx_timed_out

(* Bounded retransmission with exponential backoff; each retry replaces
   the record before it. *)
type retry = { next_at : float; backoff : float; left : int }

let initial_backoff = 0.4
let backoff_factor = 2.0
let upload_retries = 5
let command_retries = 3
let mode_retries = 3

type pending_command = {
  cmd : int;
  p1 : float;
  p2 : float;
  p3 : float;
  p4 : float;
  cmd_retry : retry;
}

type pending_mode = {
  mode : int;
  baseline : int option;  (** vehicle mode when the request was issued *)
  mode_retry : retry;
}

let heartbeat_period = 1.0

(* The ground station's MAVLink system and component ids. *)
let sysid = 255
let compid = 190

type t = {
  link : Link.t;
  decoder : Frame.decoder;
  mutable seq : int;
  mutable now : float;
  mutable next_heartbeat : float;
  (* telemetry cache *)
  mutable relative_alt : float;
  mutable latitude : float;
  mutable longitude : float;
  mutable velocity : float * float * float;
  mutable heading_deg : float;
  mutable vehicle_mode : int option;
  mutable armed : bool;
  (* transactions *)
  mutable upload : upload_state;
  mutable upload_items : Msg.mission_item array;
  mutable upload_last_seq : int option;  (** last ITEM sent; None = COUNT *)
  mutable upload_retry : retry option;
  mutable pending_commands : pending_command list;
  mutable timed_out_commands : int list;
  mutable pending_mode : pending_mode option;
  mutable mode_timed_out : bool;
  mutable command_acks : (int * bool) list;
}

let create link =
  {
    link;
    decoder = Frame.decoder ();
    seq = 0;
    now = 0.0;
    next_heartbeat = 0.0;
    relative_alt = 0.0;
    latitude = 0.0;
    longitude = 0.0;
    velocity = (0.0, 0.0, 0.0);
    heading_deg = 0.0;
    vehicle_mode = None;
    armed = false;
    upload = Upload_idle;
    upload_items = [||];
    upload_last_seq = None;
    upload_retry = None;
    pending_commands = [];
    timed_out_commands = [];
    pending_mode = None;
    mode_timed_out = false;
    command_acks = [];
  }

let encode_retry b (r : retry) =
  let open Avis_util.Codec in
  w_f64 b r.next_at;
  w_f64 b r.backoff;
  w_int b r.left

let decode_retry r : retry =
  let open Avis_util.Codec in
  let next_at = r_f64 r in
  let backoff = r_f64 r in
  let left = r_int r in
  { next_at; backoff; left }

let encode_upload_state b u =
  Avis_util.Codec.w_u8 b
    (match u with
    | Upload_idle -> 0
    | Upload_in_progress -> 1
    | Upload_done -> 2
    | Upload_failed -> 3
    | Upload_timed_out -> 4)

let decode_upload_state r =
  match Avis_util.Codec.r_u8 r with
  | 0 -> Upload_idle
  | 1 -> Upload_in_progress
  | 2 -> Upload_done
  | 3 -> Upload_failed
  | 4 -> Upload_timed_out
  | t -> Avis_util.Codec.corrupt "bad upload-state tag %d" t

(* The [link] field is not serialised: the decoding caller passes the
   decoded link, as it passes [Vehicle.decode] its collaborators. *)
let encode b (s : t) =
  let open Avis_util.Codec in
  w_version b 4;
  Frame.encode_decoder b s.decoder;
  w_int b s.seq;
  w_f64 b s.now;
  w_f64 b s.next_heartbeat;
  w_f64 b s.relative_alt;
  w_f64 b s.latitude;
  w_f64 b s.longitude;
  (let vx, vy, vz = s.velocity in
   w_f64 b vx;
   w_f64 b vy;
   w_f64 b vz);
  w_f64 b s.heading_deg;
  w_option b w_int s.vehicle_mode;
  w_bool b s.armed;
  encode_upload_state b s.upload;
  w_array b Msg.encode_mission_item s.upload_items;
  w_option b w_int s.upload_last_seq;
  w_option b encode_retry s.upload_retry;
  w_list b
    (fun b p ->
      w_int b p.cmd;
      w_f64 b p.p1;
      w_f64 b p.p2;
      w_f64 b p.p3;
      w_f64 b p.p4;
      encode_retry b p.cmd_retry)
    s.pending_commands;
  w_list b w_int s.timed_out_commands;
  w_option b
    (fun b pm ->
      w_int b pm.mode;
      w_option b w_int pm.baseline;
      encode_retry b pm.mode_retry)
    s.pending_mode;
  w_bool b s.mode_timed_out;
  w_list b
    (fun b (cmd, accepted) ->
      w_int b cmd;
      w_bool b accepted)
    s.command_acks

let decode ~link r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:4 in
  let decoder = Frame.decode_decoder r in
  let seq = r_int r in
  let now = r_f64 r in
  let next_heartbeat = r_f64 r in
  let relative_alt = r_f64 r in
  let latitude = r_f64 r in
  let longitude = r_f64 r in
  let velocity =
    let vx = r_f64 r in
    let vy = r_f64 r in
    let vz = r_f64 r in
    (vx, vy, vz)
  in
  let heading_deg = r_f64 r in
  let vehicle_mode = r_option r r_int in
  let armed = r_bool r in
  let upload = decode_upload_state r in
  let upload_items = r_array r Msg.decode_mission_item in
  let upload_last_seq = r_option r r_int in
  let upload_retry = r_option r decode_retry in
  let pending_commands =
    r_list r (fun r ->
        let cmd = r_int r in
        let p1 = r_f64 r in
        let p2 = r_f64 r in
        let p3 = r_f64 r in
        let p4 = r_f64 r in
        let cmd_retry = decode_retry r in
        { cmd; p1; p2; p3; p4; cmd_retry })
  in
  let timed_out_commands = r_list r r_int in
  let pending_mode =
    r_option r (fun r ->
        let mode = r_int r in
        let baseline = r_option r r_int in
        let mode_retry = decode_retry r in
        { mode; baseline; mode_retry })
  in
  let mode_timed_out = r_bool r in
  let command_acks =
    r_list r (fun r ->
        let cmd = r_int r in
        let accepted = r_bool r in
        (cmd, accepted))
  in
  {
    link;
    decoder;
    seq;
    now;
    next_heartbeat;
    relative_alt;
    latitude;
    longitude;
    velocity;
    heading_deg;
    vehicle_mode;
    armed;
    upload;
    upload_items;
    upload_last_seq;
    upload_retry;
    pending_commands;
    timed_out_commands;
    pending_mode;
    mode_timed_out;
    command_acks;
  }

let fresh_retry t ~retries =
  { next_at = t.now +. initial_backoff; backoff = initial_backoff;
    left = retries }

let bumped_retry t (r : retry) =
  let backoff = r.backoff *. backoff_factor in
  { next_at = t.now +. backoff; backoff; left = r.left - 1 }

let send t msg =
  let data = Frame.encode ~seq:t.seq ~sysid ~compid msg in
  t.seq <- (t.seq + 1) land 0xFF;
  Link.send t.link Link.Gcs_end data

let handle t (msg : Msg.t) =
  match msg with
  | Msg.Heartbeat { custom_mode; armed; _ } ->
    t.vehicle_mode <- Some custom_mode;
    t.armed <- armed;
    (match t.pending_mode with
    | Some pm when custom_mode = pm.mode || pm.baseline <> Some custom_mode ->
      (* The requested mode may never appear verbatim in a heartbeat (AUTO
         resolves to a mission phase code), so any departure from the mode
         cached at request time also counts as confirmation. *)
      t.pending_mode <- None
    | _ -> ())
  | Msg.Global_position g ->
    t.relative_alt <- float_of_int g.relative_alt_mm /. 1000.0;
    t.latitude <- Avis_geo.Geodesy.e7_to_deg g.lat_e7;
    t.longitude <- Avis_geo.Geodesy.e7_to_deg g.lon_e7;
    t.velocity <-
      ( float_of_int g.vx_cm /. 100.0,
        float_of_int g.vy_cm /. 100.0,
        float_of_int g.vz_cm /. 100.0 );
    t.heading_deg <- float_of_int g.heading_cdeg /. 100.0
  | Msg.Mission_request { seq } ->
    if t.upload = Upload_in_progress then
      if seq >= 0 && seq < Array.length t.upload_items then begin
        send t (Msg.Mission_item t.upload_items.(seq));
        t.upload_last_seq <- Some seq;
        (* A request is progress: the channel works, so the backoff and the
           retry budget start over. *)
        t.upload_retry <- Some (fresh_retry t ~retries:upload_retries)
      end
      else begin
        t.upload <- Upload_failed;
        t.upload_retry <- None
      end
  | Msg.Mission_ack { accepted } ->
    if t.upload = Upload_in_progress then begin
      t.upload <- (if accepted then Upload_done else Upload_failed);
      t.upload_retry <- None
    end
  | Msg.Command_ack { command; accepted } ->
    t.command_acks <- (command, accepted) :: t.command_acks;
    t.pending_commands <-
      List.filter (fun p -> p.cmd <> command) t.pending_commands
  | Msg.Sys_status _ | Msg.Statustext _ ->
    (* No workload reads the battery figure or status texts. *)
    ()
  | Msg.Set_mode _ | Msg.Mission_count _ | Msg.Mission_item _
  | Msg.Mission_current _ | Msg.Command_long _ ->
    (* Vehicle-to-GCS traffic never carries these; ignore. *)
    ()

let poll t =
  let bytes = Link.receive t.link Link.Gcs_end in
  let frames = Frame.feed t.decoder bytes in
  let msgs = List.map (fun f -> f.Frame.message) frames in
  List.iter (handle t) msgs;
  msgs

let resend_upload t =
  match t.upload_last_seq with
  | None ->
    send t (Msg.Mission_count { count = Array.length t.upload_items })
  | Some seq -> send t (Msg.Mission_item t.upload_items.(seq))

let drive_retries t =
  (match t.upload_retry with
  | Some r when t.upload = Upload_in_progress && t.now >= r.next_at ->
    if r.left = 0 then begin
      t.upload <- Upload_timed_out;
      t.upload_retry <- None
    end
    else begin
      resend_upload t;
      t.upload_retry <- Some (bumped_retry t r)
    end
  | _ -> ());
  t.pending_commands <-
    List.filter_map
      (fun p ->
        if t.now < p.cmd_retry.next_at then Some p
        else if p.cmd_retry.left = 0 then begin
          t.timed_out_commands <- p.cmd :: t.timed_out_commands;
          None
        end
        else begin
          send t
            (Msg.Command_long
               { command = p.cmd; param1 = p.p1; param2 = p.p2; param3 = p.p3;
                 param4 = p.p4 });
          Some { p with cmd_retry = bumped_retry t p.cmd_retry }
        end)
      t.pending_commands;
  match t.pending_mode with
  | Some pm when t.now >= pm.mode_retry.next_at ->
    if pm.mode_retry.left = 0 then begin
      t.pending_mode <- None;
      t.mode_timed_out <- true
    end
    else begin
      send t (Msg.Set_mode { custom_mode = pm.mode });
      t.pending_mode <- Some { pm with mode_retry = bumped_retry t pm.mode_retry }
    end
  | _ -> ()

let tick t ~time =
  t.now <- time;
  let msgs = poll t in
  if t.now >= t.next_heartbeat then begin
    send t (Msg.Heartbeat { custom_mode = 0; armed = false; system_status = 0 });
    t.next_heartbeat <- t.next_heartbeat +. heartbeat_period
  end;
  drive_retries t;
  msgs

let relative_alt t = t.relative_alt
let latitude t = t.latitude
let longitude t = t.longitude
let velocity t = t.velocity
let heading_deg t = t.heading_deg
let vehicle_mode t = t.vehicle_mode
let armed t = t.armed

let start_mission_upload t items =
  if t.upload = Upload_in_progress then
    invalid_arg "Gcs.start_mission_upload: upload already in progress";
  t.upload_items <- Array.of_list items;
  t.upload <- Upload_in_progress;
  t.upload_last_seq <- None;
  t.upload_retry <- Some (fresh_retry t ~retries:upload_retries);
  send t (Msg.Mission_count { count = List.length items })

let upload_state t = t.upload

let send_command t ~command ?(param2 = 0.0) ?(param3 = 0.0) ?(param4 = 0.0)
    ~param1 () =
  t.command_acks <- List.remove_assoc command t.command_acks;
  t.timed_out_commands <-
    List.filter (fun c -> c <> command) t.timed_out_commands;
  t.pending_commands <-
    { cmd = command; p1 = param1; p2 = param2; p3 = param3; p4 = param4;
      cmd_retry = fresh_retry t ~retries:command_retries }
    :: List.filter (fun p -> p.cmd <> command) t.pending_commands;
  send t (Msg.Command_long { command; param1; param2; param3; param4 })

let command_ack t ~command = List.assoc_opt command t.command_acks

let command_status t ~command =
  match List.assoc_opt command t.command_acks with
  | Some accepted -> Tx_acked accepted
  | None ->
    if List.exists (fun p -> p.cmd = command) t.pending_commands then Tx_pending
    else if List.mem command t.timed_out_commands then Tx_timed_out
    else Tx_pending

let request_mode t mode =
  t.mode_timed_out <- false;
  t.pending_mode <-
    Some
      { mode; baseline = t.vehicle_mode;
        mode_retry = fresh_retry t ~retries:mode_retries };
  send t (Msg.Set_mode { custom_mode = mode })

let mode_status t =
  if t.mode_timed_out then Tx_timed_out
  else match t.pending_mode with Some _ -> Tx_pending | None -> Tx_acked true
