open Avis_geo
open Avis_mavlink

type request =
  | Req_arm
  | Req_disarm
  | Req_takeoff of float
  | Req_land
  | Req_rtl
  | Req_auto
  | Req_manual
  | Req_reposition of Vec3.t

type telemetry = {
  phase_code : int;
  armed : bool;
  position : Vec3.t;
  velocity : Vec3.t;
  yaw : float;
  battery_voltage : float;
  battery_remaining : float;
}

type upload = {
  expected : int;
  mutable received : Msg.mission_item list; (* newest first *)
  mutable next_seq : int;
}

type t = {
  link : Link.t;
  frame : Geodesy.frame;
  params : Params.t;
  decoder : Frame.decoder;
  mutable seq : int;
  mutable upload : upload option;
  mutable mission : Msg.mission_item list;
  mutable next_heartbeat : float;
  mutable next_position : float;
  mutable next_sys_status : float;
  mutable last_gcs_heartbeat : float option;
}

let create ~link ~frame ~params () =
  {
    link;
    frame;
    params;
    decoder = Frame.decoder ();
    seq = 0;
    upload = None;
    mission = [];
    next_heartbeat = 0.0;
    next_position = 0.0;
    next_sys_status = 0.0;
    last_gcs_heartbeat = None;
  }

let send t msg =
  let data = Frame.encode ~seq:t.seq ~sysid:1 ~compid:1 msg in
  t.seq <- (t.seq + 1) land 0xFF;
  Link.send t.link Link.Vehicle_end data

let ack_command t ~command ~accepted = send t (Msg.Command_ack { command; accepted })

let handle_mission_count t count =
  if count <= 0 then send t (Msg.Mission_ack { accepted = false })
  else begin
    t.upload <- Some { expected = count; received = []; next_seq = 0 };
    send t (Msg.Mission_request { seq = 0 })
  end

let handle_mission_item t (item : Msg.mission_item) =
  match t.upload with
  | None -> ()
  | Some u ->
    if item.Msg.seq = u.next_seq then begin
      u.received <- item :: u.received;
      u.next_seq <- u.next_seq + 1;
      if u.next_seq >= u.expected then begin
        t.mission <- List.rev u.received;
        t.upload <- None;
        send t (Msg.Mission_ack { accepted = true })
      end
      else send t (Msg.Mission_request { seq = u.next_seq })
    end
    else
      (* Out-of-order item: re-request the one we need. *)
      send t (Msg.Mission_request { seq = u.next_seq })

let request_of_command t (command : int) param1 param2 param3 param4 =
  if command = Msg.cmd_arm_disarm then
    Some (if param1 >= 0.5 then Req_arm else Req_disarm)
  else if command = Msg.cmd_takeoff then Some (Req_takeoff param1)
  else if command = Msg.cmd_land then Some Req_land
  else if command = Msg.cmd_return_to_launch then Some Req_rtl
  else if command = Msg.cmd_reposition then begin
    ignore param4;
    ignore t;
    Some (Req_reposition (Vec3.make param1 param2 param3))
  end
  else None

let request_of_mode code =
  match Phase.of_code code with
  | Some Phase.Manual -> Some Req_manual
  | Some Phase.Rtl -> Some Req_rtl
  | Some Phase.Land -> Some Req_land
  | Some (Phase.Waypoint _) -> Some Req_auto
  | Some Phase.Takeoff -> Some Req_auto
  | Some Phase.Preflight | Some Phase.Landed | None -> (
    (* Convention: SET_MODE 3 requests the Auto mission even though no
       phase maps to 3 directly (it is ArduPilot's AUTO number). *)
    match code with 3 -> Some Req_auto | _ -> None)

let handle_message t msg =
  match msg with
  | Msg.Mission_count { count } ->
    handle_mission_count t count;
    None
  | Msg.Mission_item item ->
    handle_mission_item t item;
    None
  | Msg.Command_long { command; param1; param2; param3; param4 } ->
    let req = request_of_command t command param1 param2 param3 param4 in
    if req = None then ack_command t ~command ~accepted:false;
    req
  | Msg.Set_mode { custom_mode } -> request_of_mode custom_mode
  | Msg.Heartbeat _ | Msg.Sys_status _ | Msg.Mission_request _
  | Msg.Mission_ack _ | Msg.Mission_current _ | Msg.Command_ack _
  | Msg.Global_position _ | Msg.Statustext _ ->
    None

let emit_telemetry t ~time tel =
  if time >= t.next_heartbeat then begin
    t.next_heartbeat <- time +. t.params.Params.heartbeat_period;
    send t
      (Msg.Heartbeat
         { custom_mode = tel.phase_code; armed = tel.armed; system_status = 4 })
  end;
  if time >= t.next_position then begin
    t.next_position <- time +. t.params.Params.position_period;
    let geo = Geodesy.of_local t.frame tel.position in
    let open Vec3 in
    send t
      (Msg.Global_position
         {
           time_boot_ms = int_of_float (time *. 1000.0);
           lat_e7 = Geodesy.lat_to_e7 geo.Geodesy.lat;
           lon_e7 = Geodesy.lon_to_e7 geo.Geodesy.lon;
           relative_alt_mm = int_of_float (tel.position.z *. 1000.0);
           vx_cm = int_of_float (tel.velocity.x *. 100.0);
           vy_cm = int_of_float (tel.velocity.y *. 100.0);
           vz_cm = int_of_float (tel.velocity.z *. 100.0);
           heading_cdeg =
             (let deg = tel.yaw *. 180.0 /. Float.pi in
              let deg = if deg < 0.0 then deg +. 360.0 else deg in
              int_of_float (deg *. 100.0) mod 36000);
         })
  end;
  if time >= t.next_sys_status then begin
    t.next_sys_status <- time +. t.params.Params.sys_status_period;
    send t
      (Msg.Sys_status
         {
           voltage_mv = int_of_float (tel.battery_voltage *. 1000.0);
           battery_remaining =
             Avis_util.Stats.clampi ~lo:0 ~hi:100
               (int_of_float (tel.battery_remaining *. 100.0));
         })
  end

let step t ~time tel =
  let bytes = Link.receive t.link Link.Vehicle_end in
  let frames = Frame.feed t.decoder bytes in
  let requests =
    List.filter_map
      (fun f ->
        (match f.Frame.message with
        | Msg.Heartbeat _ -> t.last_gcs_heartbeat <- Some time
        | _ -> ());
        handle_message t f.Frame.message)
      frames
  in
  emit_telemetry t ~time tel;
  requests

let mission t = t.mission

let gcs_last_heartbeat t = t.last_gcs_heartbeat

(* As with [Gcs], the [link] is not serialised: the decoding caller
   passes the decoded link, the home frame and the personality's fixed
   parameter set. *)
let encode b (s : t) =
  let open Avis_util.Codec in
  w_version b 3;
  Frame.encode_decoder b s.decoder;
  w_int b s.seq;
  w_option b
    (fun b (u : upload) ->
      w_int b u.expected;
      w_list b Msg.encode_mission_item u.received;
      w_int b u.next_seq)
    s.upload;
  w_list b Msg.encode_mission_item s.mission;
  w_f64 b s.next_heartbeat;
  w_f64 b s.next_position;
  w_f64 b s.next_sys_status;
  w_option b w_f64 s.last_gcs_heartbeat

let decode ~link ~frame ~params r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:3 in
  let decoder = Frame.decode_decoder r in
  let seq = r_int r in
  let upload =
    r_option r (fun r ->
        let expected = r_int r in
        let received = r_list r Msg.decode_mission_item in
        let next_seq = r_int r in
        { expected; received; next_seq })
  in
  let mission = r_list r Msg.decode_mission_item in
  let next_heartbeat = r_f64 r in
  let next_position = r_f64 r in
  let next_sys_status = r_f64 r in
  let last_gcs_heartbeat = r_option r r_f64 in
  {
    link;
    frame;
    params;
    decoder;
    seq;
    upload;
    mission;
    next_heartbeat;
    next_position;
    next_sys_status;
    last_gcs_heartbeat;
  }
