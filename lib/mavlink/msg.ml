type mission_item = {
  seq : int;
  command : int;
  param1 : float;
  x : float;
  y : float;
  z : float;
}

let encode_mission_item b (it : mission_item) =
  let open Avis_util.Codec in
  w_int b it.seq;
  w_int b it.command;
  w_f64 b it.param1;
  w_f64 b it.x;
  w_f64 b it.y;
  w_f64 b it.z

let decode_mission_item r : mission_item =
  let open Avis_util.Codec in
  let seq = r_int r in
  let command = r_int r in
  let param1 = r_f64 r in
  let x = r_f64 r in
  let y = r_f64 r in
  let z = r_f64 r in
  { seq; command; param1; x; y; z }

let cmd_waypoint = 16
let cmd_takeoff = 22
let cmd_land = 21
let cmd_return_to_launch = 20
let cmd_arm_disarm = 400
let cmd_reposition = 192

type severity = Emergency | Alert | Critical | Error | Warning | Notice | Info

type t =
  | Heartbeat of { custom_mode : int; armed : bool; system_status : int }
  | Sys_status of { voltage_mv : int; battery_remaining : int }
  | Set_mode of { custom_mode : int }
  | Mission_count of { count : int }
  | Mission_request of { seq : int }
  | Mission_item of mission_item
  | Mission_ack of { accepted : bool }
  | Mission_current of { seq : int }
  | Command_long of {
      command : int;
      param1 : float;
      param2 : float;
      param3 : float;
      param4 : float;
    }
  | Command_ack of { command : int; accepted : bool }
  | Global_position of {
      time_boot_ms : int;
      lat_e7 : int;
      lon_e7 : int;
      relative_alt_mm : int;
      vx_cm : int;
      vy_cm : int;
      vz_cm : int;
      heading_cdeg : int;
    }
  | Statustext of { severity : severity; text : string }

let id_heartbeat = 0
let id_sys_status = 1
let id_set_mode = 11
let id_global_position = 33
let id_mission_item = 39
let id_mission_request = 40
let id_mission_current = 42
let id_mission_count = 44
let id_mission_ack = 47
let id_command_long = 76
let id_command_ack = 77
let id_statustext = 253

let msg_id = function
  | Heartbeat _ -> id_heartbeat
  | Sys_status _ -> id_sys_status
  | Set_mode _ -> id_set_mode
  | Global_position _ -> id_global_position
  | Mission_item _ -> id_mission_item
  | Mission_request _ -> id_mission_request
  | Mission_current _ -> id_mission_current
  | Mission_count _ -> id_mission_count
  | Mission_ack _ -> id_mission_ack
  | Command_long _ -> id_command_long
  | Command_ack _ -> id_command_ack
  | Statustext _ -> id_statustext

let severity_to_int = function
  | Emergency -> 0
  | Alert -> 1
  | Critical -> 2
  | Error -> 3
  | Warning -> 4
  | Notice -> 5
  | Info -> 6

let severity_of_int = function
  | 0 -> Emergency
  | 1 -> Alert
  | 2 -> Critical
  | 3 -> Error
  | 4 -> Warning
  | 5 -> Notice
  | _ -> Info

let statustext_len = 50

let encode_payload t =
  let w = Buf.writer () in
  (match t with
  | Heartbeat { custom_mode; armed; system_status } ->
    Buf.put_i32 w custom_mode;
    Buf.put_u8 w (if armed then 1 else 0);
    Buf.put_u8 w system_status
  | Sys_status { voltage_mv; battery_remaining } ->
    Buf.put_u16 w voltage_mv;
    Buf.put_u8 w battery_remaining
  | Set_mode { custom_mode } -> Buf.put_i32 w custom_mode
  | Mission_count { count } -> Buf.put_u16 w count
  | Mission_request { seq } -> Buf.put_u16 w seq
  | Mission_item { seq; command; param1; x; y; z } ->
    Buf.put_u16 w seq;
    Buf.put_u16 w command;
    Buf.put_f32 w param1;
    Buf.put_f32 w x;
    Buf.put_f32 w y;
    Buf.put_f32 w z
  | Mission_ack { accepted } -> Buf.put_u8 w (if accepted then 0 else 1)
  | Mission_current { seq } -> Buf.put_u16 w seq
  | Command_long { command; param1; param2; param3; param4 } ->
    Buf.put_u16 w command;
    Buf.put_f32 w param1;
    Buf.put_f32 w param2;
    Buf.put_f32 w param3;
    Buf.put_f32 w param4
  | Command_ack { command; accepted } ->
    Buf.put_u16 w command;
    Buf.put_u8 w (if accepted then 0 else 4)
  | Global_position g ->
    Buf.put_i32 w g.time_boot_ms;
    Buf.put_i32 w g.lat_e7;
    Buf.put_i32 w g.lon_e7;
    Buf.put_i32 w g.relative_alt_mm;
    Buf.put_i32 w g.vx_cm;
    Buf.put_i32 w g.vy_cm;
    Buf.put_i32 w g.vz_cm;
    Buf.put_u16 w g.heading_cdeg
  | Statustext { severity; text } ->
    Buf.put_u8 w (severity_to_int severity);
    Buf.put_string w ~len:statustext_len text);
  Buf.contents w

let decode_exn ~msg_id payload =
  let r = Buf.reader payload in
  if msg_id = id_heartbeat then
    let custom_mode = Buf.get_i32 r in
    let armed = Buf.get_u8 r = 1 in
    let system_status = Buf.get_u8 r in
    Heartbeat { custom_mode; armed; system_status }
  else if msg_id = id_sys_status then
    let voltage_mv = Buf.get_u16 r in
    let battery_remaining = Buf.get_u8 r in
    Sys_status { voltage_mv; battery_remaining }
  else if msg_id = id_set_mode then Set_mode { custom_mode = Buf.get_i32 r }
  else if msg_id = id_mission_count then Mission_count { count = Buf.get_u16 r }
  else if msg_id = id_mission_request then Mission_request { seq = Buf.get_u16 r }
  else if msg_id = id_mission_item then
    let seq = Buf.get_u16 r in
    let command = Buf.get_u16 r in
    let param1 = Buf.get_f32 r in
    let x = Buf.get_f32 r in
    let y = Buf.get_f32 r in
    let z = Buf.get_f32 r in
    Mission_item { seq; command; param1; x; y; z }
  else if msg_id = id_mission_ack then Mission_ack { accepted = Buf.get_u8 r = 0 }
  else if msg_id = id_mission_current then Mission_current { seq = Buf.get_u16 r }
  else if msg_id = id_command_long then
    let command = Buf.get_u16 r in
    let param1 = Buf.get_f32 r in
    let param2 = Buf.get_f32 r in
    let param3 = Buf.get_f32 r in
    let param4 = Buf.get_f32 r in
    Command_long { command; param1; param2; param3; param4 }
  else if msg_id = id_command_ack then
    let command = Buf.get_u16 r in
    let accepted = Buf.get_u8 r = 0 in
    Command_ack { command; accepted }
  else if msg_id = id_global_position then
    let time_boot_ms = Buf.get_i32 r in
    let lat_e7 = Buf.get_i32 r in
    let lon_e7 = Buf.get_i32 r in
    let relative_alt_mm = Buf.get_i32 r in
    let vx_cm = Buf.get_i32 r in
    let vy_cm = Buf.get_i32 r in
    let vz_cm = Buf.get_i32 r in
    let heading_cdeg = Buf.get_u16 r in
    Global_position
      { time_boot_ms; lat_e7; lon_e7; relative_alt_mm; vx_cm; vy_cm; vz_cm; heading_cdeg }
  else if msg_id = id_statustext then
    let severity = severity_of_int (Buf.get_u8 r) in
    let text = Buf.get_string r ~len:statustext_len in
    Statustext { severity; text }
  else raise Buf.Truncated

let decode_payload ~msg_id payload =
  match decode_exn ~msg_id payload with
  | msg -> Some msg
  | exception Buf.Truncated -> None

(* A fixed pseudo-random byte per message id, mixed into the frame CRC so
   that decoding a payload against the wrong layout fails the checksum. *)
let crc_extra id = (id * 151 + 47) land 0xFF

let describe = function
  | Heartbeat { custom_mode; armed; _ } ->
    Printf.sprintf "HEARTBEAT mode=%d armed=%b" custom_mode armed
  | Sys_status { voltage_mv; battery_remaining } ->
    Printf.sprintf "SYS_STATUS %.1fV %d%%" (float_of_int voltage_mv /. 1000.0)
      battery_remaining
  | Set_mode { custom_mode } -> Printf.sprintf "SET_MODE %d" custom_mode
  | Mission_count { count } -> Printf.sprintf "MISSION_COUNT %d" count
  | Mission_request { seq } -> Printf.sprintf "MISSION_REQUEST %d" seq
  | Mission_item { seq; command; _ } ->
    Printf.sprintf "MISSION_ITEM seq=%d cmd=%d" seq command
  | Mission_ack { accepted } -> Printf.sprintf "MISSION_ACK accepted=%b" accepted
  | Mission_current { seq } -> Printf.sprintf "MISSION_CURRENT %d" seq
  | Command_long { command; _ } -> Printf.sprintf "COMMAND_LONG %d" command
  | Command_ack { command; accepted } ->
    Printf.sprintf "COMMAND_ACK %d accepted=%b" command accepted
  | Global_position { relative_alt_mm; _ } ->
    Printf.sprintf "GLOBAL_POSITION alt=%.2fm" (float_of_int relative_alt_mm /. 1000.0)
  | Statustext { text; _ } -> Printf.sprintf "STATUSTEXT %S" text
