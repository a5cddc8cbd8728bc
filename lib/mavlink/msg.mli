(** The MAVLink-style message set.

    This is a faithful subset of MAVLink 1 message *semantics* — the
    messages, fields and transaction rules the paper's workload framework
    has to deal with (most importantly the multi-message mission-upload
    handshake). Wire compatibility with real MAVLink is a non-goal: the
    framing, CRC style and little-endian packing match, but message layouts
    are our own, so the dialect is self-consistent rather than
    interoperable. *)

type mission_item = {
  seq : int;
  command : int;  (** MAV_CMD numeric id; see the [cmd_*] constants. *)
  param1 : float;
  x : float;  (** Latitude, degrees. *)
  y : float;  (** Longitude, degrees. *)
  z : float;  (** Altitude, metres above home. *)
}

val encode_mission_item : Buffer.t -> mission_item -> unit
val decode_mission_item : Avis_util.Codec.reader -> mission_item
(** Binary layout for checkpoints (not the wire format). *)

val cmd_waypoint : int
val cmd_takeoff : int
val cmd_land : int
val cmd_return_to_launch : int
val cmd_arm_disarm : int
val cmd_reposition : int

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

val msg_id : t -> int

val encode_payload : t -> string

val decode_payload : msg_id:int -> string -> t option
(** [None] when the id is unknown or the payload is malformed. *)

val crc_extra : int -> int
(** Per-message-id CRC seed byte, as in MAVLink's packet signing of message
    layouts. Every id in [0, 255] has one, so a frame whose id this dialect
    does not know still passes the checksum and is then dropped as
    unknown. *)

val describe : t -> string
(** One-line human-readable rendering for logs. *)
