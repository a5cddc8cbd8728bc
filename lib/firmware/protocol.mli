(** Vehicle-side MAVLink handling.

    Owns the vehicle end of the link: decodes incoming frames, runs the
    vehicle's half of the mission-upload handshake (it requests each item —
    the ground station must answer, which is the transaction the paper
    notes makes naive workloads deadlock-prone), acknowledges commands, and
    streams telemetry at the configured rates. Pilot-level requests are
    surfaced as a queue of {!request} values for the mode logic. *)

open Avis_geo
open Avis_mavlink

type request =
  | Req_arm
  | Req_disarm
  | Req_takeoff of float  (** Target altitude, metres. *)
  | Req_land
  | Req_rtl
  | Req_auto  (** Start the uploaded mission. *)
  | Req_manual
  | Req_reposition of Vec3.t  (** Local-frame target. *)

(** What the mode logic must expose for telemetry. *)
type telemetry = {
  phase_code : int;
  armed : bool;
  position : Vec3.t;  (** Estimated position, local frame. *)
  velocity : Vec3.t;
  yaw : float;
  battery_voltage : float;
  battery_remaining : float;
}

type t

val create : link:Link.t -> frame:Geodesy.frame -> params:Params.t -> unit -> t

val encode : Buffer.t -> t -> unit
(** Versioned bit-exact binary layout of the protocol state: upload
    transaction, mission, telemetry schedules and decoder. The link, the
    home frame and the parameter set given at {!create} are not
    written. *)

val decode :
  link:Link.t ->
  frame:Geodesy.frame ->
  params:Params.t ->
  Avis_util.Codec.reader ->
  t
(** Inverse of {!encode}, attached to [link] (the decoded copy of the link
    it was encoded over) and flying the [frame] and [params] it was created
    with. Raises [Avis_util.Codec.Corrupt] on malformed input. *)

val step : t -> time:float -> telemetry -> request list
(** Process inbound traffic and emit due telemetry. Returns the pilot
    requests decoded this cycle, in arrival order. *)

val mission : t -> Msg.mission_item list
(** The last fully uploaded mission (empty before any upload). *)

val gcs_last_heartbeat : t -> float option
(** When the last heartbeat from the ground station arrived — the input to
    the GCS-loss failsafe. [None] before first contact, so a vehicle that
    never heard a GCS does not failsafe on the ground. *)

val ack_command : t -> command:int -> accepted:bool -> unit
(** Send a COMMAND_ACK (the mode logic decides acceptance). *)
