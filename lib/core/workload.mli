(** The high-level workload framework (§V-A, Fig. 8), reified as data.

    A workload used to be an opaque [run : api -> unit] closure built from
    blocking primitives; its call stack made mid-run state uncapturable. It
    is now a *script*: a list of explicit {!step} values interpreted by a
    resumable {!Stepper} whose program counter is plain data. The stepper
    pumps the simulator step by step (the step() RPC of Fig. 7) until each
    step's condition holds, can pause at any simulated time, and can be
    encoded and decoded together with the simulator — the mechanism the
    prefix cache forks clean runs with.

    Two default workloads mirror the paper's: a *manual box* (position-hold
    mode around a 20 m × 20 m square at 20 m) and an *auto box* mission
    (waypoints, then return to launch); [fence_mission] adds the geofenced
    variant and [quickstart] is Fig. 8's takeoff-and-land verbatim. *)

open Avis_sitl

(** {2 The step DSL} *)

(** Mission items as data; converted to geodetic MAVLink items only when
    the upload starts, using the simulation's local frame. *)
type mission_step =
  | Takeoff_item of float  (** Target altitude, metres. *)
  | Waypoint_item of { north : float; east : float; alt : float }
      (** Local offsets from home, metres. *)
  | Land_item
  | Rtl_item

(** One step of a workload script. Command steps ([Arm], [Takeoff],
    [Upload_mission]) send and then wait for the acknowledgement /
    handshake, failing the workload on rejection; fire-and-forget steps
    ([Enter_auto], [Reposition], [Land_now], [Return_to_launch]) complete
    immediately; wait steps block until their condition holds, failing on
    [timeout] (simulated seconds, [infinity] = no limit). *)
type step =
  | Wait_time of float  (** Let the simulation run for this many seconds. *)
  | Upload_mission of mission_step list
      (** Run the full COUNT → REQUEST… → ACK handshake (30 s timeout). *)
  | Arm  (** Arm and wait for a positive acknowledgement (10 s timeout). *)
  | Enter_auto  (** Request the Auto mission mode. *)
  | Takeoff of float  (** Direct takeoff command (manual workloads). *)
  | Reposition of { north : float; east : float; alt : float }
      (** Position-hold target in local metres (manual mode). *)
  | Land_now
  | Return_to_launch
  | Wait_altitude of { alt : float; tolerance : float; timeout : float }
  | Wait_mode of int  (** Wait for a heartbeat with this mode code. *)
  | Wait_disarmed
      (** Wait for an armed heartbeat followed by a disarmed one. *)
  | Wait_near of { north : float; east : float; radius : float; timeout : float }
      (** Wait until the reported position is within [radius] metres
          (horizontally) of the local-frame target. *)

val wait_altitude : ?tolerance:float -> ?timeout:float -> float -> step
(** [Wait_altitude] with the defaults: tolerance 0.75 m, no timeout. *)

val wait_near : ?radius:float -> ?timeout:float -> north:float -> east:float -> unit -> step
(** [Wait_near] with the defaults: radius 2.5 m, no timeout. *)

(** {2 Workloads} *)

type t = {
  name : string;
  description : string;
  environment : unit -> Avis_physics.Environment.t option;
      (** The physical environment this workload needs ([None] = benign). *)
  nominal_duration : float;  (** Simulated seconds a clean run takes. *)
  script : step list;
}

(** {2 The resumable interpreter} *)

module Stepper : sig
  type status =
    | Running  (** Paused at a time limit; resumable. *)
    | Done of bool  (** Finished; the payload is the pass verdict. *)

  type stepper

  val create : t -> stepper

  val run : stepper -> Sim.t -> until:float -> status
  (** Pump the simulation, interpreting the script, until the workload
      completes or fails, the run ends, or the simulation clock is about to
      reach [until] (the stepper pauses strictly before it; pass
      [infinity] to run to completion). Resuming a paused stepper with a
      later [until] continues bit-identically to an uninterrupted run. *)

  val reached : Sim.t -> until:float -> bool
  (** Whether the simulation has reached [until] as {!run} counts it: its
      next step would land at or past [until], so [run ~until] takes no
      step. *)

  val status : stepper -> status

  val encode : Buffer.t -> stepper -> unit
  (** Versioned binary layout of the stepper's execution state — program
      counter, step-entry flag, timers, status — without the script. *)

  val decode : t -> Avis_util.Codec.reader -> stepper
  (** Inverse of {!encode}, resuming the script of the given workload (the
      one the stepper was created for). Pair it with {!Sim.restore} of a
      simulator snapshot taken at the same moment. Raises
      [Avis_util.Codec.Corrupt] on malformed input. *)
end

val execute : t -> Sim.t -> bool
(** Run the workload script against a provisioned simulation; [true] when
    it completed (called [pass_test] in the paper's framework). *)

val quickstart : t
(** Fig. 8: wait, upload takeoff+land, arm, auto, wait up, wait down. *)

val manual_box : t
(** First default workload: position-hold around a 20 m box at 20 m. *)

val auto_box : t
(** Second default workload (fenceless variant): an auto mission around the
    box, then return to launch. *)

val fence_mission : t
(** The fenced variant: one leg crosses restricted airspace the firmware
    must refuse to enter. *)

val all : t list

val by_name : string -> t option
