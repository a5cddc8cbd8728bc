(** The complete control firmware.

    One [step] per simulation time-step: sample the (hinj-instrumented)
    drivers, evaluate failure handling, update the state estimate, process
    ground-station traffic, run the active flight phase's logic, and
    produce motor commands. Mode changes are reported through hinj (the
    paper's [hinj_update_mode] call site), which is what the fault
    injection engine keys its schedule on. *)

open Avis_geo
open Avis_mavlink

type t

val create :
  ?fence:Avis_physics.Environment.fence ->
  policy:Policy.t ->
  bugs:Bug.registry ->
  suite:Avis_sensors.Suite.t ->
  hinj:Avis_hinj.Hinj.t ->
  link:Link.t ->
  frame:Geodesy.frame ->
  unit ->
  t
(** [fence] configures the firmware's own geofence (as uploaded by a ground
    station); the vehicle returns to launch rather than cross it. *)

val step : t -> Avis_physics.World.t -> dt:float -> float array
(** Run one control cycle and return the motor commands for this step. *)

val time : t -> float
val phase : t -> Phase.t
val armed : t -> bool
val policy : t -> Policy.t
val bugs : t -> Bug.registry

val transitions : t -> (float * Phase.t * Phase.t) list
(** Mode-transition history, oldest first. *)

val estimator : t -> Estimator.t
(** The firmware's belief about its own state (diagnostics). *)

val triggered_bugs : t -> Bug.id list
(** Every bug whose flawed path has been exercised so far in this run
    (diagnostics; the model checker does not read this). *)

val encode : Buffer.t -> t -> unit
(** Bit-exact binary layout of the firmware's run state
    (estimator, controller, drivers, protocol and mode logic). The policy,
    the fence and the bug registry come from the run's config and are not
    written, nor are the collaborators and the home frame. *)

val decode :
  ?fence:Avis_physics.Environment.fence ->
  policy:Policy.t ->
  bugs:Bug.registry ->
  suite:Avis_sensors.Suite.t ->
  hinj:Avis_hinj.Hinj.t ->
  link:Link.t ->
  frame:Geodesy.frame ->
  Avis_util.Codec.reader ->
  t
(** Inverse of {!encode}: firmware flying the [policy], [fence] and [bugs]
    it was created with, over the decoded copies of its collaborators (the
    sensor suite, the fault injector and the MAVLink link) and the home
    [frame]. Raises [Avis_util.Codec.Corrupt] on malformed input. *)
