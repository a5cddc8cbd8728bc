(** Common interface for the fault-space search strategies.

    A strategy is a stateful generator: [next] yields the scenario to
    simulate next together with the inference wall-clock the strategy spent
    deciding (zero for everything except the BFI variants), and [observe]
    feeds back the run's outcome — SABRE enqueues the run's mode
    transitions as new injection sites, BFI's model is static, etc. *)

open Avis_sensors

(** What every strategy knows before searching: the profiling run. *)
type context = {
  transitions : (float * string * string) list;
      (** Mode transitions of the fault-free profiling run (time, from, to). *)
  mission_duration : float;  (** Length of the profiling run, seconds. *)
  instances : Sensor.id list;  (** The vehicle's sensor instances. *)
  instances_of_kind : Sensor.kind -> int;
  mode_at : float -> string option;
      (** Mode timeline of the profiling run. *)
  rng : Avis_util.Rng.t;
}

val context_of_run :
  rng:Avis_util.Rng.t -> transitions:Avis_hinj.Hinj.transition list ->
  duration:float -> context
(** Build the search context from a profiling run's mode transitions and
    duration, the only parts of its outcome a context reads. *)

type run_result = {
  unsafe : bool;
  observed_transitions : float list;
      (** Transition timestamps observed during the injected run. *)
}

(** One scheduling decision. *)
type step =
  | Run of Scenario.t * float
      (** Simulate this scenario; the float is inference wall-clock spent
          deciding (zero except for the BFI variants). *)
  | Think of float
      (** No scenario yet, but this much inference wall-clock was burned
          considering (and rejecting) candidates. *)
  | Exhausted

type t = {
  name : string;
  next : unit -> step;
  observe : Scenario.t -> run_result -> unit;
}

(** {2 Shared machinery} *)

val candidate_sets : context -> at:float -> base:Scenario.t -> Scenario.t list
(** All scenarios obtained by adding a non-empty failure set at time [at]
    on top of [base]. The powerset of Algorithm 1 ranges over sensor
    *types* (instance symmetry already folds the instances of a type):
    whole-kind outages first, then pairs of whole-kind outages (multi-type
    losses such as PX4-13291's GPS+battery), then single-instance failures
    (which exercise the failover paths). Larger combinations arise by
    composition across sites (lines 11–14). *)

val random_scenario : context -> Scenario.t
(** The Rnd baseline's sampler: a uniformly random reading (site), failing
    mostly a single instance — matching the paper's "chose fault injection
    sites from all sensor readings with equal probability". *)
