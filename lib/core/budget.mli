(** The wall-clock cost model.

    The paper gives each approach two hours of wall-clock per workload. We
    reproduce that with a deterministic accounting model instead of real
    time: simulated flight costs its duration divided by the simulator's
    real-time speed-up, and BFI's model inference costs the ~10 seconds
    per labelled scenario the paper reports. Campaigns stop when the
    budget is spent, so comparisons across approaches are equal-budget as
    in Table III. *)

type t

val min_inference_s : float
(** The floor on any inference charge (0.01 s): even a candidate the
    model rejects outright costs a feature lookup. Without the floor a
    searcher that keeps answering [Think 0.0] (e.g. a gate rejecting at
    zero cost) never advances [spent_s] and the campaign loop live-locks. *)

val create : ?speedup:float -> total_s:float -> unit -> t
(** [speedup] is simulated-seconds per wall-second (default 5). *)

val charge_simulation : t -> sim_seconds:float -> unit
(** Account a simulated run. The recorded spend saturates at [total_s]:
    a campaign is cut off when the budget clock runs out, so no ledger
    ever reports more wall-clock than it was given. *)

val charge_inference : t -> float -> unit
(** Account model-inference wall time (BFI variants). At least
    {!min_inference_s} is charged; saturates at [total_s] like
    {!charge_simulation}. *)

val spent_s : t -> float
val remaining_s : t -> float
val exhausted : t -> bool

val can_afford_run : t -> sim_seconds:float -> bool
(** Whether a run of that length still fits. *)

val simulations_run : t -> int
val inferences_run : t -> int
