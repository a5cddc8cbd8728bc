open Avis_sitl

(* What a test run is judged against, precomputed once per cell: the
   padded profiling runs and normalisers ([Distance.t]), τ under each
   metric, and the envelope the symptom classifier reads. *)
type profile = {
  norm : Distance.t;
  tau_full : float;
  tau_position : float;
  max_alt : float;
  max_home_dist : float;
}

(* [Vec3.norm (Vec3.horizontal v)] bit for bit: the zeroed z still adds
   its square last. *)
let[@inline] horizontal_norm x y = sqrt ((x *. x) +. (y *. y) +. (0.0 *. 0.0))

let[@inline] home_distance tr i = horizontal_norm (Trace.px tr i) (Trace.py tr i)

let build_profile outcomes =
  if outcomes = [] then invalid_arg "Monitor.build_profile: no profiling runs";
  let traces = List.map (fun o -> o.Sim.trace) outcomes in
  let transitions =
    List.map
      (fun o ->
        List.map
          (fun tr -> (tr.Avis_hinj.Hinj.from_mode, tr.Avis_hinj.Hinj.to_mode))
          o.Sim.transitions)
      outcomes
  in
  let graph = Mode_graph.build ~transitions in
  let norm = Distance.build ~graph ~profiles:traces in
  let max_alt = ref 0.0 and max_home_dist = ref 0.0 in
  let runs = Array.of_list traces in
  for r = 0 to Array.length runs - 1 do
    let tr = runs.(r) in
    for i = 0 to Trace.length tr - 1 do
      max_alt := Float.max !max_alt (Trace.pz tr i);
      max_home_dist := Float.max !max_home_dist (home_distance tr i)
    done
  done;
  (* A floor keeps τ meaningful when the profiling runs are near-identical,
     and a safety margin absorbs per-instance sensor biases the profiling
     runs cannot have sampled (a failover to a backup instance changes the
     noise realisation without being a misbehaviour). *)
  let tau_floor = 0.75 in
  let margin = 1.35 in
  {
    norm;
    tau_full =
      Float.max tau_floor (margin *. Distance.spread ~metric:Distance.Full norm);
    tau_position =
      Float.max tau_floor
        (margin *. Distance.spread ~metric:Distance.Position_only norm);
    max_alt = !max_alt;
    max_home_dist = !max_home_dist;
  }

let graph p = Distance.graph p.norm
let tau p = p.tau_full
let normalisers p = p.norm

let encode b p =
  let[@warning "+9"] { norm; tau_full; tau_position; max_alt; max_home_dist } =
    p
  in
  let open Avis_util.Codec in
  Distance.encode b norm;
  w_f64 b tau_full;
  w_f64 b tau_position;
  w_f64 b max_alt;
  w_f64 b max_home_dist

let decode r =
  let open Avis_util.Codec in
  let norm = Distance.decode r in
  let tau_full = r_f64 r in
  let tau_position = r_f64 r in
  let max_alt = r_f64 r in
  let max_home_dist = r_f64 r in
  { norm; tau_full; tau_position; max_alt; max_home_dist }

type symptom = Crash | Fly_away | Takeoff_failure | Stalled

let symptom_to_string = function
  | Crash -> "Crash"
  | Fly_away -> "Fly Away"
  | Takeoff_failure -> "Takeoff Failure"
  | Stalled -> "Stalled"

type violation_kind =
  | Safety of string
  | Fence_breach
  | Liveliness
  | Safe_mode_invariant of string

type violation = {
  kind : violation_kind;
  time : float;
  mode : string;
  symptom : symptom;
}

type verdict = Safe | Unsafe of violation

(* Ticks are the 10 Hz trace samples; windows are expressed in ticks. *)
let consecutive_needed = 5
let invariant_window = 30 (* 3 s *)
let grounded_grace = 150 (* 15 s *)

let mode_rtl = "Return To Launch"
let mode_land = "Land"
let mode_disarmed = "Disarmed"
let mode_manual = "Manual"
let mode_preflight = "Pre-Flight"

(* What the monitor does differently per mode, worked out once per label
   change rather than by string compares at every tick. *)
type mode_kind = Rtl | Land | Disarmed | Manual | Pre_flight | Other

let mode_kind m =
  if String.equal m mode_rtl then Rtl
  else if String.equal m mode_land then Land
  else if String.equal m mode_disarmed then Disarmed
  else if String.equal m mode_manual then Manual
  else if String.equal m mode_preflight then Pre_flight
  else Other

let is_safe_mode = function
  | Rtl | Land | Disarmed -> true
  | Manual | Pre_flight | Other -> false

(* Safe-mode invariants, evaluated per tick once the vehicle has been in
   the safe mode for at least [invariant_window] ticks. *)
let safe_mode_ok tr i kind ~entered_tick ~grounded_ticks =
  let alt = Trace.pz tr i in
  match kind with
  | Rtl ->
    if i - entered_tick < invariant_window then true
    else begin
      let prev = i - invariant_window in
      let progressing = home_distance tr i < home_distance tr prev -. 0.1 in
      let climbing = alt > Trace.pz tr prev +. 0.2 in
      (* Wide enough that the braking creep before the Land hand-off
         still counts as arrived. *)
      let arrived = home_distance tr i < 8.0 in
      progressing || climbing || arrived
    end
  | Land ->
    (* Extra grace: entering Land at speed takes a few seconds of braking
       before the descent shows. *)
    if i - entered_tick < 2 * invariant_window then true
    else begin
      let prev = i - invariant_window in
      let descending = alt < Trace.pz tr prev -. 0.2 in
      let freshly_grounded = alt < 0.3 && grounded_ticks <= grounded_grace in
      descending || freshly_grounded
    end
  | Disarmed -> alt < 0.5
  | Manual | Pre_flight | Other -> true

(* The Manual hover excuse: liveliness in Manual is tolerated while the
   vehicle stays put (degraded GPS-loss hold), but not while it moves. *)
let manual_hover_excuse tr i =
  if i = 0 then true
  else begin
    let prev = Int.max 0 (i - 10) in
    let dt = Float.max 0.1 (Trace.time tr i -. Trace.time tr prev) in
    let speed =
      horizontal_norm
        (Trace.px tr i -. Trace.px tr prev)
        (Trace.py tr i -. Trace.py tr prev)
      /. dt
    in
    speed < 1.5
  end

let far_away profile tr i =
  home_distance tr i > profile.max_home_dist +. 10.0
  || Trace.pz tr i > profile.max_alt +. 10.0

let classify profile tr ~violation_tick =
  let n = Trace.length tr in
  let max_alt_seen = ref 0.0 in
  for i = 0 to n - 1 do
    max_alt_seen := Float.max !max_alt_seen (Trace.pz tr i)
  done;
  if !max_alt_seen < 1.5 && profile.max_alt > 5.0 then Takeoff_failure
  else if
    far_away profile tr (Int.min violation_tick (n - 1))
    (* Still departing at the end of the run also reads as a fly-away. *)
    || far_away profile tr (n - 1)
  then Fly_away
  else Stalled

let first_violation ~metric profile tr n =
  let tau =
    match metric with
    | Distance.Full -> profile.tau_full
    | Distance.Position_only -> profile.tau_position
  in
  (* The liveliness rule fires when no profiling run is within τ: [d <= τ]
     fails for every run (a NaN distance is never within), so the scan
     may stop at the first run that passes. With τ = +∞ no state is out
     of τ, not even one whose distances are all NaN. *)
  let bounded = tau < infinity in
  let result = ref None in
  let live_streak = ref 0 in
  let safe_streak = ref 0 in
  let entered_tick = ref 0 in
  let grounded_ticks = ref 0 in
  let label = ref (Trace.mode tr 0) in
  let kind = ref (mode_kind !label) in
  let id = ref (Distance.mode_id profile.norm !label) in
  let i = ref 0 in
  while Option.is_none !result && !i < n do
    let t = !i in
    let mode = Trace.mode tr t in
    if t > 0 && not (String.equal mode !label) then begin
      entered_tick := t;
      grounded_ticks := 0;
      label := mode;
      kind := mode_kind mode;
      id := Distance.mode_id profile.norm mode
    end;
    let alt = Trace.pz tr t in
    if alt < 0.3 then incr grounded_ticks else grounded_ticks := 0;
    let safe = is_safe_mode !kind in
    (* Safe-mode invariants run whenever the vehicle is in a safe mode. *)
    if safe then begin
      if
        safe_mode_ok tr t !kind ~entered_tick:!entered_tick
          ~grounded_ticks:!grounded_ticks
      then safe_streak := 0
      else begin
        incr safe_streak;
        if !safe_streak >= consecutive_needed then
          result := Some (Safe_mode_invariant mode, Trace.time tr t, mode, t)
      end
    end
    else safe_streak := 0;
    (* Liveliness: the state must stay within tau of some profiling run,
       unless a safe mode (whose invariant is already enforced above), a
       legitimate Manual hover, or a vehicle that refuses to fly after a
       pre-arming failure (preserving safety, not violating liveliness)
       explains the divergence. The excuses cost less than the distances,
       so they go first. *)
    if Option.is_none !result then begin
      let excused =
        safe
        || (match !kind with
           | Manual -> manual_hover_excuse tr t
           | Pre_flight -> alt < 0.5
           | Rtl | Land | Disarmed | Other -> false)
        || (not bounded)
        || Distance.within ~metric profile.norm ~tau tr t ~mode_id:!id
      in
      if excused then live_streak := 0
      else begin
        incr live_streak;
        if !live_streak >= consecutive_needed then
          result := Some (Liveliness, Trace.time tr t, mode, t)
      end
    end;
    incr i
  done;
  !result

let check ?(metric = Distance.Full) profile (outcome : Sim.outcome) =
  let tr = outcome.Sim.trace in
  let n = Trace.length tr in
  if n = 0 then Safe
  else begin
    match outcome.Sim.crash with
    | Some event ->
      Unsafe
        {
          kind = Safety (Format.asprintf "%a" Avis_physics.World.pp_contact event);
          time = outcome.Sim.duration;
          mode = Trace.mode tr (n - 1);
          symptom = Crash;
        }
    | None ->
      if outcome.Sim.fence_breached then
        Unsafe
          {
            kind = Fence_breach;
            time = outcome.Sim.duration;
            mode = Trace.mode tr (n - 1);
            symptom = Fly_away;
          }
      else begin
        match first_violation ~metric profile tr n with
        | None -> Safe
        | Some (kind, time, mode, tick) ->
          Unsafe
            { kind; time; mode; symptom = classify profile tr ~violation_tick:tick }
      end
  end

let detection_time ?(metric = Distance.Full) profile outcome =
  match check ~metric profile outcome with
  | Safe -> None
  | Unsafe v -> Some v.time

let describe v =
  let kind =
    match v.kind with
    | Safety s -> "safety: " ^ s
    | Fence_breach -> "geofence breach"
    | Liveliness -> "liveliness violation"
    | Safe_mode_invariant m -> "safe-mode invariant failed in " ^ m
  in
  Printf.sprintf "%s at t=%.1fs in %s (%s)" kind v.time v.mode
    (symptom_to_string v.symptom)
