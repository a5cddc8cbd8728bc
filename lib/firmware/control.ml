open Avis_geo

type demand = {
  pos_target : Vec3.t option;
  velocity_ff : Vec3.t;
  climb_demand : float;
  yaw_target : float;
  idle : bool;
  max_speed : float option;
  level_hold : bool;
  open_loop_descent : bool;
}

let hold_demand ~yaw ~pos =
  { pos_target = Some pos; velocity_ff = Vec3.zero; climb_demand = 0.0;
    yaw_target = yaw; idle = false; max_speed = None; level_hold = false;
    open_loop_descent = false }

(* Degraded attitude estimation tolerates only gentle manoeuvres. *)
let accel_only_tilt = 0.15
let accel_only_accel_limit = Avis_physics.Airframe.gravity *. tan accel_only_tilt

(* Every controller flies [Airframe.iris]. *)
let hover = Avis_physics.Airframe.hover_throttle Avis_physics.Airframe.iris
let layout = Avis_physics.Motor.mix_layout Avis_physics.Airframe.iris
let arm = Avis_physics.Airframe.iris.Avis_physics.Airframe.arm_length_m

type t = {
  params : Params.t;
  accel_limit : float; (* gravity * tan max_tilt_rad *)
  cos_max_tilt : float;
  climb_pid : Pid.t;
  output : float array; (* reused across steps; consumers copy *)
}

let create ~params () =
  {
    params;
    accel_limit =
      Avis_physics.Airframe.gravity *. tan params.Params.max_tilt_rad;
    cos_max_tilt = cos params.Params.max_tilt_rad;
    climb_pid =
      Pid.create ~kp:params.Params.climb_vel_p ~ki:params.Params.climb_vel_i
        ~i_limit:2.0 ~out_limit:0.6 ();
    output = Array.make (Array.length layout) 0.0;
  }

let reset t = Pid.reset t.climb_pid

let step t est demand ~dt =
  if demand.idle then begin
    Array.fill t.output 0 (Array.length t.output) 0.0;
    t.output
  end
  else begin
    let p = t.params in
    let pos = Estimator.position est in
    let vel = Estimator.velocity est in
    let yaw = Estimator.yaw est in
    (* Position loop: target -> velocity demand (horizontal). *)
    let speed_limit =
      match demand.max_speed with
      | Some s -> Float.min s p.Params.cruise_speed
      | None -> p.Params.cruise_speed
    in
    let vel_demand =
      let ff = Vec3.horizontal demand.velocity_ff in
      match demand.pos_target with
      | Some target ->
        let err = Vec3.horizontal (Vec3.sub target pos) in
        Vec3.clamp_norm speed_limit (Vec3.add ff (Vec3.scale p.Params.pos_p err))
      | None -> ff
    in
    let accel_only =
      match Estimator.att_mode est with
      | Estimator.Att_accel_only -> true
      | Estimator.Att_normal | Estimator.Att_frozen -> false
    in
    let tilt_limit = if accel_only then accel_only_tilt else p.Params.max_tilt_rad in
    (* Velocity loop: velocity error -> world-frame acceleration demand.
       In level-hold (no position source) the dead-reckoned velocity is
       still good enough to brake with for a few seconds, then the
       feedback fades to a pure attitude hold. *)
    let accel_demand =
      let weight =
        if demand.level_hold then
          Avis_util.Stats.clamp ~lo:0.0 ~hi:1.0
            (1.0 -. (Estimator.dead_reckon_age est /. 8.0))
        else 1.0
      in
      let target_vel = if demand.level_hold then Vec3.zero else vel_demand in
      let err = Vec3.sub target_vel (Vec3.horizontal vel) in
      Vec3.clamp_norm
        (if accel_only then accel_only_accel_limit else t.accel_limit)
        (Vec3.scale (weight *. p.Params.vel_p) err)
    in
    (* Acceleration demand -> lean angles in the body-yaw frame. *)
    let g = Avis_physics.Airframe.gravity in
    let cy = cos yaw and sy = sin yaw in
    let ax_b = (cy *. accel_demand.Vec3.x) +. (sy *. accel_demand.Vec3.y) in
    let ay_b = (-.sy *. accel_demand.Vec3.x) +. (cy *. accel_demand.Vec3.y) in
    (* Two full applications, not a partial one: that would build a
       closure every step. *)
    let pitch_demand =
      Avis_util.Stats.clamp ~lo:(-.tilt_limit) ~hi:tilt_limit (atan (ax_b /. g))
    in
    let roll_demand =
      Avis_util.Stats.clamp ~lo:(-.tilt_limit) ~hi:tilt_limit (atan (-.ay_b /. g))
    in
    (* Vertical loop: climb-rate error -> thrust around hover. *)
    let climb_demand =
      Avis_util.Stats.clamp ~lo:(-.p.Params.max_climb_rate)
        ~hi:p.Params.max_climb_rate demand.climb_demand
    in
    let climb_err = climb_demand -. Estimator.climb_rate est in
    let thrust =
      (* Tilt compensation: keep the vertical thrust component constant as
         the vehicle leans, capped at the commanded-tilt limit so a tumbled
         vehicle does not firewall the throttle. *)
      let tilt_comp =
        let c = cos (Quat.tilt (Estimator.attitude est)) in
        1.0 /. Float.max t.cos_max_tilt c
      in
      if demand.open_loop_descent then
        (* Fixed collective just under hover: a steady drag-limited sink
           with no feedback path to go unstable through. *)
        Avis_util.Stats.clamp ~lo:0.05 ~hi:1.0 (hover *. 0.965 *. tilt_comp)
      else
        let correction = Pid.update t.climb_pid ~error:climb_err ~dt in
        Avis_util.Stats.clamp ~lo:0.05 ~hi:1.0
          ((hover +. correction) *. tilt_comp)
    in
    (* Attitude loop on the full quaternion error: decomposing into
       independent Euler-angle errors goes unstable when yawing while
       tilted, so the rate demand comes from the body-frame rotation vector
       between current and desired attitude. *)
    let attitude = Estimator.attitude est in
    let rate = Estimator.angular_rate est in
    (* The lean angles were computed in the *current* yaw frame, so the
       desired attitude must keep the current yaw; the heading change is a
       separate, slower yaw-rate demand. Mixing them (building the desired
       quaternion with the target yaw) mis-directs the lean by the yaw
       error and diverges during turns. *)
    let desired =
      Quat.of_euler ~roll:roll_demand ~pitch:pitch_demand ~yaw
    in
    let yaw_err =
      let e = demand.yaw_target -. yaw in
      let twopi = 2.0 *. Float.pi in
      let e = Float.rem e twopi in
      if e > Float.pi then e -. twopi
      else if e < -.Float.pi then e +. twopi
      else e
    in
    let rate_demand =
      let q_err = Quat.mul (Quat.conjugate attitude) desired in
      (* Take the short way round. *)
      let q_err =
        if q_err.Quat.w < 0.0 then
          {
            Quat.w = -.q_err.Quat.w;
            x = -.q_err.Quat.x;
            y = -.q_err.Quat.y;
            z = -.q_err.Quat.z;
          }
        else q_err
      in
      let w = Float.min 1.0 (Float.max (-1.0) q_err.Quat.w) in
      let angle = 2.0 *. acos w in
      let s = sqrt (Float.max 1e-12 (1.0 -. (w *. w))) in
      let err =
        if s < 1e-6 then Vec3.zero
        else
          Vec3.scale (angle /. s)
            (Vec3.make q_err.Quat.x q_err.Quat.y q_err.Quat.z)
      in
      Vec3.make
        (Avis_util.Stats.clamp ~lo:(-3.0) ~hi:3.0 (p.Params.att_p *. err.Vec3.x))
        (Avis_util.Stats.clamp ~lo:(-3.0) ~hi:3.0 (p.Params.att_p *. err.Vec3.y))
        (Avis_util.Stats.clamp ~lo:(-0.7) ~hi:0.7 (p.Params.yaw_p *. yaw_err))
    in
    let torque_cmd =
      Vec3.make
        (p.Params.rate_p *. (rate_demand.Vec3.x -. rate.Vec3.x))
        (p.Params.rate_p *. (rate_demand.Vec3.y -. rate.Vec3.y))
        (p.Params.yaw_rate_p *. (rate_demand.Vec3.z -. rate.Vec3.z))
    in
    (* Mix thrust and torque demands onto the motors, into the reused
       output buffer (the simulator's motor model copies it). *)
    for i = 0 to Array.length layout - 1 do
      let mpos, spin = layout.(i) in
      let open Vec3 in
      let roll_term = torque_cmd.x *. (mpos.y /. arm) in
      let pitch_term = torque_cmd.y *. (-.mpos.x /. arm) in
      let yaw_term = torque_cmd.z *. spin in
      t.output.(i) <-
        Float.max 0.0
          (Float.min 1.0 (thrust +. roll_term +. pitch_term +. yaw_term))
    done;
    t.output
  end

(* Destructured exhaustively, as [Estimator.encode] is: only the mutable
   state travels, and [create] rebuilds the rest. *)
let encode b (t : t) =
  let[@warning "+9"] {
    params = _ (* the personality's fixed set, passed back to [decode] *);
    accel_limit = _;
    cos_max_tilt = _ (* derived from the params by [create] *);
    climb_pid;
    output;
  } =
    t
  in
  let open Avis_util.Codec in
  w_version b 3;
  Pid.encode b climb_pid;
  w_float_array b output

let decode ~params r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:3 in
  let t = create ~params () in
  Pid.decode_into t.climb_pid r;
  let output = r_float_array r in
  if Array.length output <> Array.length t.output then
    corrupt "control output length %d does not match the %d motors"
      (Array.length output) (Array.length t.output);
  Array.blit output 0 t.output 0 (Array.length output);
  t
