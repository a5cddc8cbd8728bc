open Avis_geo

type contact_event =
  | Touchdown of { speed : float }
  | Ground_impact of { speed : float }
  | Obstacle_strike of { label : string; speed : float }
  | Tipover

(* Preallocated working set for the step kernel: every intermediate vector
   of one step lives here, so steady-state stepping allocates nothing.
   Scratch carries no state across steps and is never encoded. *)
type scratch = {
  s_thrust : Vec3.Mut.vec;
  s_wind : Vec3.Mut.vec;
  s_airspeed : Vec3.Mut.vec;
  s_airspeed_body : Vec3.Mut.vec;
  s_force : Vec3.Mut.vec;
  s_torque : Vec3.Mut.vec;
  s_ground : float array;
      (* single cell: ground level sampled before integration, consumed by
         [post_step] — a cell rather than an argument so no float is boxed
         crossing that call. *)
}

let make_scratch () =
  {
    s_thrust = Vec3.Mut.create ();
    s_wind = Vec3.Mut.create ();
    s_airspeed = Vec3.Mut.create ();
    s_airspeed_body = Vec3.Mut.create ();
    s_force = Vec3.Mut.create ();
    s_torque = Vec3.Mut.create ();
    s_ground = [| 0.0 |];
  }

(* The simulated clock sits in its own all-float record so advancing it
   stores an unboxed float (a [mutable float] in the mixed record below
   would box on every step). *)
type clock = { mutable elapsed : float }

(* Every world flies [Airframe.iris]. *)
type t = {
  environment : Environment.t;
  rng : Avis_util.Rng.t;
  body : Rigid_body.t;
  motors : Motor.t;
  clock : clock;
  mutable crashed : bool;
  mutable crash_event : contact_event option;
  mutable fence_breached : bool;
  mutable resting : bool;
  scratch : scratch;
}

(* Impact limits: a multicopter landing gear tolerates roughly 2.5 m/s of
   sink and modest lateral scrub; beyond that we call it a crash. *)
let crash_sink_speed = 2.5
let crash_lateral_speed = 2.0
let tipover_tilt_rad = Float.pi /. 4.0
let ground_friction = 8.0

let create ?environment ?rng ?(position = Vec3.zero) () =
  let environment =
    match environment with Some e -> e | None -> Environment.benign ()
  in
  let rng = match rng with Some r -> r | None -> Avis_util.Rng.create 0 in
  {
    environment;
    rng;
    body = Rigid_body.create ~position ();
    motors = Motor.create Airframe.iris;
    clock = { elapsed = 0.0 };
    crashed = false;
    crash_event = None;
    fence_breached = false;
    resting = true;
    scratch = make_scratch ();
  }

let encode_contact b e =
  let open Avis_util.Codec in
  match e with
  | Touchdown { speed } ->
    w_u8 b 0;
    w_f64 b speed
  | Ground_impact { speed } ->
    w_u8 b 1;
    w_f64 b speed
  | Obstacle_strike { label; speed } ->
    w_u8 b 2;
    w_string b label;
    w_f64 b speed
  | Tipover -> w_u8 b 3

let decode_contact r =
  let open Avis_util.Codec in
  match r_u8 r with
  | 0 -> Touchdown { speed = r_f64 r }
  | 1 -> Ground_impact { speed = r_f64 r }
  | 2 ->
    let label = r_string r in
    let speed = r_f64 r in
    Obstacle_strike { label; speed }
  | 3 -> Tipover
  | t -> corrupt "bad contact-event tag %d" t

let flag b = if b then 1.0 else 0.0

(* The numeric state travels as one float blob: time, three latched flags,
   the 16 body floats and the motor bank. Of the environment only the gust
   state is written: the caller passes back an environment built from the
   run's config. Scratch carries nothing across steps and is rebuilt
   fresh. *)
let encode b t =
  let open Avis_util.Codec in
  let blob =
    Array.make (4 + Rigid_body.float_count + Motor.float_count t.motors) 0.0
  in
  blob.(0) <- t.clock.elapsed;
  blob.(1) <- flag t.crashed;
  blob.(2) <- flag t.fence_breached;
  blob.(3) <- flag t.resting;
  Rigid_body.blit_to_floats t.body blob ~pos:4;
  Motor.blit_to_floats t.motors blob ~pos:(4 + Rigid_body.float_count);
  w_version b 3;
  Environment.encode_gust b t.environment;
  w_i64 b (Avis_util.Rng.to_bits t.rng);
  w_option b encode_contact t.crash_event;
  w_float_array b blob

let decode ~environment r =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:3 in
  Environment.decode_gust environment r;
  let rng = Avis_util.Rng.of_bits (r_i64 r) in
  let crash_event = r_option r decode_contact in
  let blob = r_float_array r in
  let motors = Motor.create Airframe.iris in
  let expected = 4 + Rigid_body.float_count + Motor.float_count motors in
  if Array.length blob <> expected then
    corrupt "world blob has %d floats (want %d)" (Array.length blob) expected;
  Motor.restore_floats motors blob ~pos:(4 + Rigid_body.float_count);
  {
    environment;
    rng;
    body = Rigid_body.of_floats blob ~pos:4;
    motors;
    clock = { elapsed = blob.(0) };
    crashed = blob.(1) <> 0.0;
    crash_event;
    fence_breached = blob.(2) <> 0.0;
    resting = blob.(3) <> 0.0;
    scratch = make_scratch ();
  }

let environment t = t.environment
let body t = t.body
let motors t = t.motors
let[@inline] time t = t.clock.elapsed
let crashed t = t.crashed
let crash_event t = t.crash_event
let fence_breached t = t.fence_breached

let on_ground t =
  let b = t.body in
  let px = b.Rigid_body.position.Vec3.Mut.x
  and py = b.Rigid_body.position.Vec3.Mut.y in
  let ground = Environment.ground_altitude_xyz t.environment ~x:px ~y:py in
  b.Rigid_body.position.Vec3.Mut.z <= ground +. 0.02

let latch_crash t event =
  t.crashed <- true;
  t.crash_event <- Some event;
  Vec3.Mut.set t.body.Rigid_body.velocity ~x:0.0 ~y:0.0 ~z:0.0;
  Vec3.Mut.set t.body.Rigid_body.angular_velocity ~x:0.0 ~y:0.0 ~z:0.0

let settle_on_ground t ground =
  let b = t.body in
  b.Rigid_body.position.Vec3.Mut.z <- ground;
  let v = b.Rigid_body.velocity in
  v.Vec3.Mut.z <- Float.max 0.0 v.Vec3.Mut.z

(* A body at rest decays its rates geometrically (ground friction, ground
   damping, and the acceleration computed from them) but never reaches
   zero: once the per-step decrement is below half the smallest subnormal,
   [x + dt*a] rounds back to [x] and the component sticks a few units of
   2^-1074 above zero, where every x86 operation on it takes a microcode
   assist. Flushing a subnormal to a zero of the same sign ([0.0 *. x])
   leaves exact zeros as they are and changes nothing a result reads: a
   subnormal is below half an ulp of any normal value it is added to. *)
let flush_subnormals (v : Vec3.Mut.vec) =
  let open Vec3.Mut in
  if Float.abs v.x < Float.min_float then v.x <- 0.0 *. v.x;
  if Float.abs v.y < Float.min_float then v.y <- 0.0 *. v.y;
  if Float.abs v.z < Float.min_float then v.z <- 0.0 *. v.z

(* Contact/fence/crash resolution on the post-integration state — shared by
   the optimised and reference steps (both feed it the same ground level,
   sampled before integration, as the original code did), so both flush
   the same subnormals. Steady flight and steady rest both take
   allocation-free paths; events allocate, but an event either latches a
   crash or fires once per touchdown. *)
let post_step t =
  let ground = t.scratch.s_ground.(0) in
  let b = t.body in
  flush_subnormals b.Rigid_body.velocity;
  flush_subnormals b.Rigid_body.angular_velocity;
  flush_subnormals b.Rigid_body.acceleration;
  let open Vec3.Mut in
  let px = b.Rigid_body.position.x
  and py = b.Rigid_body.position.y
  and pz = b.Rigid_body.position.z in
  if
    Environment.has_fence t.environment
    && Environment.breaches_fence_xyz t.environment ~x:px ~y:py ~z:pz
  then t.fence_breached <- true;
  let hit =
    if Environment.has_obstacles t.environment then
      Environment.obstacle_at t.environment ~x:px ~y:py ~z:pz
    else None
  in
  match hit with
  | Some o when Rigid_body.speed b > 0.5 ->
    let e =
      Obstacle_strike { label = o.Environment.label; speed = Rigid_body.speed b }
    in
    latch_crash t e;
    Some e
  | Some _ | None ->
    let z = pz in
    if z < ground then begin
      let sink = -.b.Rigid_body.velocity.z in
      let lateral = Rigid_body.horizontal_speed b in
      if sink > crash_sink_speed || lateral > crash_lateral_speed then begin
        settle_on_ground t ground;
        let e = Ground_impact { speed = Float.max sink lateral } in
        latch_crash t e;
        Some e
      end
      else if Quat.Mut.tilt b.Rigid_body.attitude > tipover_tilt_rad then begin
        settle_on_ground t ground;
        latch_crash t Tipover;
        Some Tipover
      end
      else begin
        settle_on_ground t ground;
        let was_resting = t.resting in
        t.resting <- true;
        if was_resting then None else Some (Touchdown { speed = sink })
      end
    end
    else if
      (* Resting contact: tipping over on the ground (e.g. motors kept
         running after a missed touchdown) is also a crash. *)
      z <= ground +. 0.02
      && Quat.Mut.tilt b.Rigid_body.attitude > tipover_tilt_rad
    then begin
      latch_crash t Tipover;
      Some Tipover
    end
    else begin
      if z > ground +. 0.05 then t.resting <- false;
      None
    end

let step t ~motor_commands ~dt =
  t.clock.elapsed <- t.clock.elapsed +. dt;
  if t.crashed then None
  else begin
    Motor.command t.motors motor_commands;
    Motor.step t.motors dt;
    let b = t.body in
    let frame = Airframe.iris in
    let s = t.scratch in
    let open Vec3.Mut in
    (* thrust_world = attitude ⊗ (0, 0, total thrust). Direct field stores
       and a cell read: under -opaque (dev builds) cross-module [@inline]
       does not apply, so no float may cross a module boundary here. *)
    s.s_thrust.x <- 0.0;
    s.s_thrust.y <- 0.0;
    s.s_thrust.z <- (Motor.total_thrust_cell t.motors).(0);
    Quat.Mut.rotate s.s_thrust b.Rigid_body.attitude s.s_thrust;
    let gravity_z = -.frame.Airframe.mass_kg *. Airframe.gravity in
    Environment.wind_into t.environment t.rng dt s.s_wind;
    Vec3.Mut.sub s.s_airspeed b.Rigid_body.velocity s.s_wind;
    let neg_drag = -.frame.Airframe.linear_drag in
    let drag_x = neg_drag *. s.s_airspeed.x in
    let drag_y = neg_drag *. s.s_airspeed.y in
    let drag_z = neg_drag *. s.s_airspeed.z in
    Environment.ground_altitude_into t.environment ~pos:b.Rigid_body.position
      s.s_ground;
    let ground = s.s_ground.(0) in
    let contact = b.Rigid_body.position.z <= ground +. 1e-9 in
    (* Ground reaction: cancel any net downward force while in contact. *)
    let normal_z =
      if contact then begin
        let net_z = s.s_thrust.z +. gravity_z +. drag_z in
        if net_z < 0.0 then -.net_z else 0.0
      end
      else 0.0
    in
    let fric_x, fric_y, fric_z =
      if contact then begin
        let k = -.ground_friction *. frame.Airframe.mass_kg in
        (* friction = k * horizontal velocity; the z term is k * 0.0 as in
           the vector original (the sign of that zero matters for bit
           identity). *)
        ( k *. b.Rigid_body.velocity.x,
          k *. b.Rigid_body.velocity.y,
          k *. 0.0 )
      end
      else (0.0, 0.0, 0.0)
    in
    (* force = fold add zero [thrust; gravity; drag; normal; friction],
       with gravity and normal zero outside z. *)
    s.s_force.x <- (((0.0 +. s.s_thrust.x) +. 0.0) +. drag_x) +. 0.0 +. fric_x;
    s.s_force.y <- (((0.0 +. s.s_thrust.y) +. 0.0) +. drag_y) +. 0.0 +. fric_y;
    s.s_force.z <-
      (((0.0 +. s.s_thrust.z) +. gravity_z) +. drag_z) +. normal_z +. fric_z;
    Quat.Mut.rotate_inv s.s_airspeed_body b.Rigid_body.attitude s.s_airspeed;
    Motor.body_torque_into t.motors ~rate:b.Rigid_body.angular_velocity
      ~airspeed_body:s.s_airspeed_body ~dst:s.s_torque;
    let neg_adrag = -.frame.Airframe.angular_drag in
    let rate = b.Rigid_body.angular_velocity in
    s.s_torque.x <- s.s_torque.x +. (neg_adrag *. rate.x);
    s.s_torque.y <- s.s_torque.y +. (neg_adrag *. rate.y);
    s.s_torque.z <- s.s_torque.z +. (neg_adrag *. rate.z);
    if contact && normal_z <> 0.0 then begin
      (* Resting on the gear: the ground damps rotation strongly, but a
         sustained differential-thrust torque can still tip the vehicle. *)
      s.s_torque.x <- s.s_torque.x +. (-1.0 *. rate.x);
      s.s_torque.y <- s.s_torque.y +. (-1.0 *. rate.y);
      s.s_torque.z <- s.s_torque.z +. (-1.0 *. rate.z)
    end;
    Rigid_body.step b ~inertia:frame.Airframe.inertia ~mass:frame.Airframe.mass_kg
      ~force:s.s_force ~torque:s.s_torque ~dt;
    post_step t
  end

(* The pre-optimisation step, preserved verbatim in its allocating
   pure-vector form: the oracle the identity tests compare [step] against
   bit for bit. *)
let step_reference t ~motor_commands ~dt =
  t.clock.elapsed <- t.clock.elapsed +. dt;
  if t.crashed then None
  else begin
    Motor.command t.motors motor_commands;
    Motor.step t.motors dt;
    let b = t.body in
    let frame = Airframe.iris in
    let position0 = Rigid_body.position_v b in
    let velocity0 = Rigid_body.velocity_v b in
    let attitude0 = Rigid_body.attitude_q b in
    let omega0 = Rigid_body.angular_velocity_v b in
    let thrust_body =
      Vec3.make 0.0 0.0 (Array.fold_left ( +. ) 0.0 (Motor.thrusts t.motors))
    in
    let thrust_world = Quat.rotate attitude0 thrust_body in
    let gravity =
      Vec3.make 0.0 0.0 (-.frame.Airframe.mass_kg *. Airframe.gravity)
    in
    let wind = Environment.wind_at t.environment t.rng dt in
    let airspeed = Vec3.sub velocity0 wind in
    let drag = Vec3.scale (-.frame.Airframe.linear_drag) airspeed in
    let ground = Environment.ground_altitude t.environment position0 in
    t.scratch.s_ground.(0) <- ground;
    let contact = position0.Vec3.z <= ground +. 1e-9 in
    let normal =
      if contact then
        let net_z = thrust_world.Vec3.z +. gravity.Vec3.z +. drag.Vec3.z in
        if net_z < 0.0 then Vec3.make 0.0 0.0 (-.net_z) else Vec3.zero
      else Vec3.zero
    in
    let friction =
      if contact then
        Vec3.scale
          (-.ground_friction *. frame.Airframe.mass_kg)
          (Vec3.horizontal velocity0)
      else Vec3.zero
    in
    let force =
      List.fold_left Vec3.add Vec3.zero
        [ thrust_world; gravity; drag; normal; friction ]
    in
    let torque =
      let motor_torque =
        let airspeed_body = Quat.rotate_inv attitude0 airspeed in
        Vec3.add
          (Motor.body_torque t.motors ~rate:omega0 ~airspeed_body)
          (Vec3.scale (-.frame.Airframe.angular_drag) omega0)
      in
      if contact && normal <> Vec3.zero then
        Vec3.add motor_torque (Vec3.scale (-1.0) omega0)
      else motor_torque
    in
    (* The pure rigid-body step (the pre-optimisation [Rigid_body.step]). *)
    let mass = frame.Airframe.mass_kg in
    let inertia = frame.Airframe.inertia in
    let accel = Vec3.scale (1.0 /. mass) force in
    let velocity = Vec3.add velocity0 (Vec3.scale dt accel) in
    let position = Vec3.add position0 (Vec3.scale dt velocity) in
    let open Vec3 in
    let coriolis =
      make
        ((inertia.z -. inertia.y) *. omega0.y *. omega0.z)
        ((inertia.x -. inertia.z) *. omega0.z *. omega0.x)
        ((inertia.y -. inertia.x) *. omega0.x *. omega0.y)
    in
    let angular_accel =
      make
        ((torque.x -. coriolis.x) /. inertia.x)
        ((torque.y -. coriolis.y) /. inertia.y)
        ((torque.z -. coriolis.z) /. inertia.z)
    in
    let omega = add omega0 (scale dt angular_accel) in
    let attitude = Quat.integrate attitude0 omega dt in
    Rigid_body.set_acceleration b accel;
    Rigid_body.set_velocity b velocity;
    Rigid_body.set_position b position;
    Rigid_body.set_angular_velocity b omega;
    Rigid_body.set_attitude b attitude;
    post_step t
  end

let pp_contact ppf = function
  | Touchdown { speed } -> Format.fprintf ppf "touchdown (%.2f m/s)" speed
  | Ground_impact { speed } -> Format.fprintf ppf "ground impact (%.2f m/s)" speed
  | Obstacle_strike { label; speed } ->
    Format.fprintf ppf "obstacle strike on %s (%.2f m/s)" label speed
  | Tipover -> Format.fprintf ppf "tipover"
