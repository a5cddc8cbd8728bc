(* Tests for avis_physics: airframe constants, motor dynamics, rigid-body
   integration, the environment and the world's contact model. *)

open Avis_geo
open Avis_physics

let frame = Airframe.iris
let hover = Airframe.hover_throttle frame

let step_world world commands seconds =
  let dt = 0.004 in
  let steps = int_of_float (seconds /. dt) in
  let last = ref None in
  for _ = 1 to steps do
    match World.step world ~motor_commands:commands ~dt with
    | Some e -> last := Some e
    | None -> ()
  done;
  !last

let test_hover_throttle () =
  Alcotest.(check bool) "between 0.3 and 0.6" true (hover > 0.3 && hover < 0.6);
  let total = Airframe.max_total_thrust_n frame *. hover in
  Alcotest.(check (float 1e-6)) "balances weight" (frame.Airframe.mass_kg *. Airframe.gravity) total

let test_motor_lag () =
  let motors = Motor.create frame in
  Motor.command motors (Array.make 4 1.0);
  Motor.step motors 0.004;
  let early = Motor.total_thrust motors in
  Alcotest.(check bool) "thrust builds gradually" true
    (early > 0.0 && early < Airframe.max_total_thrust_n frame /. 2.0);
  for _ = 1 to 200 do
    Motor.step motors 0.004
  done;
  Alcotest.(check bool) "converges to max" true
    (Motor.total_thrust motors > 0.99 *. Airframe.max_total_thrust_n frame)

let test_motor_command_clamped () =
  let motors = Motor.create frame in
  Motor.command motors [| 2.0; -1.0; 0.5; 0.5 |];
  for _ = 1 to 500 do
    Motor.step motors 0.004
  done;
  let th = Motor.thrusts motors in
  Alcotest.(check bool) "clamped to [0,max]" true
    (th.(0) <= frame.Airframe.max_thrust_per_motor_n +. 1e-6 && th.(1) <= 1e-6)

let test_motor_wrong_count () =
  let motors = Motor.create frame in
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Motor.command: wrong motor count") (fun () ->
      Motor.command motors [| 1.0 |])

let test_roll_torque_sign () =
  (* More thrust on the +y (left) motors must produce +x (roll) torque. *)
  let motors = Motor.create frame in
  let layout = Motor.mix_layout frame in
  let commands =
    Array.map (fun (pos, _) -> if pos.Vec3.y > 0.0 then 0.8 else 0.2) layout
  in
  Motor.command motors commands;
  for _ = 1 to 100 do
    Motor.step motors 0.004
  done;
  let torque =
    Motor.body_torque motors ~rate:Vec3.zero ~airspeed_body:Vec3.zero
  in
  Alcotest.(check bool) "+roll" true (torque.Vec3.x > 0.01);
  Alcotest.(check bool) "no pitch" true (Float.abs torque.Vec3.y < 1e-6)

let test_flapping_damps_rates () =
  let motors = Motor.create frame in
  Motor.command motors (Array.make 4 hover);
  for _ = 1 to 200 do
    Motor.step motors 0.004
  done;
  let torque =
    Motor.body_torque motors ~rate:(Vec3.make 1.0 0.0 0.0)
      ~airspeed_body:Vec3.zero
  in
  Alcotest.(check bool) "opposes roll rate" true (torque.Vec3.x < -0.01)

let test_free_fall () =
  let body = Rigid_body.create ~position:(Vec3.make 0.0 0.0 100.0) () in
  let dt = 0.004 in
  let force =
    Vec3.Mut.of_t (Vec3.make 0.0 0.0 (-.frame.Airframe.mass_kg *. Airframe.gravity))
  in
  let torque = Vec3.Mut.create () in
  for _ = 1 to 250 do
    Rigid_body.step body ~inertia:frame.Airframe.inertia
      ~mass:frame.Airframe.mass_kg ~force ~torque ~dt
  done;
  (* After 1 s of free fall: v = -g, z ≈ 100 - g/2. *)
  Alcotest.(check bool) "velocity" true
    (Float.abs (body.Rigid_body.velocity.Vec3.Mut.z +. Airframe.gravity) < 0.1);
  Alcotest.(check bool) "position" true
    (Float.abs
       (body.Rigid_body.position.Vec3.Mut.z -. (100.0 -. (Airframe.gravity /. 2.0)))
    < 0.5)

let test_specific_force_at_rest () =
  let body = Rigid_body.create () in
  (* At rest (zero net acceleration) the accelerometer reads +g along z. *)
  let f = Rigid_body.specific_force_body body in
  Alcotest.(check bool) "reads +g" true (Float.abs (f.Vec3.z -. Airframe.gravity) < 1e-6)

let test_world_hover_stays () =
  let world = World.create ~position:(Vec3.make 0.0 0.0 10.0) () in
  ignore (step_world world (Array.make 4 hover) 3.0);
  let b = World.body world in
  Alcotest.(check bool) "altitude held within 2 m" true
    (Float.abs (b.Rigid_body.position.Vec3.Mut.z -. 10.0) < 2.0);
  Alcotest.(check bool) "no crash" true (not (World.crashed world))

let test_world_hard_impact () =
  let world = World.create ~position:(Vec3.make 0.0 0.0 15.0) () in
  let event = step_world world (Array.make 4 0.0) 5.0 in
  (match event with
  | Some (World.Ground_impact { speed }) ->
    Alcotest.(check bool) "fast impact" true (speed > 10.0)
  | _ -> Alcotest.fail "expected a ground impact");
  Alcotest.(check bool) "latched" true (World.crashed world)

let test_world_gentle_touchdown () =
  let world = World.create ~position:(Vec3.make 0.0 0.0 0.3) () in
  (* Slightly under hover: settles gently. *)
  ignore (step_world world (Array.make 4 (hover *. 0.9)) 3.0);
  Alcotest.(check bool) "no crash" true (not (World.crashed world));
  Alcotest.(check bool) "on ground" true (World.on_ground world)

let test_world_frozen_after_crash () =
  let world = World.create ~position:(Vec3.make 0.0 0.0 15.0) () in
  ignore (step_world world (Array.make 4 0.0) 5.0);
  let pos = Rigid_body.position_v (World.body world) in
  ignore (step_world world (Array.make 4 1.0) 1.0);
  Alcotest.(check bool) "position frozen" true
    (Vec3.equal_eps pos (Rigid_body.position_v (World.body world)))

let test_environment_obstacle () =
  let env =
    Environment.create
      ~obstacles:
        [ { Environment.centre = Vec3.make 5.0 0.0 5.0;
            half_extents = Vec3.make 1.0 1.0 5.0; label = "tree" } ]
      ()
  in
  Alcotest.(check bool) "inside detected" true
    (Environment.inside_obstacle env (Vec3.make 5.5 0.5 3.0) <> None);
  Alcotest.(check bool) "outside clear" true
    (Environment.inside_obstacle env (Vec3.make 8.0 0.0 3.0) = None)

let test_environment_fence () =
  let env =
    Environment.create
      ~fence:(Some { Environment.centre_xy = Vec3.zero; radius_m = 30.0; max_alt_m = 50.0 })
      ()
  in
  Alcotest.(check bool) "inside ok" true
    (not (Environment.breaches_fence env (Vec3.make 10.0 10.0 20.0)));
  Alcotest.(check bool) "radius breach" true
    (Environment.breaches_fence env (Vec3.make 40.0 0.0 20.0));
  Alcotest.(check bool) "altitude breach" true
    (Environment.breaches_fence env (Vec3.make 0.0 0.0 60.0))

let test_wind_calm_is_zero () =
  let env = Environment.benign () in
  let rng = Avis_util.Rng.create 0 in
  Alcotest.(check bool) "calm" true
    (Vec3.equal_eps (Environment.wind_at env rng 0.004) Vec3.zero)

let test_wind_gusts_bounded () =
  let env =
    Environment.create
      ~wind:(Some { Environment.steady = Vec3.make 3.0 0.0 0.0;
                    gust_stddev = 1.0; gust_correlation_s = 1.0 })
      ()
  in
  let rng = Avis_util.Rng.create 5 in
  let max_seen = ref 0.0 in
  for _ = 1 to 5000 do
    let w = Environment.wind_at env rng 0.004 in
    max_seen := Float.max !max_seen (Vec3.norm w)
  done;
  Alcotest.(check bool) "bounded" true (!max_seen < 12.0);
  Alcotest.(check bool) "nonzero" true (!max_seen > 2.0)

let test_fence_breach_latched () =
  let env =
    Environment.create
      ~fence:(Some { Environment.centre_xy = Vec3.zero; radius_m = 1.0; max_alt_m = 50.0 })
      ()
  in
  let world = World.create ~environment:env ~position:(Vec3.make 5.0 0.0 1.0) () in
  ignore (step_world world (Array.make 4 hover) 0.1);
  Alcotest.(check bool) "breached" true (World.fence_breached world)

(* The optimised step and the allocating reference step must be
   interchangeable bit for bit, over a profile that exercises ground
   contact, climb, asymmetric thrust and descent, in calm and windy air,
   and over a grounded profile whose resting rates decay into the
   subnormal range: both steppers must flush them alike. *)

let fingerprint w =
  let b = World.body w in
  let p = Rigid_body.position_v b
  and v = Rigid_body.velocity_v b
  and q = Rigid_body.attitude_q b
  and o = Rigid_body.angular_velocity_v b in
  List.map Int64.bits_of_float
    [ p.Vec3.x; p.y; p.z; v.x; v.y; v.z; q.Quat.w; q.Quat.x; q.Quat.y;
      q.Quat.z; o.Vec3.x; o.y; o.z; World.time w ]

let flight_profile i =
  if i < 200 then Array.make 4 (hover *. 1.2)
  else if i < 1200 then [| hover *. 1.02; hover *. 0.98; hover; hover |]
  else Array.make 4 (hover *. 0.9)

(* A short asymmetric climb, a touchdown at about 1 m/s (under the
   2.5 m/s crash sink speed: a crash would freeze the world), then 25,500
   steps with the motors off, long enough for the resting rates to reach
   the subnormal range. *)
let grounded_profile i =
  if i < 150 then [| hover *. 1.21; hover *. 1.19; hover *. 1.2; hover *. 1.2 |]
  else if i < 1500 then Array.make 4 (hover *. 0.9)
  else Array.make 4 0.0

let flights =
  [ ("calm", false, flight_profile, 3000);
    ("windy", true, flight_profile, 3000);
    ("grounded", false, grounded_profile, 27_000) ]

let fly stepf (_, windy, profile, steps) =
  let environment =
    if windy then
      Environment.create
        ~wind:
          (Some
             { Environment.steady = Vec3.make 3.0 1.0 0.0;
               gust_stddev = 1.0; gust_correlation_s = 1.0 })
        ()
    else Environment.benign ()
  in
  let w = World.create ~environment ~rng:(Avis_util.Rng.create 7) () in
  for i = 0 to steps - 1 do
    ignore (stepf w ~motor_commands:(profile i) ~dt:0.004)
  done;
  fingerprint w

let test_step_matches_reference () =
  List.iter
    (fun ((name, _, _, _) as flight) ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical %s flight" name)
        true
        (fly World.step flight = fly World.step_reference flight))
    flights

let is_subnormal x = x <> 0.0 && Float.abs x < Float.min_float

(* A vehicle resting with its motors off must settle to exact zeros, not
   stick at subnormals a few units of 2^-1074 above them. *)
let test_resting_world_reaches_zero () =
  let w = World.create () in
  let floats = Array.make (Rigid_body.float_count + 8) 0.0 in
  let motor_floats () =
    Motor.blit_to_floats (World.motors w) floats ~pos:Rigid_body.float_count
  in
  for _ = 1 to 50 do
    ignore (World.step w ~motor_commands:(Array.make 4 (hover *. 0.5)) ~dt:0.004)
  done;
  motor_floats ();
  Alcotest.(check bool) "motors spinning" true
    (floats.(Rigid_body.float_count + 4) > 0.0);
  Alcotest.(check bool) "still on the ground" true (World.on_ground w);
  let b = World.body w in
  Rigid_body.set_velocity b (Vec3.make 0.3 0.2 0.0);
  Rigid_body.set_angular_velocity b (Vec3.make 0.1 (-0.1) 0.05);
  let off = Array.make 4 0.0 in
  for i = 1 to 30_000 do
    ignore (World.step w ~motor_commands:off ~dt:0.004);
    Rigid_body.blit_to_floats b floats ~pos:0;
    motor_floats ();
    Array.iteri
      (fun j x ->
        if is_subnormal x then
          Alcotest.failf "step %d: float %d is subnormal (%h)" i j x)
      floats
  done;
  Alcotest.(check bool) "no crash" false (World.crashed w);
  List.iter
    (fun (name, v) ->
      Alcotest.(check (list (float 0.0)))
        (name ^ " exactly zero") [ 0.0; 0.0; 0.0 ] [ v.Vec3.x; v.y; v.z ])
    [ ("velocity", Rigid_body.velocity_v b);
      ("angular velocity", Rigid_body.angular_velocity_v b);
      ("acceleration", Rigid_body.acceleration_v b) ]

(* The zero-allocation contract: once warm, the full kernel — physics
   step, sensor tick, trace record — must not allocate on the minor heap
   in steady flight. The 64-word slack absorbs the trace's occasional
   chunk-directory growth (a few pointer words every 256 records); a
   single boxed float per step would show up as 2000 words. *)
let test_steady_step_allocation_free () =
  let w = World.create ~position:(Vec3.make 0.0 0.0 100.0) () in
  let suite = Avis_sensors.Suite.create ~rng:(Avis_util.Rng.create 1) in
  let trace = Avis_sitl.Trace.create () in
  let cmds = Array.make 4 hover in
  let steps = ref 0 in
  let kernel () =
    ignore (World.step w ~motor_commands:cmds ~dt:0.004);
    Avis_sensors.Suite.tick suite ~dt:0.004;
    incr steps;
    Avis_sitl.Trace.record trace ~steps:!steps ~dt:0.004 w ~mode:"Manual"
  in
  for _ = 1 to 2000 do kernel () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do kernel () done;
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "vehicle still flying" false (World.crashed w);
  if allocated >= 64.0 then
    Alcotest.failf "steady kernel allocated %.0f minor words over 1000 steps"
      allocated

let () =
  Alcotest.run "avis_physics"
    [
      ( "airframe+motor",
        [
          Alcotest.test_case "hover throttle" `Quick test_hover_throttle;
          Alcotest.test_case "motor lag" `Quick test_motor_lag;
          Alcotest.test_case "command clamped" `Quick test_motor_command_clamped;
          Alcotest.test_case "wrong motor count" `Quick test_motor_wrong_count;
          Alcotest.test_case "roll torque sign" `Quick test_roll_torque_sign;
          Alcotest.test_case "flapping damps" `Quick test_flapping_damps_rates;
        ] );
      ( "rigid body",
        [
          Alcotest.test_case "free fall" `Quick test_free_fall;
          Alcotest.test_case "specific force" `Quick test_specific_force_at_rest;
        ] );
      ( "world",
        [
          Alcotest.test_case "hover stays" `Quick test_world_hover_stays;
          Alcotest.test_case "hard impact" `Quick test_world_hard_impact;
          Alcotest.test_case "gentle touchdown" `Quick test_world_gentle_touchdown;
          Alcotest.test_case "frozen after crash" `Quick test_world_frozen_after_crash;
          Alcotest.test_case "fence breach latched" `Quick test_fence_breach_latched;
          Alcotest.test_case "resting world reaches exact zero" `Quick
            test_resting_world_reaches_zero;
          Alcotest.test_case "step = reference step" `Quick
            test_step_matches_reference;
          Alcotest.test_case "steady step allocation-free" `Quick
            test_steady_step_allocation_free;
        ] );
      ( "environment",
        [
          Alcotest.test_case "obstacle" `Quick test_environment_obstacle;
          Alcotest.test_case "fence" `Quick test_environment_fence;
          Alcotest.test_case "calm wind" `Quick test_wind_calm_is_zero;
          Alcotest.test_case "gusts bounded" `Quick test_wind_gusts_bounded;
        ] );
    ]
