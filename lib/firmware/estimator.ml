open Avis_geo
open Avis_sensors

type alt_mode = Alt_fused | Alt_gps_fused | Alt_gps_raw | Alt_lagged | Alt_frozen | Alt_none

type att_mode = Att_normal | Att_frozen | Att_accel_only

type yaw_mode = Yaw_compass | Yaw_gyro_only | Yaw_stale_compass | Yaw_flipped

type pos_mode = Pos_gps | Pos_dead_reckon

(* An all-float record, so storing the yaw does not box it. *)
type yaw_cache = { mutable yaw : float }

type t = {
  params : Params.t;
  mutable prev_up_body : Vec3.t option;  (* for accel-only rate estimation *)
  mutable position : Vec3.t;
  mutable velocity : Vec3.t;
  mutable attitude : Quat.t;  (* written only through [set_attitude] *)
  mutable yaw_valid : bool;
  yaw_cache : yaw_cache;
      (* The yaw of [attitude] once [yaw_valid]: derived, never encoded,
         so invalid after [decode] as after every attitude write. *)
  mutable angular_rate : Vec3.t;
  mutable alt_mode : alt_mode;
  mutable att_mode : att_mode;
  mutable yaw_mode : yaw_mode;
  mutable pos_mode : pos_mode;
  mutable heading_valid : bool;
  mutable last_gps_alt : float option;  (* for Alt_gps_raw differentiation *)
  mutable raw_climb : float;
  mutable accel_world : Vec3.t;  (* latest predicted world acceleration *)
  mutable vertical_degraded : bool;
  mutable dead_reckon_age : float;
}

let create ~params () =
  {
    params;
    prev_up_body = None;
    position = Vec3.zero;
    velocity = Vec3.zero;
    attitude = Quat.identity;
    yaw_valid = false;
    yaw_cache = { yaw = 0.0 };
    angular_rate = Vec3.zero;
    alt_mode = Alt_fused;
    att_mode = Att_normal;
    yaw_mode = Yaw_compass;
    pos_mode = Pos_gps;
    heading_valid = true;
    last_gps_alt = None;
    raw_climb = 0.0;
    accel_world = Vec3.zero;
    vertical_degraded = false;
    dead_reckon_age = 0.0;
  }

let[@inline] set_attitude t q =
  t.attitude <- q;
  t.yaw_valid <- false

let[@inline] yaw t =
  if not t.yaw_valid then begin
    t.yaw_cache.yaw <- Quat.yaw t.attitude;
    t.yaw_valid <- true
  end;
  t.yaw_cache.yaw

let set_alt_mode t m = t.alt_mode <- m
let set_att_mode t m = t.att_mode <- m
let set_yaw_mode t m = t.yaw_mode <- m
let set_pos_mode t m = t.pos_mode <- m
let alt_mode t = t.alt_mode
let att_mode t = t.att_mode
let yaw_mode t = t.yaw_mode
let pos_mode t = t.pos_mode

let reset_state t =
  let yaw = yaw t in
  t.position <- Vec3.zero;
  t.velocity <- Vec3.zero;
  set_attitude t (Quat.of_euler ~roll:0.0 ~pitch:0.0 ~yaw)

let wrap_angle a =
  let twopi = 2.0 *. Float.pi in
  let a = Float.rem a twopi in
  if a > Float.pi then a -. twopi else if a < -.Float.pi then a +. twopi else a

(* Complementary-filter gains (1/s). *)
let k_tilt = 0.5
let k_yaw = 1.5
let k_alt = 2.5
let k_alt_gps = 2.2
let k_climb = 1.5
let k_pos = 1.2
let k_vel = 1.6
let lag_tau = 2.5

let accel_reading d =
  match Drivers.fresh d Sensor.Accelerometer with
  | Some (Sensor.Accel v) -> Some v
  | Some _ | None -> None

let gyro_reading d =
  match Drivers.fresh d Sensor.Gyroscope with
  | Some (Sensor.Gyro v) -> Some v
  | Some _ | None -> None

let compass_fresh d =
  match Drivers.fresh d Sensor.Compass with
  | Some (Sensor.Heading h) -> Some h
  | Some _ | None -> None

let compass_stale d =
  match Drivers.stale d Sensor.Compass with
  | Some (Sensor.Heading h) -> Some h
  | Some _ | None -> None

let baro_fresh d =
  match Drivers.fresh d Sensor.Barometer with
  | Some (Sensor.Pressure_alt a) -> Some a
  | Some _ | None -> None

let gps_fresh d =
  match Drivers.fresh d Sensor.Gps with
  | Some (Sensor.Gps_fix { position; velocity; hdop = _ }) ->
    Some (position, velocity)
  | Some _ | None -> None

let update_attitude t d ~dt =
  match t.att_mode with
  | Att_frozen ->
    (* The flawed path: rate and attitude stop evolving; the controllers
       keep consuming the stale state. *)
    ()
  | Att_accel_only ->
    (* Gyro gone: track the measured gravity direction directly, and
       recover roll/pitch body rates by differentiating it — crude, but
       enough damping for gentle flight. *)
    (match accel_reading d with
    | Some f ->
      let up_body = Vec3.normalize f in
      let measured_up_world = Quat.rotate t.attitude up_body in
      let err = Vec3.cross measured_up_world Vec3.unit_z in
      let gain = 6.0 in
      let correction = Vec3.scale (gain *. dt) err in
      let angle = Vec3.norm correction in
      if angle > 1e-9 then
        set_attitude t (Quat.mul (Quat.of_axis_angle correction angle) t.attitude);
      (match t.prev_up_body with
      | Some prev when dt > 0.0 ->
        (* up_body is fixed in the world; its apparent motion in the body
           frame is -omega x up, so omega_tilt = up x d(up)/dt. *)
        let dup = Vec3.scale (1.0 /. dt) (Vec3.sub up_body prev) in
        let rate = Vec3.cross up_body dup in
        t.angular_rate <-
          Vec3.add (Vec3.scale 0.85 t.angular_rate) (Vec3.scale 0.15 rate)
      | Some _ | None -> ());
      t.prev_up_body <- Some up_body
    | None -> ())
  | Att_normal ->
    (match gyro_reading d with
    | Some rate -> t.angular_rate <- rate
    | None -> ());
    set_attitude t (Quat.integrate t.attitude t.angular_rate dt);
    (* Tilt correction: the measured specific force points along body-up
       when the vehicle is not accelerating hard. *)
    (match accel_reading d with
    | Some f ->
      let n = Vec3.norm f in
      let g = Avis_physics.Airframe.gravity in
      if n > 0.5 *. g && n < 1.5 *. g then begin
        let measured_up_world = Quat.rotate t.attitude (Vec3.normalize f) in
        let err = Vec3.cross measured_up_world Vec3.unit_z in
        let correction = Vec3.scale (k_tilt *. dt) err in
        let angle = Vec3.norm correction in
        if angle > 1e-9 then
          set_attitude t (Quat.mul (Quat.of_axis_angle correction angle) t.attitude)
      end
    | None -> ())

let update_yaw t d ~dt =
  (* Fresh-compass corrections are applied once per sample and scale with
     the sample period; the flawed stale modes run every cycle and scale
     with dt. *)
  let period = t.params.Params.compass_period in
  let apply_correction target gain =
    let err = wrap_angle (target -. yaw t) in
    let step = gain *. period *. err in
    set_attitude t (Quat.mul (Quat.of_axis_angle Vec3.unit_z step) t.attitude)
  in
  match t.yaw_mode with
  | Yaw_compass -> (
    match compass_fresh d with
    | Some h ->
      t.heading_valid <- true;
      apply_correction h k_yaw
    | None -> ())
  | Yaw_gyro_only -> ()
  | Yaw_stale_compass -> (
    (* Flawed: the stale heading is treated as current truth, pinning the
       estimate to where the vehicle pointed when the compass died. The
       stale value is available every cycle, so the step scales with dt. *)
    match compass_stale d with
    | Some h ->
      let err = wrap_angle (h -. yaw t) in
      let step = k_yaw *. dt *. err in
      set_attitude t (Quat.mul (Quat.of_axis_angle Vec3.unit_z step) t.attitude)
    | None -> ())
  | Yaw_flipped -> (
    match compass_stale d with
    | Some h ->
      let err = wrap_angle (h -. yaw t) in
      (* Flawed sign: the "correction" drives the estimate away. *)
      let step = -.k_yaw *. dt *. err in
      set_attitude t (Quat.mul (Quat.of_axis_angle Vec3.unit_z step) t.attitude)
    | None -> ())

let predicted_accel t d =
  match t.att_mode with
  | Att_frozen | Att_accel_only -> Vec3.zero
  | Att_normal -> (
    match accel_reading d with
    | Some f ->
      let gravity = Vec3.make 0.0 0.0 (-.Avis_physics.Airframe.gravity) in
      Vec3.add (Quat.rotate t.attitude f) gravity
    | None -> Vec3.zero)

let update_vertical t d ~dt =
  let a = t.accel_world in
  match t.alt_mode with
  | Alt_frozen -> ()
  | Alt_none -> ()
  | Alt_gps_raw -> (
    (* Flawed: with the IMU gone there is no vertical rate source, so the
       altitude estimate jumps to each raw GPS sample and the climb-rate
       estimate is stuck at zero. The vertical loop degenerates to
       undamped altitude-P control on metre-scale noise — tolerable at
       cruise altitude, fatal for altitude changes near the ground
       (Fig. 1). *)
    match gps_fresh d with
    | Some (gpos, _gvel) ->
      let z = gpos.Vec3.z in
      t.last_gps_alt <- Some z;
      t.raw_climb <- 0.0;
      t.position <- { t.position with Vec3.z = z };
      t.velocity <- { t.velocity with Vec3.z = 0.0 }
    | None -> ())
  | Alt_lagged -> (
    (* Flawed: no IMU prediction, just a long-time-constant pull towards
       the barometer; the estimate lags a climbing vehicle by seconds. *)
    match baro_fresh d with
    | Some alt ->
      let alpha = dt /. lag_tau in
      let z = t.position.Vec3.z in
      let z' = z +. (alpha *. (alt -. z)) in
      t.velocity <- { t.velocity with Vec3.z = (z' -. z) /. dt };
      t.position <- { t.position with Vec3.z = z' }
    | None -> ())
  | Alt_fused | Alt_gps_fused ->
    (* Predict with the IMU... *)
    let vz = t.velocity.Vec3.z +. (a.Vec3.z *. dt) in
    let z = t.position.Vec3.z +. (vz *. dt) in
    (* ...then correct towards the selected reference. *)
    let reference =
      match t.alt_mode with
      | Alt_fused -> baro_fresh d
      | Alt_gps_fused | Alt_gps_raw | Alt_lagged | Alt_frozen | Alt_none -> (
        match gps_fresh d with
        | Some (gpos, _) -> Some gpos.Vec3.z
        | None -> None)
    in
    (* Corrections land once per sensor sample; scale gains by the sample
       period so the filter bandwidth is independent of the control rate.
       Without an IMU prediction the innovation is the only velocity
       source, so the velocity gain must be much higher. *)
    let have_imu = not (Vec3.is_zero a) in
    let gain, period =
      if t.alt_mode = Alt_fused then (k_alt, t.params.Params.baro_period)
      else (k_alt_gps, t.params.Params.gps_period)
    in
    (* Without an IMU the innovations are the whole observer; pick gains
       giving a critically damped second-order estimator. *)
    let gain = if have_imu then gain else 6.0 in
    let k_climb = if have_imu then k_climb else 8.0 in
    let z, vz =
      match reference with
      | Some alt ->
        let innovation = alt -. z in
        ( z +. (gain *. period *. innovation),
          vz +. (k_climb *. period *. innovation) )
      | None -> (z, vz)
    in
    t.position <- { t.position with Vec3.z = z };
    t.velocity <- { t.velocity with Vec3.z = vz }

let update_horizontal t d ~dt =
  let a = t.accel_world in
  let vx = t.velocity.Vec3.x +. (a.Vec3.x *. dt) in
  let vy = t.velocity.Vec3.y +. (a.Vec3.y *. dt) in
  let x = t.position.Vec3.x +. (vx *. dt) in
  let y = t.position.Vec3.y +. (vy *. dt) in
  let x, y, vx, vy =
    match t.pos_mode with
    | Pos_dead_reckon -> (x, y, vx, vy)
    | Pos_gps -> (
      match gps_fresh d with
      | Some (gpos, gvel) ->
        let period = t.params.Params.gps_period in
        (* Without the IMU prediction, the GPS innovations are the only
           information; weight them heavily or the estimate lags the
           vehicle by enough to destabilise the velocity loop. *)
        let have_imu = not (Vec3.is_zero a) in
        let k_pos = if have_imu then k_pos else 3.0 in
        let k_vel = if have_imu then k_vel else 6.0 in
        let px = gpos.Vec3.x and py = gpos.Vec3.y in
        let gvx = gvel.Vec3.x and gvy = gvel.Vec3.y in
        ( x +. (k_pos *. period *. (px -. x)),
          y +. (k_pos *. period *. (py -. y)),
          vx +. (k_vel *. period *. (gvx -. vx)),
          vy +. (k_vel *. period *. (gvy -. vy)) )
      | None -> (x, y, vx, vy))
  in
  t.position <- Vec3.make x y t.position.Vec3.z;
  t.velocity <- Vec3.make vx vy t.velocity.Vec3.z

let update t d ~dt =
  update_attitude t d ~dt;
  (* A frozen attitude (the flawed gyro-loss path) freezes its heading
     corrections too: the whole attitude stack has stopped. *)
  if t.att_mode <> Att_frozen then update_yaw t d ~dt;
  t.accel_world <- predicted_accel t d;
  t.vertical_degraded <-
    (Vec3.is_zero t.accel_world && t.att_mode <> Att_frozen)
    || (match t.alt_mode with
       | Alt_gps_raw | Alt_lagged | Alt_frozen | Alt_none -> true
       | Alt_fused | Alt_gps_fused -> false);
  update_vertical t d ~dt;
  update_horizontal t d ~dt;
  t.dead_reckon_age <-
    (match t.pos_mode with
    | Pos_dead_reckon -> t.dead_reckon_age +. dt
    | Pos_gps -> 0.0)

let position t = t.position
let velocity t = t.velocity
let attitude t = t.attitude
let angular_rate t = t.angular_rate
let altitude t = t.position.Vec3.z
let climb_rate t = t.velocity.Vec3.z

let alt_valid t = t.alt_mode <> Alt_none

let vertical_degraded t = t.vertical_degraded

let dead_reckon_age t = t.dead_reckon_age

let heading_valid t = t.heading_valid
let set_heading_valid t v = t.heading_valid <- v

let alt_mode_tag = function
  | Alt_fused -> 0
  | Alt_gps_fused -> 1
  | Alt_gps_raw -> 2
  | Alt_lagged -> 3
  | Alt_frozen -> 4
  | Alt_none -> 5

let alt_mode_of_tag = function
  | 0 -> Alt_fused
  | 1 -> Alt_gps_fused
  | 2 -> Alt_gps_raw
  | 3 -> Alt_lagged
  | 4 -> Alt_frozen
  | 5 -> Alt_none
  | t -> Avis_util.Codec.corrupt "bad alt-mode tag %d" t

let att_mode_tag = function
  | Att_normal -> 0
  | Att_frozen -> 1
  | Att_accel_only -> 2

let att_mode_of_tag = function
  | 0 -> Att_normal
  | 1 -> Att_frozen
  | 2 -> Att_accel_only
  | t -> Avis_util.Codec.corrupt "bad att-mode tag %d" t

let yaw_mode_tag = function
  | Yaw_compass -> 0
  | Yaw_gyro_only -> 1
  | Yaw_stale_compass -> 2
  | Yaw_flipped -> 3

let yaw_mode_of_tag = function
  | 0 -> Yaw_compass
  | 1 -> Yaw_gyro_only
  | 2 -> Yaw_stale_compass
  | 3 -> Yaw_flipped
  | t -> Avis_util.Codec.corrupt "bad yaw-mode tag %d" t

let pos_mode_tag = function Pos_gps -> 0 | Pos_dead_reckon -> 1

let pos_mode_of_tag = function
  | 0 -> Pos_gps
  | 1 -> Pos_dead_reckon
  | t -> Avis_util.Codec.corrupt "bad pos-mode tag %d" t

(* The record is destructured exhaustively (warning 9 is an error here),
   so a field added to [t] does not compile until it is encoded below or
   bound to [_] with the reason it need not travel: every prefix-cache
   hit decodes this layout, so a forgotten field would change results. *)
let encode b (t : t) =
  let[@warning "+9"] {
    params = _ (* the personality's fixed set, passed back to [decode] *);
    prev_up_body;
    position;
    velocity;
    attitude;
    yaw_valid = _;
    yaw_cache = _ (* derived from [attitude]; starts invalid on decode *);
    angular_rate;
    alt_mode;
    att_mode;
    yaw_mode;
    pos_mode;
    heading_valid;
    last_gps_alt;
    raw_climb;
    accel_world;
    vertical_degraded;
    dead_reckon_age;
  } =
    t
  in
  let open Avis_util.Codec in
  w_version b 2;
  w_option b Vec3.encode prev_up_body;
  Vec3.encode b position;
  Vec3.encode b velocity;
  Quat.encode b attitude;
  Vec3.encode b angular_rate;
  w_u8 b (alt_mode_tag alt_mode);
  w_u8 b (att_mode_tag att_mode);
  w_u8 b (yaw_mode_tag yaw_mode);
  w_u8 b (pos_mode_tag pos_mode);
  w_bool b heading_valid;
  w_option b w_f64 last_gps_alt;
  w_f64 b raw_climb;
  Vec3.encode b accel_world;
  w_bool b vertical_degraded;
  w_f64 b dead_reckon_age

let decode ~params r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:2 in
  let prev_up_body = r_option r Vec3.decode in
  let position = Vec3.decode r in
  let velocity = Vec3.decode r in
  let attitude = Quat.decode r in
  let angular_rate = Vec3.decode r in
  let alt_mode = alt_mode_of_tag (r_u8 r) in
  let att_mode = att_mode_of_tag (r_u8 r) in
  let yaw_mode = yaw_mode_of_tag (r_u8 r) in
  let pos_mode = pos_mode_of_tag (r_u8 r) in
  let heading_valid = r_bool r in
  let last_gps_alt = r_option r r_f64 in
  let raw_climb = r_f64 r in
  let accel_world = Vec3.decode r in
  let vertical_degraded = r_bool r in
  let dead_reckon_age = r_f64 r in
  {
    params;
    prev_up_body;
    position;
    velocity;
    attitude;
    yaw_valid = false;
    yaw_cache = { yaw = 0.0 };
    angular_rate;
    alt_mode;
    att_mode;
    yaw_mode;
    pos_mode;
    heading_valid;
    last_gps_alt;
    raw_climb;
    accel_world;
    vertical_degraded;
    dead_reckon_age;
  }
