open Avis_geo
open Avis_mavlink
open Avis_sitl

(* Mission items as data: converted to geodetic MAVLink items only when the
   upload starts, using the simulation's local frame. *)
type mission_step =
  | Takeoff_item of float
  | Waypoint_item of { north : float; east : float; alt : float }
  | Land_item
  | Rtl_item

type step =
  | Wait_time of float
  | Upload_mission of mission_step list
  | Arm
  | Enter_auto
  | Takeoff of float
  | Reposition of { north : float; east : float; alt : float }
  | Land_now
  | Return_to_launch
  | Wait_altitude of { alt : float; tolerance : float; timeout : float }
  | Wait_mode of int
  | Wait_disarmed
  | Wait_near of { north : float; east : float; radius : float; timeout : float }

let wait_altitude ?(tolerance = 0.75) ?(timeout = infinity) alt =
  Wait_altitude { alt; tolerance; timeout }

let wait_near ?(radius = 2.5) ?(timeout = infinity) ~north ~east () =
  Wait_near { north; east; radius; timeout }

type t = {
  name : string;
  description : string;
  environment : unit -> Avis_physics.Environment.t option;
  nominal_duration : float;
  script : step list;
}

let mission_items frame steps =
  List.mapi
    (fun seq ms ->
      match ms with
      | Takeoff_item alt ->
        { Msg.seq; command = Msg.cmd_takeoff; param1 = 0.0; x = 0.0; y = 0.0;
          z = alt }
      | Waypoint_item { north; east; alt } ->
        let geo = Geodesy.of_local frame (Vec3.make north east alt) in
        { Msg.seq; command = Msg.cmd_waypoint; param1 = 0.0;
          x = geo.Geodesy.lat; y = geo.Geodesy.lon; z = alt }
      | Land_item ->
        { Msg.seq; command = Msg.cmd_land; param1 = 0.0; x = 0.0; y = 0.0;
          z = 0.0 }
      | Rtl_item ->
        { Msg.seq; command = Msg.cmd_return_to_launch; param1 = 0.0; x = 0.0;
          y = 0.0; z = 0.0 })
    steps

module Stepper = struct
  type status = Running | Done of bool

  type stepper = {
    script : step array;
    mutable pc : int;
    mutable entered : bool;
    mutable until : float;  (** [Wait_time] target, absolute seconds. *)
    mutable deadline : float;  (** Current step's timeout, absolute. *)
    mutable seen_armed : bool;  (** [Wait_disarmed] edge detector. *)
    mutable status : status;
  }

  let create (w : t) =
    {
      script = Array.of_list w.script;
      pc = 0;
      entered = false;
      until = 0.0;
      deadline = infinity;
      seen_armed = false;
      status = Running;
    }

  let status st = st.status

  (* Entry actions fire once, when the program counter first reaches the
     step; they run back-to-back at the same simulated time as the previous
     step's satisfaction, exactly as the old blocking primitives did. *)
  let enter st sim stp =
    let gcs = Sim.gcs sim in
    let now = Sim.time sim in
    st.deadline <- infinity;
    match stp with
    | Wait_time s -> st.until <- now +. s
    | Upload_mission items ->
      Gcs.start_mission_upload gcs (mission_items (Sim.frame sim) items);
      st.deadline <- now +. 30.0
    | Arm ->
      Gcs.send_command gcs ~command:Msg.cmd_arm_disarm ~param1:1.0 ();
      st.deadline <- now +. 10.0
    | Enter_auto -> Gcs.request_mode gcs 3
    | Takeoff alt ->
      Gcs.send_command gcs ~command:Msg.cmd_takeoff ~param1:alt ();
      st.deadline <- now +. 10.0
    | Reposition { north; east; alt } ->
      Gcs.send_command gcs ~command:Msg.cmd_reposition ~param1:north
        ~param2:east ~param3:alt ()
    | Land_now -> Gcs.send_command gcs ~command:Msg.cmd_land ~param1:0.0 ()
    | Return_to_launch ->
      Gcs.send_command gcs ~command:Msg.cmd_return_to_launch ~param1:0.0 ()
    | Wait_altitude { timeout; _ } | Wait_near { timeout; _ } ->
      if timeout < infinity then st.deadline <- now +. timeout
    | Wait_mode _ -> ()
    | Wait_disarmed -> st.seen_armed <- false

  type verdict = Sat | Failed | Not_yet

  let local_position sim =
    let gcs = Sim.gcs sim in
    let geo =
      {
        Geodesy.lat = Gcs.latitude gcs;
        lon = Gcs.longitude gcs;
        alt = Gcs.relative_alt gcs;
      }
    in
    Geodesy.to_local (Sim.frame sim) geo

  let check st sim stp =
    let gcs = Sim.gcs sim in
    match stp with
    | Wait_time _ -> if Sim.time sim >= st.until then Sat else Not_yet
    | Upload_mission _ -> (
      match Gcs.upload_state gcs with
      | Gcs.Upload_done -> Sat
      | Gcs.Upload_failed | Gcs.Upload_timed_out -> Failed
      | Gcs.Upload_idle | Gcs.Upload_in_progress -> Not_yet)
    | Arm -> (
      match Gcs.command_status gcs ~command:Msg.cmd_arm_disarm with
      | Gcs.Tx_acked true -> Sat
      | Gcs.Tx_acked false | Gcs.Tx_timed_out -> Failed
      | Gcs.Tx_pending -> Not_yet)
    | Takeoff _ -> (
      match Gcs.command_status gcs ~command:Msg.cmd_takeoff with
      | Gcs.Tx_acked true -> Sat
      | Gcs.Tx_acked false | Gcs.Tx_timed_out -> Failed
      | Gcs.Tx_pending -> Not_yet)
    | Enter_auto | Reposition _ | Land_now | Return_to_launch ->
      (* Fire-and-forget: satisfied at entry, so the next step's entry
         action runs at the same simulated time. *)
      Sat
    | Wait_altitude { alt; tolerance; _ } ->
      if Float.abs (Gcs.relative_alt gcs -. alt) <= tolerance then Sat
      else Not_yet
    | Wait_mode code ->
      if Gcs.vehicle_mode gcs = Some code then Sat else Not_yet
    | Wait_disarmed ->
      (* Armed state rides on heartbeats (1 Hz); wait for one that said
         armed, then for one that says disarmed. *)
      let armed = Gcs.armed gcs in
      if armed then st.seen_armed <- true;
      if st.seen_armed && not armed then Sat else Not_yet
    | Wait_near { north; east; radius; _ } ->
      let open Vec3 in
      let p = local_position sim in
      if norm (horizontal (sub p (make north east 0.0))) < radius then Sat
      else Not_yet


  (* The script is not written: the workload it comes from is part of
     every key a checkpoint is filed under, so [decode] takes it back from
     there. *)
  let encode b st =
    let[@warning "+9"] {
      script = _;
      pc;
      entered;
      until;
      deadline;
      seen_armed;
      status;
    } =
      st
    in
    let open Avis_util.Codec in
    w_int b pc;
    w_bool b entered;
    w_f64 b until;
    w_f64 b deadline;
    w_bool b seen_armed;
    match status with
    | Running -> w_u8 b 0
    | Done passed ->
      w_u8 b 1;
      w_bool b passed

  let decode (w : t) r =
    let open Avis_util.Codec in
    let script = Array.of_list w.script in
    let pc = r_int r in
    if pc < 0 || pc > Array.length script then corrupt "bad stepper pc %d" pc;
    let entered = r_bool r in
    let until = r_f64 r in
    let deadline = r_f64 r in
    let seen_armed = r_bool r in
    let status =
      match r_u8 r with
      | 0 -> Running
      | 1 -> Done (r_bool r)
      | t -> corrupt "bad stepper-status tag %d" t
    in
    { script; pc; entered; until; deadline; seen_armed; status }

  (* Computing the next step's time from the step count (not by
     accumulation) keeps every pause point bit-identical to an
     uninterrupted run. *)
  let reached sim ~until =
    float_of_int (Sim.steps sim + 1) *. Sim.dt >= until

  (* One span per pumped segment: between two pauses, this loop is where
     the simulated world actually advances, so these spans are the "sim
     steps" share of a cell's wall time. *)
  let run st sim ~until =
    Avis_util.Trace.span ~cat:"sim" "sim.steps" @@ fun () ->
    let rec loop () =
      match st.status with
      | Done _ -> st.status
      | Running ->
        if st.pc >= Array.length st.script then begin
          st.status <- Done true;
          st.status
        end
        else begin
          let stp = st.script.(st.pc) in
          if not st.entered then begin
            enter st sim stp;
            st.entered <- true
          end;
          match check st sim stp with
          | Sat ->
            st.pc <- st.pc + 1;
            st.entered <- false;
            loop ()
          | Failed ->
            st.status <- Done false;
            st.status
          | Not_yet ->
            if Sim.time sim >= st.deadline then begin
              st.status <- Done false;
              st.status
            end
            else if Sim.finished sim then begin
              st.status <- Done false;
              st.status
            end
            else begin
              (* Pause strictly before [until]. *)
              if reached sim ~until then st.status
              else begin
                Sim.step sim;
                loop ()
              end
            end
        end
    in
    loop ()
end

let execute w sim =
  let st = Stepper.create w in
  match Stepper.run st sim ~until:infinity with
  | Stepper.Done passed -> passed
  | Stepper.Running -> false (* unreachable: nothing pauses at infinity *)

let no_environment () = None

let quickstart =
  {
    name = "quickstart";
    description = "Fig. 8: takeoff to 20 m under the auto mission, then land";
    environment = no_environment;
    nominal_duration = 45.0;
    script =
      [
        Wait_time 2.0;
        Upload_mission [ Takeoff_item 20.0; Land_item ];
        Arm;
        Enter_auto;
        wait_altitude 20.0;
        wait_altitude 0.0;
        Wait_disarmed;
      ];
  }

let box_corners = [ (20.0, 0.0); (20.0, 20.0); (0.0, 20.0); (0.0, 0.0) ]

let manual_box =
  {
    name = "manual-box";
    description =
      "Position-hold workload: ascend to 20 m, fly the perimeter of a \
       20 m x 20 m box, land at the launch point";
    environment = no_environment;
    nominal_duration = 75.0;
    script =
      [ Wait_time 2.0; Arm; Takeoff 20.0; wait_altitude 20.0;
        (* The vehicle switches to Manual only after the climb completes;
           repositions sent before that would be rejected. *)
        Wait_mode 2 ]
      @ List.concat_map
          (fun (north, east) ->
            [
              Reposition { north; east; alt = 20.0 };
              wait_near ~timeout:30.0 ~north ~east ();
            ])
          box_corners
      @ [ Land_now; Wait_disarmed ];
  }

let auto_box =
  {
    name = "auto-box";
    description =
      "Auto mission: takeoff to 20 m, the four corners of a 20 m box, \
       return to launch";
    environment = no_environment;
    nominal_duration = 85.0;
    script =
      [
        Wait_time 2.0;
        Upload_mission
          ((Takeoff_item 20.0
           :: List.map
                (fun (north, east) -> Waypoint_item { north; east; alt = 20.0 })
                box_corners)
          @ [ Rtl_item ]);
        Arm;
        Enter_auto;
        wait_altitude 20.0;
        Wait_disarmed;
      ];
  }

let fence_mission =
  {
    name = "fence-mission";
    description =
      "Auto mission whose second leg crosses a geofence; the firmware must \
       refuse the leg and return to launch";
    environment =
      (fun () ->
        Some
          (Avis_physics.Environment.create
             ~fence:
               (Some
                  {
                    Avis_physics.Environment.centre_xy = Vec3.zero;
                    radius_m = 30.0;
                    max_alt_m = 60.0;
                  })
             ()));
    nominal_duration = 70.0;
    script =
      [
        Wait_time 2.0;
        Upload_mission
          [
            Takeoff_item 20.0;
            Waypoint_item { north = 20.0; east = 0.0; alt = 20.0 };
            (* This target lies outside the 30 m fence. *)
            Waypoint_item { north = 70.0; east = 0.0; alt = 20.0 };
            Rtl_item;
          ];
        Arm;
        Enter_auto;
        wait_altitude 20.0;
        Wait_disarmed;
      ];
  }

let all = [ quickstart; manual_box; auto_box; fence_mission ]

let by_name name = List.find_opt (fun w -> w.name = name) all
