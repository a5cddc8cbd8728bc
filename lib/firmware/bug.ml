open Avis_sensors

type id =
  | Apm_16020
  | Apm_16021
  | Apm_16027
  | Apm_16967
  | Apm_16682
  | Apm_16953
  | Px4_17046
  | Px4_17057
  | Px4_17192
  | Px4_17181
  | Apm_4455
  | Apm_4679
  | Apm_5428
  | Apm_9349
  | Px4_13291

let all =
  [
    Apm_16020;
    Apm_16021;
    Apm_16027;
    Apm_16967;
    Apm_16682;
    Apm_16953;
    Px4_17046;
    Px4_17057;
    Px4_17192;
    Px4_17181;
    Apm_4455;
    Apm_4679;
    Apm_5428;
    Apm_9349;
    Px4_13291;
  ]

type firmware_kind = Ardupilot | Px4

let firmware_name = function Ardupilot -> "ArduPilot" | Px4 -> "PX4"

type symptom = Crash | Fly_away | Takeoff_failure

let symptom_to_string = function
  | Crash -> "Crash"
  | Fly_away -> "Fly Away"
  | Takeoff_failure -> "Takeoff Failure"

type window = {
  from_phase : Phase.pattern;
  to_phase : Phase.pattern;
  pre_s : float;
  post_s : float;
}

type info = {
  id : id;
  report : string;
  firmware : firmware_kind;
  symptom : symptom;
  sensor : Sensor.kind;
  window : window;
  known : bool;
  window_label : string;
  description : string;
  requires_second_failure : Sensor.kind option;
}

let window ?(pre = 1.0) ?(post = 2.0) from_phase to_phase =
  { from_phase; to_phase; pre_s = pre; post_s = post }

let describe = function
  | Apm_16020 ->
    {
      id = Apm_16020;
      report = "APM-16020";
      firmware = Ardupilot;
      symptom = Fly_away;
      sensor = Sensor.Gps;
      window = window Phase.(Exactly Takeoff) Phase.Any_waypoint;
      known = false;
      window_label = "Takeoff -> Autopilot";
      description =
        "GPS loss in the window around entering autopilot navigation is \
         latched as healthy; the leg controller keeps dead-reckoning on \
         biased accelerometer data and the vehicle departs its track.";
      requires_second_failure = None;
    }
  | Apm_16021 ->
    {
      id = Apm_16021;
      report = "APM-16021";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Accelerometer;
      window = window ~pre:1.0 ~post:9.0 Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = false;
      window_label = "Takeoff -> Waypoint 1";
      description =
        "An accelerometer failure late in the climb corrupts the vertical \
         state model; the vehicle overshoots the target altitude, the land \
         failsafe engages with a wrong altitude estimate and the descent is \
         not flared.";
      requires_second_failure = None;
    }
  | Apm_16027 ->
    {
      id = Apm_16027;
      report = "APM-16027";
      firmware = Ardupilot;
      symptom = Fly_away;
      sensor = Sensor.Barometer;
      window = window Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = false;
      window_label = "Pre-Flight -> Takeoff";
      description =
        "Barometer loss at takeoff entry leaves the altitude estimate \
         frozen near zero; the climb controller never observes progress and \
         the vehicle keeps ascending.";
      requires_second_failure = None;
    }
  | Apm_16967 ->
    {
      id = Apm_16967;
      report = "APM-16967";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Compass;
      window =
        {
          from_phase = Phase.Any_waypoint;
          to_phase = Phase.Any_waypoint;
          pre_s = 1.0;
          post_s = 8.0;
        };
      known = false;
      window_label = "Waypoint 1 -> Waypoint 2";
      description =
        "Compass loss between waypoints freezes the heading estimate while \
         the vehicle turns; the land failsafe engages, and near the ground \
         the firmware resets its state estimate, destabilising touchdown.";
      requires_second_failure = None;
    }
  | Apm_16682 ->
    {
      id = Apm_16682;
      report = "APM-16682";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Accelerometer;
      window = window ~pre:1.0 ~post:6.0 Phase.(Exactly Rtl) Phase.(Exactly Land);
      known = false;
      window_label = "Return To Launch -> Land";
      description =
        "The Fig. 1 bug: an IMU failure at the end of landing triggers \
         GPS-driven altitude control without checking flight conditions; at \
         low altitude GPS vertical error drives the vehicle into the ground.";
      requires_second_failure = None;
    }
  | Apm_16953 ->
    {
      id = Apm_16953;
      report = "APM-16953";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Gyroscope;
      window = window ~pre:1.0 ~post:6.0 Phase.(Exactly Rtl) Phase.(Exactly Land);
      known = false;
      window_label = "Return To Launch -> Land";
      description =
        "Gyroscope loss entering the landing phase leaves the rate loop \
         consuming a frozen rate; the attitude oscillation grows during the \
         descent and the vehicle impacts with excessive tilt.";
      requires_second_failure = None;
    }
  | Px4_17046 ->
    {
      id = Px4_17046;
      report = "PX4-17046";
      firmware = Px4;
      symptom = Fly_away;
      sensor = Sensor.Gyroscope;
      window = window Phase.Any_waypoint Phase.(Exactly Rtl);
      known = false;
      window_label = "Waypoint 3 -> Return To Launch";
      description =
        "A gyroscope failure at RTL entry flips the sign of the yaw-rate \
         feedforward used to line up the return leg; the vehicle circles \
         outwards instead of converging on home.";
      requires_second_failure = None;
    }
  | Px4_17057 ->
    {
      id = Px4_17057;
      report = "PX4-17057";
      firmware = Px4;
      symptom = Crash;
      sensor = Sensor.Gyroscope;
      window = window Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = false;
      window_label = "Pre-Flight -> Takeoff";
      description =
        "Gyroscope loss during motor ramp-up is not caught by the preflight \
         monitor once arming has been granted; the rate loop lifts off \
         open-loop and the vehicle flips at low altitude.";
      requires_second_failure = None;
    }
  | Px4_17192 ->
    {
      id = Px4_17192;
      report = "PX4-17192";
      firmware = Px4;
      symptom = Takeoff_failure;
      sensor = Sensor.Compass;
      window = window Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = false;
      window_label = "Pre-Flight -> Takeoff";
      description =
        "A compass failure racing the arming sequence leaves the heading \
         validity flag unset; the takeoff controller aborts the climb every \
         cycle and the vehicle never leaves the ground.";
      requires_second_failure = None;
    }
  | Px4_17181 ->
    {
      id = Px4_17181;
      report = "PX4-17181";
      firmware = Px4;
      symptom = Takeoff_failure;
      sensor = Sensor.Barometer;
      window = window Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = false;
      window_label = "Pre-Flight -> Takeoff";
      description =
        "Barometer loss at takeoff entry leaves no altitude source selected \
         even though GPS altitude is available; the climb demand is zeroed \
         and the vehicle sits on the ground with motors spinning.";
      requires_second_failure = None;
    }
  | Apm_4455 ->
    {
      id = Apm_4455;
      report = "APM-4455";
      firmware = Ardupilot;
      symptom = Fly_away;
      sensor = Sensor.Gps;
      window = window ~pre:1.0 ~post:30.0 Phase.Any Phase.(Exactly Manual);
      known = true;
      window_label = "Manual (position hold)";
      description =
        "Known bug: GPS loss in position-hold keeps the position controller \
         engaged on dead-reckoned state instead of degrading to altitude \
         hold; the vehicle drifts away.";
      requires_second_failure = None;
    }
  | Apm_4679 ->
    {
      id = Apm_4679;
      report = "APM-4679";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Barometer;
      window =
        {
          from_phase = Phase.Any;
          to_phase = Phase.One_of [ Phase.Any_waypoint; Phase.Exactly Phase.Manual ];
          pre_s = 1.0;
          post_s = 30.0;
        };
      known = true;
      window_label = "Cruise (any waypoint leg)";
      description =
        "Known bug: barometer loss in cruise switches altitude control to \
         raw GPS altitude; the noisy vertical feedback drives violent \
         climb-rate oscillations.";
      requires_second_failure = None;
    }
  | Apm_5428 ->
    {
      id = Apm_5428;
      report = "APM-5428";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Compass;
      window = window ~pre:1.0 ~post:6.0 Phase.(Exactly Preflight) Phase.(Exactly Takeoff);
      known = true;
      window_label = "Takeoff";
      description =
        "Known bug: compass loss during the climb feeds an unreferenced \
         heading into the yaw loop; the vehicle enters a tightening spiral \
         (toilet-bowl) and crashes.";
      requires_second_failure = None;
    }
  | Apm_9349 ->
    {
      id = Apm_9349;
      report = "APM-9349";
      firmware = Ardupilot;
      symptom = Crash;
      sensor = Sensor.Accelerometer;
      window = window ~pre:1.0 ~post:10.0 Phase.Any Phase.(Exactly Land);
      known = true;
      window_label = "Land";
      description =
        "Known bug: accelerometer loss during landing blinds the touchdown \
         detector (it keys on the contact jolt); the motors keep running on \
         the ground and the vehicle tips over.";
      requires_second_failure = None;
    }
  | Px4_13291 ->
    {
      id = Px4_13291;
      report = "PX4-13291";
      firmware = Px4;
      symptom = Fly_away;
      sensor = Sensor.Gps;
      window =
        {
          from_phase = Phase.Any;
          to_phase =
            Phase.One_of [ Phase.Any_waypoint; Phase.Exactly Phase.Manual ];
          pre_s = 1.0;
          post_s = 30.0;
        };
      known = true;
      window_label = "Cruise, GPS + battery";
      description =
        "Known bug: with GPS already failed (no local position), a battery \
         monitor failure triggers the battery failsafe's return-to-launch, \
         which dead-reckons away instead of landing in place.";
      requires_second_failure = Some Sensor.Battery;
    }

(* Position in [all], which is also each bug's stable wire id. *)
let index = function
  | Apm_16020 -> 0
  | Apm_16021 -> 1
  | Apm_16027 -> 2
  | Apm_16967 -> 3
  | Apm_16682 -> 4
  | Apm_16953 -> 5
  | Px4_17046 -> 6
  | Px4_17057 -> 7
  | Px4_17192 -> 8
  | Px4_17181 -> 9
  | Apm_4455 -> 10
  | Apm_4679 -> 11
  | Apm_5428 -> 12
  | Apm_9349 -> 13
  | Px4_13291 -> 14

let by_index = Array.of_list all

(* Built once: the failsafe reads a bug's window every cycle a kind is
   lost. *)
let infos = Array.map describe by_index

let info id = infos.(index id)

let of_report r =
  List.find_opt (fun id -> (info id).report = r) all

let unknown_bugs fw =
  List.filter (fun id -> let i = info id in i.firmware = fw && not i.known) all

let known_bugs fw =
  List.filter (fun id -> let i = info id in i.firmware = fw && i.known) all

type registry = { enabled : id list }

let registry ~enabled = { enabled }

(* Ids are constant constructors, so physical equality is equality and
   [memq] avoids [mem]'s polymorphic compare. *)
let enabled r id = List.memq id r.enabled

(* Stable wire ids for snapshots: the position in [all]. Appending new bugs
   keeps old snapshots decodable; never reorder. *)
let encode_id b id = Avis_util.Codec.w_u8 b (index id)

let decode_id r =
  let tag = Avis_util.Codec.r_u8 r in
  if tag < Array.length by_index then by_index.(tag)
  else Avis_util.Codec.corrupt "bad bug-id tag %d" tag
