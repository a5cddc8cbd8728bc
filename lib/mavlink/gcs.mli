(** Ground-control-station protocol driver.

    Wraps one end of a {!Link} with frame encoding/decoding, telemetry
    caching, and the stateful transactions a workload needs: the
    mission-upload handshake (COUNT → REQUEST… → ITEM… → ACK), long
    commands with acknowledgements, and mode changes. All operations are
    non-blocking — [tick] must be called every simulation step, and
    completion is observed through the state accessors. This is exactly the
    structure the paper's workload framework exists to hide; the high-level
    blocking API lives in [Avis_core.Workload].

    Transactions survive a lossy link: the upload handshake, long commands
    and mode changes are retransmitted with exponential backoff a bounded
    number of times, after which they resolve to an explicit timeout
    ([Upload_timed_out] / {!Tx_timed_out}) instead of hanging forever. The
    GCS also beacons its own 1 Hz heartbeat so the vehicle can detect
    datalink loss. *)

type t

val create : Link.t -> t
(** Attach to the GCS end of a link, as system 255, component 190. *)

val encode : Buffer.t -> t -> unit
(** Binary layout of the ground station's run state (telemetry
    cache, transaction state, decoder), floats bit-exact. The link and the
    MAVLink ids are not written. *)

val decode : link:Link.t -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}: a ground station attached to [link], the decoded
    copy of the link it was encoded over. Raises
    [Avis_util.Codec.Corrupt] on malformed input. *)

val tick : t -> time:float -> Msg.t list
(** Run one GCS scheduling slice at simulated [time]: ingest everything
    that arrived since the last tick, emit the periodic GCS heartbeat,
    retransmit overdue transactions, and return the decoded messages for
    custom handling. Call once per simulation step. *)

val poll : t -> Msg.t list
(** Ingest and decode only, without heartbeats or retransmission — [tick]
    minus the time-driven behaviour, for tests that drive the link by
    hand. *)

val send : t -> Msg.t -> unit
(** Fire-and-forget send (framed with the next sequence number). *)

(** {2 Cached telemetry} *)

val relative_alt : t -> float
(** Metres above home from the latest position message (0 before any). *)

val latitude : t -> float
val longitude : t -> float
val velocity : t -> float * float * float
(** North/east/up velocity, m/s. *)

val heading_deg : t -> float
val vehicle_mode : t -> int option
val armed : t -> bool

(** {2 Transactions} *)

type upload_state =
  | Upload_idle
  | Upload_in_progress
  | Upload_done
  | Upload_failed
  | Upload_timed_out
      (** Retransmission budget exhausted without progress: the link is
          effectively dead, give up cleanly. *)

type tx_status = Tx_pending | Tx_acked of bool | Tx_timed_out
(** Outcome of a retried transaction. *)

val start_mission_upload : t -> Msg.mission_item list -> unit
(** Begin the mission-upload handshake. Lost COUNT/ITEM chunks are
    retransmitted with exponential backoff; each MISSION_REQUEST from the
    vehicle resets the budget. Raises [Invalid_argument] if an upload is
    already in progress. *)

val upload_state : t -> upload_state

val send_command :
  t ->
  command:int ->
  ?param2:float ->
  ?param3:float ->
  ?param4:float ->
  param1:float ->
  unit ->
  unit
(** COMMAND_LONG, retried until acknowledged or the retry budget runs out;
    the outcome is observable via [command_status]. *)

val command_ack : t -> command:int -> bool option
(** [Some accepted] once an ack for [command] has arrived. *)

val command_status : t -> command:int -> tx_status
(** Resolution of the most recent [send_command] for [command]:
    [Tx_pending] while (re)transmission is in flight, [Tx_acked] once the
    vehicle answered, [Tx_timed_out] when the retry budget ran dry. A
    command never sent reads as [Tx_pending]. *)

val request_mode : t -> int -> unit
(** SET_MODE, retried until a heartbeat shows the vehicle left the mode it
    was in at request time (the requested mode itself may never appear:
    AUTO resolves to a mission phase code). *)

val mode_status : t -> tx_status
(** Resolution of the most recent [request_mode]; [Tx_acked true] when
    nothing is outstanding. *)
