(** PID controller with output and integrator limits. *)

type t

val create :
  ?kp:float -> ?ki:float -> ?kd:float -> ?i_limit:float -> ?out_limit:float -> unit -> t
(** Gains default to zero; limits default to infinity. *)

val update : t -> error:float -> dt:float -> float
(** One controller step. The derivative term acts on the error's change. *)

val update_with_rate : t -> error:float -> rate:float -> dt:float -> float
(** Like [update], but the derivative term uses the measured [rate] of the
    process variable (sign convention: damping opposes [rate]). This avoids
    derivative kick from setpoint changes. *)

val reset : t -> unit
(** Clear integrator and derivative history. *)

val encode : Buffer.t -> t -> unit
(** Bit-exact binary layout of the controller's state: integrator and
    derivative history as IEEE-754 doubles. The gains and limits are not
    written. *)

val decode_into : t -> Avis_util.Codec.reader -> unit
(** Inverse of {!encode}, into a controller created with the encoded one's
    gains and limits. Raises [Avis_util.Codec.Corrupt] on truncated
    input. *)
