(** ODE systems [s'(t) = f(t, s(t), u(t))] with piecewise-constant
    inputs, plus a concrete (non-validated) Runge-Kutta simulator used as
    ground truth in tests and by the falsification baseline. *)

type system = private {
  dim : int;  (** state dimension l *)
  input_dim : int;  (** command dimension d *)
  rhs : Expr.t array;  (** one expression per state dimension *)
  jacobian : Expr.t array array;
      (** [jacobian.(i).(j)] is [Expr.diff rhs.(i) j] *)
  tape : Series.tape;  (** [rhs], compiled *)
  jacobian_tape : Series.tape;  (** [jacobian], compiled row by row *)
}

val make : dim:int -> input_dim:int -> Expr.t array -> system
(** Validates that the expressions only mention state indices < [dim] and
    input indices < [input_dim], and that there are exactly [dim] of
    them; then differentiates them and compiles both sets once.  Raises
    [Invalid_argument] on a [Pow] with a negative exponent. *)

val eval_rhs : system -> time:float -> state:float array -> inputs:float array -> float array

val eval_rhs_interval :
  system ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  Nncs_interval.Box.t

val rk4_step :
  system -> time:float -> state:float array -> inputs:float array -> h:float -> float array
(** One classical RK4 step (not validated). *)

val rk4_flow :
  system ->
  time:float ->
  state:float array ->
  inputs:float array ->
  duration:float ->
  steps:int ->
  float array
(** Integrate over [duration] with [steps] RK4 steps. *)
