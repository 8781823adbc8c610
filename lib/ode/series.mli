(** Interval Taylor coefficients of expressions and of ODE solutions, by
    a Taylor-mode tape.

    {!compile} turns expressions into a tape: a hash-consed array of
    nodes in topological order.  Equal subexpressions share one node
    (float constants are compared by bit pattern), and [Sin a] and
    [Cos a] share one sin/cos recurrence.  Each node carries a plane of
    interval coefficients 0..K of its series in the local time offset
    [d].  A pass computes one degree of every node with the classical
    automatic-differentiation recurrences for jets, evaluated in
    interval arithmetic so that every coefficient is a sound enclosure.
    Degree n of a node reads only degrees <= n of its operands, so
    {!solution_coeffs} can feed [z^(n+1) = f(z)^(n)/(n+1)] back between
    passes.

    The planes of a call are allocated by that call: a tape is immutable
    and may be shared between domains. *)

type tape

val compile : Expr.t array -> tape
(** One output per expression.  Raises [Invalid_argument] on a [Pow]
    with a negative exponent. *)

val solution_coeffs :
  tape ->
  order:int ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  Nncs_interval.Interval.t array array
(** [solution_coeffs rhs ~order:k ~time ~state ~inputs] returns, for each
    state dimension, enclosures of the Taylor coefficients 0..k of the
    solution of [s' = rhs(t, s, u)] through [state] at [time], with
    commands constant over the step.  [rhs] has one output per state
    dimension.  Raises what the interval operations raise, for example
    [Division_by_zero_interval] when a divisor's degree-0 coefficient
    contains 0. *)

val eval :
  tape ->
  order:int ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Interval.t array array ->
  inputs:Nncs_interval.Box.t ->
  Nncs_interval.Interval.t array array
(** [eval tape ~order:k ~time ~state ~inputs] is the series 0..k of each
    output when [State i] has the given series [state.(i)] (k + 1
    coefficients each) and time is [time + d].  The returned arrays may
    share storage with each other and with [state]: do not mutate
    them. *)

val horner :
  Nncs_interval.Interval.t array ->
  Nncs_interval.Interval.t ->
  Nncs_interval.Interval.t
(** [horner coeffs d] evaluates [sum_k coeffs_k * d^k] soundly. *)
