(** Per-work-item resource budgets.

    A budget bounds one verification cell (including any degradation
    retries): a wall-clock deadline, a cap on validated-integration
    sub-steps, and a cap on the symbolic-state count.  Exceeding any
    limit raises {!Exhausted}, which the {!Firewall} maps to a
    [Failure.Budget_exceeded] verdict — the cell degrades to [Unknown]
    instead of monopolising a worker.

    Checks are cheap (a clock read or an atomic add) and are meant to be
    called from the hot reach loop once per control step.

    A budget also carries a {!Cancel} token: the same hot-loop gates
    ([check_deadline] / [add_ode_steps]) poll it, so cooperative
    cancellation rides the existing budget plumbing at the cost of one
    extra atomic load per gate.  Deadlines are stamped against the
    monotonic clock ({!Nncs_obs.Clock}), immune to NTP steps. *)

type limits = {
  deadline_s : float option;
      (** wall-clock seconds allowed from {!start}; a non-positive value
          is already expired *)
  max_ode_steps : int option;
      (** total validated-integration sub-steps across the whole item *)
  max_symstates : int option;
      (** cap on the symbolic-state count per control step *)
}

val unlimited : limits
(** All limits off: checks never fire. *)

val is_unlimited : limits -> bool

type t

exception Exhausted of Failure.budget_kind

val start : ?cancel:Cancel.t -> limits -> t
(** Stamp the deadline now (monotonic clock); counters start at zero.
    [cancel] (default {!Cancel.never}) is polled by every
    {!check_deadline} / {!add_ode_steps} gate, which raise
    [Cancel.Cancelled] once it is tripped. *)

val none : t
(** The no-op budget (all checks pass); shared, never exhausts. *)

val check_deadline : t -> unit
(** Raises [Cancel.Cancelled] if the cancel token is tripped, else
    [Exhausted Deadline] once the clock passes the stamp. *)

val expired : t -> bool
(** Non-raising probe: has the deadline passed, or the cancel token
    tripped?  Always [false] for deadline-less uncancellable budgets.
    Schedulers use it to fast-track work items whose budget is already
    gone. *)

val add_ode_steps : t -> int -> unit
(** Account [n] integrator sub-steps; raises [Cancel.Cancelled] if the
    token is tripped, else [Exhausted Ode_steps] when the running total
    crosses the cap. *)

val check_symstates : t -> int -> unit
(** Raises [Exhausted Symbolic_states] when [n] exceeds the cap. *)

val cancel_token : t -> Cancel.t
(** The token this budget polls ({!Cancel.never} unless one was passed
    to {!start}). *)
