(** Algorithm 3: reachability analysis of the closed-loop system.

    Iterates the controller steps; for each symbolic state the plant flow
    is over-approximated by validated simulation (Algorithm 1) and the
    controller by abstract interpretation; the set of symbolic states is
    kept below Gamma by Algorithm 2.  The verdict is [Proved_safe] only
    when the reachable over-approximation avoids E {e and} the system
    provably terminates in T within the horizon (the conjunction returned
    by Algorithm 3). *)

type config = {
  integration_steps : int;  (** M of Algorithm 1 *)
  taylor_order : int;  (** order of the validated integrator *)
  scheme : Nncs_ode.Simulate.scheme;
      (** validated-integration scheme (direct Taylor or Loehner) *)
  gamma : int;  (** Gamma of Algorithm 2 *)
  early_abort : bool;  (** stop at the first contact with E *)
  keep_sets : bool;  (** retain per-step symbolic sets in the result *)
  abs_cache : Nncs_nnabs.Cache.config option;
      (** memoize F# per worker domain (see {!Nncs_nnabs.Cache}); [None]
          leaves the controller abstraction bitwise-unchanged *)
}

val default_config : config
(** M = 10 and Gamma = P = 5 (the paper's experimental setup), Taylor
    order 6, direct scheme, early abort, sets kept, no F# cache. *)

type step_record = {
  step : int;  (** j *)
  states_before_resize : int;
  states_after_resize : int;
  flow : Symset.t;  (** R_[j[ (empty when [keep_sets] is false) *)
  next : Symset.t;  (** R_(j+1) (empty when [keep_sets] is false) *)
}

type outcome =
  | Proved_safe  (** no contact with E and termination proved *)
  | Reached_error of { step : int }
      (** the over-approximation touches E during control step [step] —
          the system is {e not proved} safe (it may still be safe) *)
  | Horizon_exhausted
      (** no contact with E but termination within tau not established *)

type result = {
  outcome : outcome;
  terminated_at : int option;  (** j_end when termination was detected *)
  steps : step_record list;  (** chronological *)
  max_states : int;  (** peak size of R_j *)
  total_joins : int;  (** joins performed by Algorithm 2 overall *)
}

val is_proved_safe : result -> bool

exception Error_contact of int
(** Internal early-abort signal of the [early_abort] path.  It is
    handled inside {!analyze} (and, as a safety net, mapped to a
    [Reached_error] result by {!run}); it must never escape this
    module's API. *)

val analyze :
  ?config:config ->
  ?budget:Nncs_resilience.Budget.t ->
  ?abstract:
    (Controller.t -> box:Nncs_interval.Box.t -> prev_cmd:int -> int list) ->
  System.t ->
  Symset.t ->
  result
(** [analyze system r0] with [r0] the symbolic set enclosing the initial
    states.  May raise {!Nncs_ode.Apriori.Enclosure_failure} if the
    validated integrator cannot enclose the flow (step too large),
    [Nncs_resilience.Budget.Exhausted] when the [budget] runs out
    (checked once per control step), or
    [Nncs_interval.Interval.Numeric_error] on numeric garbage.  Callers
    that must not die use {!run}.

    [abstract] overrides the controller-abstraction call of every
    control step (default
    [Controller.abstract_step ?cache sys.controller]): the hook for
    callers that time or record the F# queries of a run.
    The override receives the system's {e current} controller — under
    the degradation ladder's interval rung, the domain-swapped one — and
    must be semantically identical to the default for verdicts to be
    preserved.  When [abstract] is given, [config.abs_cache] is the
    override's responsibility. *)

type verdict = (result, Nncs_resilience.Failure.t) Stdlib.result

val classify : exn -> Nncs_resilience.Failure.t option
(** Map the analysis-domain exceptions (enclosure failure, numeric
    errors) to their failure reasons; [None] for anything unrecognised
    (the firewall then reports [Worker_crashed]). *)

val run :
  ?config:config ->
  ?budget:Nncs_resilience.Budget.t ->
  ?abstract:
    (Controller.t -> box:Nncs_interval.Box.t -> prev_cmd:int -> int list) ->
  System.t ->
  Symset.t ->
  verdict
(** The non-raising boundary: {!analyze} behind a
    [Nncs_resilience.Firewall] with {!classify}.  Every analysis-domain
    exception — including a leaked {!Error_contact}, which becomes a
    [Reached_error] result — returns as data. *)
