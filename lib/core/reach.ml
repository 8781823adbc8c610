module B = Nncs_interval.Box
module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics
module Budget = Nncs_resilience.Budget
module Failure_ = Nncs_resilience.Failure

(* observability instruments (process-wide, see DESIGN.md "Observability") *)
let m_steps = Metrics.counter "reach.steps"
let m_joins = Metrics.counter "reach.joins"
let h_states_after_resize = Metrics.histogram "reach.states_after_resize"

type config = {
  integration_steps : int;
  taylor_order : int;
  scheme : Nncs_ode.Simulate.scheme;
  gamma : int;
  early_abort : bool;
  keep_sets : bool;
  abs_cache : Nncs_nnabs.Cache.config option;
}

let default_config =
  {
    integration_steps = 10;
    taylor_order = 6;
    scheme = Nncs_ode.Simulate.Direct;
    gamma = 5;
    early_abort = true;
    keep_sets = true;
    abs_cache = None;
  }

type step_record = {
  step : int;
  states_before_resize : int;
  states_after_resize : int;
  flow : Symset.t;
  next : Symset.t;
}

type outcome =
  | Proved_safe
  | Reached_error of { step : int }
  | Horizon_exhausted

type result = {
  outcome : outcome;
  terminated_at : int option;
  steps : step_record list;
  max_states : int;
  total_joins : int;
}

let is_proved_safe r = r.outcome = Proved_safe

exception Error_contact of int

let analyze ?(config = default_config) ?(budget = Budget.none) ?abstract sys r0
    =
  if config.integration_steps <= 0 then
    invalid_arg "Reach.analyze: non-positive integration_steps";
  let ctrl = sys.System.controller in
  let plant = sys.System.plant in
  (* the F# memo table is process-wide and sharded: worker domains of
     the parallel driver share it (per-shard locks), and a resident
     multi-query server keeps it warm across successive jobs *)
  let cache = Option.map Nncs_nnabs.Cache.shared config.abs_cache in
  (* the controller-abstraction hook, for callers that time or record
     queries; it receives the *current* controller, so the degradation
     ladder's domain swap still reaches the override *)
  let abstract_step =
    match abstract with
    | Some f -> fun ~box ~prev_cmd -> f ctrl ~box ~prev_cmd
    | None -> fun ~box ~prev_cmd -> Controller.abstract_step ?cache ctrl ~box ~prev_cmd
  in
  let num_commands = Command.size ctrl.Controller.commands in
  let period = ctrl.Controller.period in
  let q = sys.System.horizon_steps in
  let steps = ref [] in
  let max_states = ref (Symset.length r0) in
  let total_joins = ref 0 in
  let error_step = ref None in
  let touch_error j st =
    if sys.System.erroneous.Spec.intersects_box st then begin
      if !error_step = None then error_step := Some j;
      if config.early_abort then raise (Error_contact j)
    end
  in
  (* one control step: from R_j build (R_[j[, R_(j+1)) *)
  let control_step j rj =
    Nncs_resilience.Fault.trigger "reach.step";
    (* budget gates: checked once per control step so an exhausted cell
       degrades within one step's work (Budget.Exhausted propagates to
       the caller's firewall, not to [finish]) *)
    Budget.check_deadline budget;
    Budget.check_symstates budget (Symset.length rj);
    let before = Symset.length rj in
    let rj =
      Span.with_ "reach.resize"
        ~attrs:[ ("step", Nncs_obs.Trace.Int j); ("states", Int before) ]
        (fun () -> Resize.resize ~num_commands ~gamma:config.gamma rj)
    in
    let after = Symset.length rj in
    total_joins := !total_joins + (before - after);
    Metrics.incr m_steps;
    Metrics.add m_joins (before - after);
    Metrics.observe h_states_after_resize (float_of_int after);
    let active =
      Symset.filter (fun st -> not (sys.System.target.Spec.contains_box st)) rj
    in
    Budget.add_ode_steps budget (config.integration_steps * Symset.length active);
    let flow = ref Symset.empty and next = ref Symset.empty in
    List.iter
      (fun st ->
        let u_box = Command.value_box ctrl.Controller.commands st.Symstate.cmd in
        let sim =
          Span.with_ "reach.simulate"
            ~attrs:[ ("step", Nncs_obs.Trace.Int j) ]
            (fun () ->
              Nncs_ode.Simulate.simulate ~scheme:config.scheme plant
                ~t0:((float_of_int j *. period)
                     [@lint.fp_exact
                       "step-time label: dynamics are enclosed per step \
                        from exact float endpoints"])
                ~period ~steps:config.integration_steps
                ~order:config.taylor_order ~state:st.Symstate.box
                ~inputs:u_box)
        in
        (* R_[j[ : every sub-step enclosure, carrying the current command *)
        Array.iter
          (fun piece ->
            let fst_ = Symstate.make piece st.Symstate.cmd in
            touch_error j fst_;
            flow := Symset.add fst_ !flow)
          sim.Nncs_ode.Simulate.pieces;
        (* R_(j+1) : endpoint box paired with each reachable command *)
        let cmds =
          Span.with_ "reach.abstract"
            ~attrs:[ ("step", Nncs_obs.Trace.Int j) ]
            (fun () ->
              abstract_step ~box:st.Symstate.box ~prev_cmd:st.Symstate.cmd)
        in
        List.iter
          (fun c ->
            let nst = Symstate.make sim.Nncs_ode.Simulate.endpoint c in
            touch_error j nst;
            next := Symset.add nst !next)
          cmds)
      active;
    (after, before, !flow, !next)
  in
  let record j before after flow next =
    max_states := max !max_states (max before (Symset.length next));
    steps :=
      {
        step = j;
        states_before_resize = before;
        states_after_resize = after;
        flow = (if config.keep_sets then flow else Symset.empty);
        next = (if config.keep_sets then next else Symset.empty);
      }
      :: !steps
  in
  let finish outcome terminated_at =
    let outcome =
      match (!error_step, outcome) with
      | Some j, _ -> Reached_error { step = j }
      | None, o -> o
    in
    {
      outcome;
      terminated_at;
      steps = List.rev !steps;
      max_states = !max_states;
      total_joins = !total_joins;
    }
  in
  let rec loop j rj =
    if
      Span.with_ "reach.check"
        ~attrs:[ ("step", Nncs_obs.Trace.Int j) ]
        (fun () ->
          Symset.for_all (fun st -> sys.System.target.Spec.contains_box st) rj)
    then
      (* no more symbolic states to propagate: C terminated *)
      finish Proved_safe (Some j)
    else if j >= q then finish Horizon_exhausted None
    else begin
      let after, before, flow, next =
        Span.with_ "reach.step"
          ~attrs:
            [ ("step", Nncs_obs.Trace.Int j); ("states", Int (Symset.length rj)) ]
          (fun () -> control_step j rj)
      in
      record j before after flow next;
      loop (j + 1) next
    end
  in
  try loop 0 r0 with Error_contact j -> finish (Reached_error { step = j }) None

let classify = function
  | Nncs_ode.Apriori.Enclosure_failure msg ->
      Some (Failure_.Enclosure_diverged msg)
  | Nncs_interval.Interval.Numeric_error msg -> Some (Failure_.Numeric msg)
  | Nncs_interval.Interval.Empty_meet ->
      Some (Failure_.Numeric "empty interval meet")
  | Nncs_interval.Interval.Division_by_zero_interval ->
      Some (Failure_.Numeric "interval division by zero")
  | _ -> None

type verdict = (result, Failure_.t) Stdlib.result

let run ?config ?budget ?abstract sys r0 =
  Nncs_resilience.Firewall.protect ~classify (fun () ->
      try analyze ?config ?budget ?abstract sys r0
      with Error_contact j ->
        (* boundary safety net: an early-abort contact that escaped the
           in-analysis handler is still a definite not-proved verdict,
           never a raw exception at this interface *)
        {
          outcome = Reached_error { step = j };
          terminated_at = None;
          steps = [];
          max_states = 0;
          total_joins = 0;
        })
