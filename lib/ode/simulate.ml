module B = Nncs_interval.Box
module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics

let m_substeps = Metrics.counter "ode.substeps"

type scheme = Direct | Lohner

let scheme_to_string = function Direct -> "direct" | Lohner -> "lohner"

let scheme_of_string = function
  | "direct" -> Direct
  | "lohner" -> Lohner
  | s -> invalid_arg (Printf.sprintf "Simulate.scheme_of_string: unknown %S" s)

type result = { pieces : B.t array; range : B.t; endpoint : B.t }

let simulate_direct sys ~t0 ~period ~steps ~order ~state ~inputs =
  let h =
    (period /. float_of_int steps)
    [@lint.fp_exact
      "sub-step grid choice: each step is rigorously enclosed from its \
       exact float t1 and h, so grid rounding only relabels time"]
  in
  let pieces = Array.make steps state in
  let current = ref state in
  for i = 0 to steps - 1 do
    let t1 =
      (t0 +. (float_of_int i *. h))
      [@lint.fp_exact "grid time label; the step encloses from this exact float"]
    in
    let { Onestep.range; endpoint } =
      Onestep.step sys ~order ~t1 ~h ~state:!current ~inputs
    in
    pieces.(i) <- range;
    current := endpoint
  done;
  let range = Array.fold_left B.hull pieces.(0) pieces in
  { pieces; range; endpoint = !current }

let simulate_lohner sys ~t0 ~period ~steps ~order ~state ~inputs =
  let h =
    (period /. float_of_int steps)
    [@lint.fp_exact "sub-step grid choice, as in simulate_direct"]
  in
  let pieces = Array.make steps state in
  let current = ref (Lohner.init state) in
  for i = 0 to steps - 1 do
    let t1 =
      (t0 +. (float_of_int i *. h))
      [@lint.fp_exact "grid time label; the step encloses from this exact float"]
    in
    let { Lohner.next; range } =
      Lohner.step sys ~order ~t1 ~h ~inputs !current
    in
    pieces.(i) <- range;
    current := next
  done;
  let range = Array.fold_left B.hull pieces.(0) pieces in
  { pieces; range; endpoint = Lohner.hull !current }

let simulate ?(scheme = Direct) sys ~t0 ~period ~steps ~order ~state ~inputs =
  if steps <= 0 then invalid_arg "Simulate.simulate: steps must be positive";
  if period <= 0.0 then invalid_arg "Simulate.simulate: period must be positive";
  Nncs_resilience.Fault.trigger "ode.simulate";
  Metrics.add m_substeps steps;
  Span.with_ "ode.simulate"
    ~attrs:
      [
        ("steps", Nncs_obs.Trace.Int steps);
        ("scheme", Str (scheme_to_string scheme));
      ]
    (fun () ->
      match scheme with
      | Direct -> simulate_direct sys ~t0 ~period ~steps ~order ~state ~inputs
      | Lohner -> simulate_lohner sys ~t0 ~period ~steps ~order ~state ~inputs)
