module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding

type result = { range : B.t; endpoint : B.t }

let step sys ~order ~t1 ~h ~state ~inputs =
  if order < 1 then invalid_arg "Onestep.step: order must be >= 1";
  let prior = Apriori.enclosure sys ~t1 ~h ~state ~inputs in
  (* Coefficients 0..K-1 from the initial box at t = t1; coefficient K
     (Lagrange remainder) from the a-priori box over the step.  Degree n
     of a solution does not depend on the order it is solved to, and
     every check that can raise runs at degree 0, so solving the first
     series to K-1 gives the same coefficients and exceptions for one
     pass less. *)
  let zs =
    Series.solution_coeffs sys.Ode.tape ~order:(max 1 (order - 1))
      ~time:(I.of_float t1) ~state ~inputs
  in
  let zr =
    Series.solution_coeffs sys.Ode.tape ~order
      ~time:(I.make t1 (R.add_up t1 h))
      ~state:prior ~inputs
  in
  let expand d =
    B.of_intervals
      (Array.init sys.Ode.dim (fun i ->
           let coeffs =
             Array.init (order + 1) (fun k ->
                 if k < order then zs.(i).(k) else zr.(i).(k))
           in
           Series.horner coeffs d))
  in
  let endpoint = expand (I.of_float h) in
  let range_raw = expand (I.make 0.0 h) in
  (* The a-priori box is itself an enclosure over the step; meeting the
     two keeps whichever is tighter per dimension. *)
  let range =
    match B.meet range_raw prior with Some m -> m | None -> range_raw
  in
  { range; endpoint }
