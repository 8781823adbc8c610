module B = Nncs_interval.Box

type system = {
  dim : int;
  input_dim : int;
  rhs : Expr.t array;
  jacobian : Expr.t array array;
  tape : Series.tape;
  jacobian_tape : Series.tape;
}

let make ~dim ~input_dim rhs =
  if Array.length rhs <> dim then
    invalid_arg "Ode.make: number of expressions must equal dim";
  Array.iter
    (fun e ->
      if Expr.max_state_index e >= dim then
        invalid_arg "Ode.make: state index out of range";
      if Expr.max_input_index e >= input_dim then
        invalid_arg "Ode.make: input index out of range")
    rhs;
  let jacobian = Array.map (fun e -> Array.init dim (Expr.diff e)) rhs in
  {
    dim;
    input_dim;
    rhs;
    jacobian;
    tape = Series.compile rhs;
    jacobian_tape = Series.compile (Array.concat (Array.to_list jacobian));
  }

let eval_rhs sys ~time ~state ~inputs =
  Array.map (fun e -> Expr.eval e ~time ~state ~inputs) sys.rhs

let eval_rhs_interval sys ~time ~state ~inputs =
  B.of_intervals
    (Array.map (fun e -> Expr.eval_interval e ~time ~state ~inputs) sys.rhs)

let rk4_step sys ~time ~state ~inputs ~h =
  let n = sys.dim in
  let combine c k =
    Array.init n (fun i -> state.(i) +. (c *. k.(i)))
  in
  let k1 = eval_rhs sys ~time ~state ~inputs in
  let k2 =
    eval_rhs sys ~time:(time +. (0.5 *. h)) ~state:(combine (0.5 *. h) k1) ~inputs
  in
  let k3 =
    eval_rhs sys ~time:(time +. (0.5 *. h)) ~state:(combine (0.5 *. h) k2) ~inputs
  in
  let k4 = eval_rhs sys ~time:(time +. h) ~state:(combine h k3) ~inputs in
  Array.init n (fun i ->
      state.(i)
      +. (h /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))
[@@lint.fp_exact "non-rigorous RK4 reference integrator: simulation plots and falsification only, never part of a proof"]

let rk4_flow sys ~time ~state ~inputs ~duration ~steps =
  if steps <= 0 then invalid_arg "Ode.rk4_flow: steps must be positive";
  let h = duration /. float_of_int steps in
  let s = ref (Array.copy state) in
  for i = 0 to steps - 1 do
    s := rk4_step sys ~time:(time +. (float_of_int i *. h)) ~state:!s ~inputs ~h
  done;
  !s
[@@lint.fp_exact "non-rigorous RK4 reference integrator: simulation plots and falsification only, never part of a proof"]
