(* Validated integration: enclosures must contain the true flow (known
   analytically for decay/oscillator, sampled by high-accuracy RK4 for
   nonlinear systems), and tighten as the order/number of steps grows. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Ode = Nncs_ode.Ode
module Onestep = Nncs_ode.Onestep
module Simulate = Nncs_ode.Simulate
module Apriori = Nncs_ode.Apriori

let check = Alcotest.(check bool)
let no_inputs = B.of_point [| 0.0 |]

(* s' = -s, solution s0 * exp(-t) *)
let decay = Ode.make ~dim:1 ~input_dim:1 [| E.(neg (state 0)) |]

(* harmonic oscillator: x' = y, y' = -x; solution rotates on a circle *)
let oscillator =
  Ode.make ~dim:2 ~input_dim:1 [| E.(state 1); E.(neg (state 0)) |]

(* controlled integrator: x' = u *)
let integrator = Ode.make ~dim:1 ~input_dim:1 [| E.(input 0) |]

(* Van der Pol: nonlinear, classic validated-integration stress test *)
let vanderpol =
  Ode.make ~dim:2 ~input_dim:1
    [|
      E.(state 1);
      E.((const 1.0 - sqr (state 0)) * state 1 - state 0);
    |]

let test_expr_eval () =
  let e = E.(sin (state 0) + (const 2.0 * input 0) - time) in
  let v = E.eval e ~time:1.0 ~state:[| 0.5 |] ~inputs:[| 3.0 |] in
  Alcotest.(check (float 1e-12)) "concrete eval" (Float.sin 0.5 +. 6.0 -. 1.0) v;
  let iv =
    E.eval_interval e ~time:(I.of_float 1.0)
      ~state:(B.of_bounds [| (0.4, 0.6) |])
      ~inputs:(B.of_point [| 3.0 |])
  in
  check "interval eval contains concrete" true (I.contains iv v)

let test_expr_validation () =
  Alcotest.check_raises "bad state index"
    (Invalid_argument "Ode.make: state index out of range") (fun () ->
      ignore (Ode.make ~dim:1 ~input_dim:1 [| E.state 3 |]));
  (* Ode.make differentiates eagerly: a raw zeroth power must not raise *)
  let sys = Ode.make ~dim:1 ~input_dim:1 [| E.Pow (E.state 0, 0) |] in
  check "d(s^0)/ds = 0" true
    (Float.equal
       (E.eval sys.Ode.jacobian.(0).(0) ~time:0.0 ~state:[| 2.0 |] ~inputs:[| 0.0 |])
       0.0)

let test_rk4_decay () =
  let s = Ode.rk4_flow decay ~time:0.0 ~state:[| 1.0 |] ~inputs:[| 0.0 |] ~duration:1.0 ~steps:100 in
  check "rk4 close to exp(-1)" true (Float.abs (s.(0) -. Float.exp (-1.0)) < 1e-8)

let test_apriori_contains_flow () =
  let state = B.of_bounds [| (0.9, 1.1) |] in
  let b = Apriori.enclosure decay ~t1:0.0 ~h:0.2 ~state ~inputs:no_inputs in
  (* true flow from any s0 in [0.9,1.1] stays within [0.9*e^-0.2, 1.1] *)
  List.iter
    (fun s0 ->
      List.iter
        (fun t ->
          let v = s0 *. Float.exp (-.t) in
          check "apriori contains sample" true (I.contains (B.get b 0) v))
        [ 0.0; 0.05; 0.1; 0.15; 0.2 ])
    [ 0.9; 1.0; 1.1 ]

let test_onestep_decay () =
  let state = B.of_bounds [| (1.0, 1.0) |] in
  let r = Onestep.step decay ~order:6 ~t1:0.0 ~h:0.1 ~state ~inputs:no_inputs in
  let exact = Float.exp (-0.1) in
  check "endpoint contains exact" true (I.contains (B.get r.endpoint 0) exact);
  check "endpoint tight" true (I.width (B.get r.endpoint 0) < 1e-9);
  check "range contains initial" true (I.contains (B.get r.range 0) 1.0);
  check "range contains endpoint" true (I.contains (B.get r.range 0) exact)

let test_onestep_oscillator () =
  let state = B.of_point [| 1.0; 0.0 |] in
  let r =
    Onestep.step oscillator ~order:8 ~t1:0.0 ~h:0.1 ~state ~inputs:no_inputs
  in
  check "x endpoint" true (I.contains (B.get r.endpoint 0) (Float.cos 0.1));
  check "y endpoint" true (I.contains (B.get r.endpoint 1) (-.Float.sin 0.1));
  check "tight" true (I.width (B.get r.endpoint 0) < 1e-10)

let test_simulate_oscillator_full_turn () =
  (* quarter turn in 10 steps: endpoint near (0, -1) *)
  let state = B.of_bounds [| (0.99, 1.01); (-0.01, 0.01) |] in
  let r =
    Simulate.simulate oscillator ~t0:0.0 ~period:(Float.pi /. 2.0) ~steps:20
      ~order:8 ~state ~inputs:no_inputs
  in
  (* each true trajectory: (cos t * x0 + sin t * y0, -sin t * x0 + cos t * y0) *)
  List.iter
    (fun (x0, y0) ->
      let t = Float.pi /. 2.0 in
      let xf = (Float.cos t *. x0) +. (Float.sin t *. y0) in
      let yf = (-.Float.sin t *. x0) +. (Float.cos t *. y0) in
      check "endpoint contains flow" true
        (I.contains (B.get r.endpoint 0) xf && I.contains (B.get r.endpoint 1) yf))
    [ (0.99, -0.01); (1.01, 0.01); (1.0, 0.0) ];
  (* wrapping stays moderate: initial width 0.02 should not balloon *)
  check "width controlled" true (I.width (B.get r.endpoint 0) < 0.1)

let test_simulate_integrator_command () =
  (* x' = u with u = 2: from [0,0.1] reach [0.2, 0.3] after 0.1s *)
  let state = B.of_bounds [| (0.0, 0.1) |] in
  let r =
    Simulate.simulate integrator ~t0:0.0 ~period:0.1 ~steps:4 ~order:3 ~state
      ~inputs:(B.of_point [| 2.0 |])
  in
  check "endpoint lo" true (Float.abs (I.lo (B.get r.endpoint 0) -. 0.2) < 1e-9);
  check "endpoint hi" true (Float.abs (I.hi (B.get r.endpoint 0) -. 0.3) < 1e-9);
  check "range spans whole motion" true
    (I.contains (B.get r.range 0) 0.0 && I.contains (B.get r.range 0) 0.3)

let test_more_steps_tighter () =
  let state = B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |] in
  let width_with steps =
    let r =
      Simulate.simulate vanderpol ~t0:0.0 ~period:0.5 ~steps ~order:6 ~state
        ~inputs:no_inputs
    in
    B.max_width r.range
  in
  let w1 = width_with 1 and w10 = width_with 10 in
  check "M=10 tighter than M=1 (Fig 7)" true (w10 < w1)

let test_vanderpol_contains_rk4 () =
  let state = B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |] in
  let r =
    Simulate.simulate vanderpol ~t0:0.0 ~period:0.5 ~steps:10 ~order:6 ~state
      ~inputs:no_inputs
  in
  (* sample 9 initial conditions, integrate accurately, check containment *)
  List.iter
    (fun x0 ->
      List.iter
        (fun y0 ->
          let s =
            Ode.rk4_flow vanderpol ~time:0.0 ~state:[| x0; y0 |]
              ~inputs:[| 0.0 |] ~duration:0.5 ~steps:2000
          in
          check "endpoint contains rk4 sample" true (B.contains r.endpoint s))
        [ 0.0; 0.05; 0.1 ])
    [ 1.2; 1.25; 1.3 ]

(* qcheck: random linear 2x2 systems — endpoint encloses matrix-exponential
   flow sampled by fine RK4 *)

let arb_linear_case =
  QCheck.make
    ~print:(fun (a, b, c, d, x0, y0) ->
      Printf.sprintf "A=[[%g;%g];[%g;%g]] x0=(%g,%g)" a b c d x0 y0)
    QCheck.Gen.(
      let* a = float_range (-2.0) 2.0 in
      let* b = float_range (-2.0) 2.0 in
      let* c = float_range (-2.0) 2.0 in
      let* d = float_range (-2.0) 2.0 in
      let* x0 = float_range (-1.0) 1.0 in
      let* y0 = float_range (-1.0) 1.0 in
      return (a, b, c, d, x0, y0))

let prop_linear_sound =
  QCheck.Test.make ~count:100 ~name:"linear system endpoint sound"
    arb_linear_case (fun (a, b, c, d, x0, y0) ->
      let sys =
        Ode.make ~dim:2 ~input_dim:1
          E.
            [|
              scale a (state 0) + scale b (state 1);
              scale c (state 0) + scale d (state 1);
            |]
      in
      let state = B.of_point [| x0; y0 |] in
      let r =
        Simulate.simulate sys ~t0:0.0 ~period:0.2 ~steps:4 ~order:6 ~state
          ~inputs:no_inputs
      in
      let s =
        Ode.rk4_flow sys ~time:0.0 ~state:[| x0; y0 |] ~inputs:[| 0.0 |]
          ~duration:0.2 ~steps:1000
      in
      (* rk4 is not exact: allow its own tiny error when checking *)
      let slack = 1e-7 in
      let within i v =
        I.lo (B.get r.endpoint i) -. slack <= v
        && v <= I.hi (B.get r.endpoint i) +. slack
      in
      within 0 s.(0) && within 1 s.(1))

let main_tests =
  [
      ( "expr",
        [
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
          Alcotest.test_case "validation" `Quick test_expr_validation;
        ] );
      ( "concrete",
        [ Alcotest.test_case "rk4 decay" `Quick test_rk4_decay ] );
      ( "validated",
        [
          Alcotest.test_case "apriori contains flow" `Quick
            test_apriori_contains_flow;
          Alcotest.test_case "onestep decay" `Quick test_onestep_decay;
          Alcotest.test_case "onestep oscillator" `Quick
            test_onestep_oscillator;
          Alcotest.test_case "simulate quarter turn" `Quick
            test_simulate_oscillator_full_turn;
          Alcotest.test_case "simulate with command" `Quick
            test_simulate_integrator_command;
          Alcotest.test_case "more steps tighter (Fig 7)" `Quick
            test_more_steps_tighter;
          Alcotest.test_case "van der pol contains rk4" `Quick
            test_vanderpol_contains_rk4;
        ] );
      ( "ode-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_linear_sound ] );
    ]

(* ----- appended: symbolic differentiation, QR, interval matrices and
   the Loehner mean-value integrator ----- *)

module Mat = Nncs_linalg.Mat
module Qr = Nncs_linalg.Qr
module IM = Nncs_interval.Interval_matrix
module Lohner = Nncs_ode.Lohner
module Rng = Nncs_linalg.Rng

let arb_small_state =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
    QCheck.Gen.(
      let* a = float_range (-2.0) 2.0 in
      let* b = float_range (-2.0) 2.0 in
      return (a, b))

(* an expression exercising every constructor with a well-defined
   derivative on the sampled domain *)
let diff_test_expr =
  E.(
    sin (state 0)
    + (cos (state 1) * state 0)
    - exp (scale 0.3 (state 1))
    + sqrt (const 4.0 + sqr (state 0))
    + atan (state 1)
    + pow (state 0) 3
    + (state 0 / (const 3.0 + sqr (state 1))))

let prop_diff_matches_finite_difference =
  QCheck.Test.make ~count:300 ~name:"symbolic diff matches finite differences"
    arb_small_state (fun (a, b) ->
      let eval e s0 s1 =
        E.eval e ~time:0.0 ~state:[| s0; s1 |] ~inputs:[| 0.0 |]
      in
      let eps = 1e-6 in
      let ok dim =
        let d = E.diff diff_test_expr dim in
        let sym = eval d a b in
        let fd =
          if dim = 0 then (eval diff_test_expr (a +. eps) b -. eval diff_test_expr (a -. eps) b) /. (2.0 *. eps)
          else (eval diff_test_expr a (b +. eps) -. eval diff_test_expr a (b -. eps)) /. (2.0 *. eps)
        in
        Float.abs (sym -. fd) < 1e-4 *. (1.0 +. Float.abs sym)
      in
      ok 0 && ok 1)

let test_qr_orthogonal () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 4 in
    let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
    let q, r = Qr.decompose a in
    (* q * r = a *)
    let qr = Mat.mul q r in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check "qr reconstructs" true (Float.abs (Mat.get qr i j -. Mat.get a i j) < 1e-9);
        (* r upper triangular *)
        if i > j then check "r triangular" true (Float.abs (Mat.get r i j) < 1e-9)
      done
    done;
    (* q orthogonal *)
    let qtq = Mat.mul (Mat.transpose q) q in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let expected = if i = j then 1.0 else 0.0 in
        check "q orthogonal" true (Float.abs (Mat.get qtq i j -. expected) < 1e-9)
      done
    done
  done

let test_interval_matrix_ops () =
  let a = IM.of_floats [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = IM.of_floats [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = IM.mul a b in
  check "product entry" true (I.contains (IM.get c 0 0) 2.0);
  check "product entry'" true (I.contains (IM.get c 1 1) 3.0);
  let v = IM.mul_vec a [| I.make 0.0 1.0; I.of_float 1.0 |] in
  (* row 1: [1,2]*... = [0,1]*1 + 2 = [2,3] *)
  check "mat-vec" true (I.lo v.(0) <= 2.0 +. 1e-12 && I.hi v.(0) >= 3.0 -. 1e-12);
  check "contains member" true (IM.contains a [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |])

let test_lohner_beats_direct_on_rotation () =
  let state = B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |] in
  let run scheme =
    Simulate.simulate ~scheme oscillator ~t0:0.0 ~period:(4.0 *. Float.pi)
      ~steps:100 ~order:8 ~state ~inputs:no_inputs
  in
  let direct = run Simulate.Direct and lohner = run Simulate.Lohner in
  (* after two full turns the set returns to itself: width 0.2 exactly *)
  check "lohner near optimal" true (B.max_width lohner.Simulate.endpoint < 0.21);
  check "direct wraps badly" true
    (B.max_width direct.Simulate.endpoint > 10.0 *. B.max_width lohner.Simulate.endpoint);
  (* soundness of the lohner endpoint: rotated corners inside *)
  let t = 4.0 *. Float.pi in
  List.iter
    (fun (x0, y0) ->
      let xf = (Float.cos t *. x0) +. (Float.sin t *. y0) in
      let yf = (-.Float.sin t *. x0) +. (Float.cos t *. y0) in
      check "lohner endpoint sound" true (B.contains lohner.Simulate.endpoint [| xf; yf |]))
    [ (0.9, -0.1); (0.9, 0.1); (1.1, -0.1); (1.1, 0.1); (1.0, 0.0) ]

let test_lohner_sound_nonlinear () =
  (* van der pol again, but through the lohner scheme *)
  let state = B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |] in
  let r =
    Simulate.simulate ~scheme:Simulate.Lohner vanderpol ~t0:0.0 ~period:0.5
      ~steps:10 ~order:6 ~state ~inputs:no_inputs
  in
  List.iter
    (fun x0 ->
      List.iter
        (fun y0 ->
          let s =
            Ode.rk4_flow vanderpol ~time:0.0 ~state:[| x0; y0 |]
              ~inputs:[| 0.0 |] ~duration:0.5 ~steps:2000
          in
          check "lohner endpoint contains rk4 sample" true (B.contains r.Simulate.endpoint s))
        [ 0.0; 0.05; 0.1 ])
    [ 1.2; 1.25; 1.3 ]

let test_jacobian_enclosure_linear () =
  (* for z' = A z the flow jacobian is exp(A h), independent of z *)
  let sys = Ode.make ~dim:2 ~input_dim:1 E.[| state 1; neg (state 0) |] in
  let j =
    Lohner.jacobian_enclosure sys ~order:8 ~t1:0.0 ~h:0.3
      ~inputs:no_inputs
      (B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |])
  in
  (* exp of the rotation generator: [[cos h, sin h], [-sin h, cos h]] *)
  let h = 0.3 in
  check "J contains rotation matrix" true
    (IM.contains j
       [| [| Float.cos h; Float.sin h |]; [| -.Float.sin h; Float.cos h |] |]);
  check "J tight" true (IM.width j < 1e-6)

(* ----- the Taylor-mode tape against the recursive full-series
   evaluator it replaced ----- *)

module Series = Nncs_ode.Series

(* Reference: every call computes the full series 0..K of a node, and
   [solution_coeffs] re-evaluates the whole right-hand side on each of
   its K passes. *)
module Ref = struct
  let order s = Array.length s - 1
  let const k c = Array.init (k + 1) (fun i -> if i = 0 then c else I.zero)

  let time_var k t0 =
    Array.init (k + 1) (fun i ->
        if i = 0 then t0 else if i = 1 then I.one else I.zero)

  let add a b = Array.map2 I.add a b
  let sub a b = Array.map2 I.sub a b
  let neg a = Array.map I.neg a

  let mul a b =
    Array.init (order a + 1) (fun n ->
        let acc = ref I.zero in
        for j = 0 to n do
          acc := I.add !acc (I.mul a.(j) b.(n - j))
        done;
        !acc)

  let sqr a = mul a a

  let div a b =
    let k = order a in
    let q = Array.make (k + 1) I.zero in
    for n = 0 to k do
      let acc = ref a.(n) in
      for j = 0 to n - 1 do
        acc := I.sub !acc (I.mul q.(j) b.(n - j))
      done;
      q.(n) <- I.div !acc b.(0)
    done;
    q

  let sqrt a =
    let k = order a in
    let r = Array.make (k + 1) I.zero in
    r.(0) <- I.sqrt a.(0);
    let two_r0 = I.mul_float 2.0 r.(0) in
    for n = 1 to k do
      let acc = ref a.(n) in
      for j = 1 to n - 1 do
        acc := I.sub !acc (I.mul r.(j) r.(n - j))
      done;
      r.(n) <- I.div !acc two_r0
    done;
    r

  let exp a =
    let k = order a in
    let e = Array.make (k + 1) I.zero in
    e.(0) <- I.exp a.(0);
    for n = 1 to k do
      let acc = ref I.zero in
      for j = 1 to n do
        acc := I.add !acc (I.mul (I.mul_float (float_of_int j) a.(j)) e.(n - j))
      done;
      e.(n) <- I.div !acc (I.of_float (float_of_int n))
    done;
    e

  let sin_cos a =
    let k = order a in
    let s = Array.make (k + 1) I.zero and c = Array.make (k + 1) I.zero in
    s.(0) <- I.sin a.(0);
    c.(0) <- I.cos a.(0);
    for n = 1 to k do
      let sacc = ref I.zero and cacc = ref I.zero in
      for j = 1 to n do
        let ja = I.mul_float (float_of_int j) a.(j) in
        sacc := I.add !sacc (I.mul ja c.(n - j));
        cacc := I.add !cacc (I.mul ja s.(n - j))
      done;
      let n_iv = I.of_float (float_of_int n) in
      s.(n) <- I.div !sacc n_iv;
      c.(n) <- I.neg (I.div !cacc n_iv)
    done;
    (s, c)

  let atan a =
    let k = order a in
    let g = add (const k I.one) (sqr a) in
    let t = Array.make (k + 1) I.zero in
    t.(0) <- I.atan a.(0);
    for n = 1 to k do
      let acc = ref (I.mul_float (float_of_int n) a.(n)) in
      for j = 1 to n - 1 do
        acc := I.sub !acc (I.mul (I.mul_float (float_of_int j) t.(j)) g.(n - j))
      done;
      t.(n) <- I.div !acc (I.mul_float (float_of_int n) g.(0))
    done;
    t

  let pow a n =
    let k = order a in
    let rec go acc base n =
      if n = 0 then acc
      else
        let acc = if n land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (n asr 1)
    in
    if n = 0 then const k I.one else go (const k I.one) a n

  let rec eval_expr e ~time ~state ~inputs =
    let k = order time in
    let ev a = eval_expr a ~time ~state ~inputs in
    match e with
    | E.Const c -> const k (I.of_float c)
    | E.Time -> time
    | E.State i -> state.(i)
    | E.Input i -> const k (B.get inputs i)
    | E.Neg a -> neg (ev a)
    | E.Add (a, b) -> add (ev a) (ev b)
    | E.Sub (a, b) -> sub (ev a) (ev b)
    | E.Mul (a, b) -> mul (ev a) (ev b)
    | E.Div (a, b) -> div (ev a) (ev b)
    | E.Sin a -> fst (sin_cos (ev a))
    | E.Cos a -> snd (sin_cos (ev a))
    | E.Exp a -> exp (ev a)
    | E.Sqrt a -> sqrt (ev a)
    | E.Sqr a -> sqr (ev a)
    | E.Atan a -> atan (ev a)
    | E.Pow (a, n) -> pow (ev a) n

  let solution_coeffs ~rhs ~order:k ~time ~state ~inputs =
    let z = Array.init (Array.length rhs) (fun i -> const k (B.get state i)) in
    let tseries = time_var k time in
    for j = 0 to k - 1 do
      let fs = Array.map (fun e -> eval_expr e ~time:tseries ~state:z ~inputs) rhs in
      Array.iteri
        (fun i f -> z.(i).(j + 1) <- I.div f.(j) (I.of_float (float_of_int (j + 1))))
        fs
    done;
    z

  let eval ~rhs ~order ~time ~state ~inputs =
    Array.map
      (fun e -> eval_expr e ~time:(time_var order time) ~state ~inputs)
      rhs
end

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_series a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> same_bits (I.lo u) (I.lo v) && same_bits (I.hi u) (I.hi v))
              x y)
       a b

(* the tape must raise exactly where the reference raises *)
let same_outcome reference tape =
  match reference () with
  | r -> ( match tape () with t -> same_series r t | exception _ -> false)
  | exception _ -> ( match tape () with _ -> false | exception _ -> true)

type tape_case = {
  rhs : E.t array;
  order : int;
  time : I.t;
  state : B.t;
  inputs : B.t;
  given : I.t array array;  (** series of each state variable *)
}

let gen_interval =
  QCheck.Gen.(
    let* c = float_range (-2.0) 2.0 in
    let* r = oneof [ return 0.0; float_range 0.0 0.5 ] in
    return (I.make (c -. r) (c +. r)))

(* Every constructor, with raw constructors so that no smart constructor
   folds anything away.  Divisors and square-root arguments are mostly
   kept >= 0.5 (0.5 + e^2), and sometimes left free so that raising
   cases occur too. *)
let gen_expr ~dim =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          ( 2,
            map
              (fun c -> E.Const c)
              (oneof [ oneofl [ 0.0; -0.0; 1.0; -1.0; 0.5 ]; float_range (-3.0) 3.0 ])
          );
          (1, return E.Time);
          (3, map (fun i -> E.State i) (int_bound (dim - 1)));
          (1, map (fun i -> E.Input i) (int_bound 1));
        ]
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          let sub = self (depth - 1) in
          let positive = map (fun e -> E.Add (E.Const 0.5, E.Sqr e)) sub in
          frequency
            [
              (2, leaf);
              (1, map (fun a -> E.Neg a) sub);
              (1, map2 (fun a b -> E.Add (a, b)) sub sub);
              (1, map2 (fun a b -> E.Sub (a, b)) sub sub);
              (2, map2 (fun a b -> E.Mul (a, b)) sub sub);
              (2, map2 (fun a b -> E.Div (a, b)) sub positive);
              (1, map2 (fun a b -> E.Div (a, b)) sub sub);
              (1, map (fun a -> E.Sin a) sub);
              (1, map (fun a -> E.Cos a) sub);
              (1, map (fun a -> E.Add (E.Sin a, E.Cos a)) sub);
              (1, map (fun a -> E.Exp (E.Atan a)) sub);
              (2, map (fun a -> E.Sqrt a) positive);
              (1, map (fun a -> E.Sqrt a) sub);
              (1, map (fun a -> E.Sqr a) sub);
              (1, map (fun a -> E.Atan a) sub);
              (1, map2 (fun a n -> E.Pow (a, n)) sub (int_bound 4));
            ])
      4)

let arb_tape_case =
  let gen =
    QCheck.Gen.(
      let* dim = int_range 1 3 in
      let* rhs = array_repeat dim (gen_expr ~dim) in
      let* order = int_range 1 8 in
      let* time =
        oneof
          [
            map I.of_float (float_range 0.0 2.0);
            map (fun t -> I.make t (t +. 0.1)) (float_range 0.0 2.0);
          ]
      in
      let* state = map B.of_intervals (array_repeat dim gen_interval) in
      let* inputs = map B.of_intervals (array_repeat 2 gen_interval) in
      let* given = array_repeat dim (array_repeat (order + 1) gen_interval) in
      return { rhs; order; time; state; inputs; given })
  in
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "order %d, time %a, rhs [%a]" c.order I.pp c.time
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f "; ")
           E.pp)
        (Array.to_list c.rhs))
    gen

let prop_tape_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"tape coefficients bit-identical to the recursive evaluator"
    arb_tape_case (fun c ->
      let tape = Series.compile c.rhs in
      let { order; time; state; inputs; given; _ } = c in
      same_outcome
        (fun () -> Ref.solution_coeffs ~rhs:c.rhs ~order ~time ~state ~inputs)
        (fun () -> Series.solution_coeffs tape ~order ~time ~state ~inputs)
      && same_outcome
           (fun () -> Ref.eval ~rhs:c.rhs ~order ~time ~state:given ~inputs)
           (fun () -> Series.eval tape ~order ~time ~state:given ~inputs))

module D = Nncs_acasxu.Defs

(* the ACAS Xu box of bench E1 and E1b *)
let acas_box =
    B.of_bounds
      [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |]

(* the E1b case: the strong-left command *)
let test_tape_acas_plant () =
  let sys = Nncs_acasxu.Dynamics.plant in
  let state = acas_box in
  let inputs = Nncs.Command.value_box D.commands (D.index D.Strong_left) in
  let jacobian =
    Array.concat
      (Array.to_list
         (Array.map (fun e -> Array.init sys.Ode.dim (E.diff e)) sys.Ode.rhs))
  in
  List.iter
    (fun order ->
      List.iter
        (fun time ->
          let z = Series.solution_coeffs sys.Ode.tape ~order ~time ~state ~inputs in
          check "solve mode bit-identical" true
            (same_series
               (Ref.solution_coeffs ~rhs:sys.Ode.rhs ~order ~time ~state ~inputs)
               z);
          (* the Jacobian entries over the solution series, as the
             Loehner step evaluates them *)
          check "given mode bit-identical" true
            (same_series
               (Ref.eval ~rhs:jacobian ~order ~time ~state:z ~inputs)
               (Series.eval sys.Ode.jacobian_tape ~order ~time ~state:z ~inputs)))
        [ I.of_float 0.0; I.make 0.0 0.1 ])
    [ 6; 8 ]

(* Exact zeros stay exact: the constant speeds have zero derivatives,
   and every higher coefficient of a constant command is zero.  Nudged
   outward, each would be a subnormal interval, and products with those
   take the processor's slow path. *)
let test_acas_series_no_subnormal () =
  let sys = Nncs_acasxu.Dynamics.plant in
  let subnormal v = Float.classify_float v = FP_subnormal in
  for c = 0 to 4 do
    let inputs = Nncs.Command.value_box D.commands c in
    List.iter
      (fun time ->
        let z = Series.solution_coeffs sys.Ode.tape ~order:6 ~time ~state:acas_box ~inputs in
        Array.iteri
          (fun i zi ->
            Array.iteri
              (fun k iv ->
                if subnormal (I.lo iv) || subnormal (I.hi iv) then
                  Alcotest.failf "command %d: coefficient %d of state %d is %a" c k i
                    I.pp iv)
              zi)
          z)
      [ I.of_float 0.0; I.make 0.0 0.1 ]
  done

(* the direct step as it was built on the reference evaluator, with
   both series solved to the full order *)
let ref_onestep sys ~order ~t1 ~h ~state ~inputs =
  let prior = Apriori.enclosure sys ~t1 ~h ~state ~inputs in
  let rhs = sys.Ode.rhs in
  let zs = Ref.solution_coeffs ~rhs ~order ~time:(I.of_float t1) ~state ~inputs in
  let zr =
    Ref.solution_coeffs ~rhs ~order
      ~time:(I.make t1 (Nncs_interval.Rounding.add_up t1 h))
      ~state:prior ~inputs
  in
  let expand d =
    Array.init sys.Ode.dim (fun i ->
        Series.horner
          (Array.init (order + 1) (fun k ->
               if k < order then zs.(i).(k) else zr.(i).(k)))
          d)
  in
  let range = B.of_intervals (expand (I.make 0.0 h)) in
  ( (match B.meet range prior with Some m -> m | None -> range),
    B.of_intervals (expand (I.of_float h)) )

let test_onestep_matches_reference () =
  let cases =
    List.init 5 (fun c ->
        (Nncs_acasxu.Dynamics.plant, acas_box, Nncs.Command.value_box D.commands c))
    @ [ (vanderpol, B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |], no_inputs) ]
  in
  List.iter
    (fun (sys, state, inputs) ->
      List.iter
        (fun order ->
          let r = Onestep.step sys ~order ~t1:0.5 ~h:0.1 ~state ~inputs in
          let range, endpoint = ref_onestep sys ~order ~t1:0.5 ~h:0.1 ~state ~inputs in
          let boxes b = [| B.to_array b |] in
          check "range bit-identical" true (same_series (boxes range) (boxes r.range));
          check "endpoint bit-identical" true
            (same_series (boxes endpoint) (boxes r.endpoint)))
        [ 1; 2; 6; 8 ])
    cases

(* Divisors that only degrees >= 1 use, which the reference divided by on
   its first pass even at order 1, where no pass of the tape reaches
   degree 1: sqrt over [0, 1] has 2 r0 = [0, 2], and atan over [-2, 2]
   has g0 = 1 + [-2, 2] * [-2, 2] = [-3, 5]. *)
let test_zero_divisor_parity () =
  List.iter
    (fun (e, lo, hi) ->
      let rhs = [| e |] in
      let tape = Series.compile rhs in
      let sys = Ode.make ~dim:1 ~input_dim:1 rhs in
      let state = B.of_bounds [| (lo, hi) |] in
      List.iter
        (fun order ->
          let raises what f =
            Alcotest.check_raises
              (Format.asprintf "%s raises on %a at order %d" what E.pp e order)
              I.Division_by_zero_interval (fun () -> ignore (f ()))
          in
          raises "reference" (fun () ->
              Ref.solution_coeffs ~rhs ~order ~time:I.zero ~state
                ~inputs:no_inputs);
          raises "tape" (fun () ->
              Series.solution_coeffs tape ~order ~time:I.zero ~state
                ~inputs:no_inputs);
          raises "validated step" (fun () ->
              Onestep.step sys ~order ~t1:0.0 ~h:0.01 ~state ~inputs:no_inputs))
        [ 1; 2; 6 ])
    [ (E.Sqrt (E.State 0), 0.0, 1.0); (E.Atan (E.State 0), -2.0, 2.0) ]

let test_lohner_one_apriori_per_step () =
  let calls = Nncs_obs.Metrics.counter "ode.apriori_calls" in
  let before = Nncs_obs.Metrics.value calls in
  ignore
    (Lohner.step vanderpol ~order:6 ~t1:0.0 ~h:0.05 ~inputs:no_inputs
       (Lohner.init (B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |])));
  Alcotest.(check int) "apriori enclosures per step" 1
    (Nncs_obs.Metrics.value calls - before)

let additional_tests =
  [
    ( "lohner",
      [
        Alcotest.test_case "qr orthogonal" `Quick test_qr_orthogonal;
        Alcotest.test_case "interval matrices" `Quick test_interval_matrix_ops;
        Alcotest.test_case "beats direct on rotation" `Quick
          test_lohner_beats_direct_on_rotation;
        Alcotest.test_case "sound on van der pol" `Quick test_lohner_sound_nonlinear;
        Alcotest.test_case "jacobian enclosure" `Quick test_jacobian_enclosure_linear;
        Alcotest.test_case "one apriori enclosure per step" `Quick
          test_lohner_one_apriori_per_step;
        QCheck_alcotest.to_alcotest prop_diff_matches_finite_difference;
      ] );
    ( "tape",
      [
        QCheck_alcotest.to_alcotest prop_tape_matches_reference;
        Alcotest.test_case "acas plant bit-identical" `Quick test_tape_acas_plant;
        Alcotest.test_case "direct step bit-identical" `Quick
          test_onestep_matches_reference;
        Alcotest.test_case "acas series has no subnormal endpoint" `Quick
          test_acas_series_no_subnormal;
        Alcotest.test_case "zero divisors raise at every order" `Quick
          test_zero_divisor_parity;
      ] );
  ]

let () = Alcotest.run "ode" (main_tests @ additional_tests)
