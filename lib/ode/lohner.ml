module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module IM = Nncs_interval.Interval_matrix
module R = Nncs_interval.Rounding
module Mat = Nncs_linalg.Mat
module Qr = Nncs_linalg.Qr

type state = { center : float array; frame : Mat.t; errors : I.t array }

let init box =
  let c = B.center box in
  {
    center = c;
    frame = Mat.identity (B.dim box);
    errors =
      Array.mapi
        (fun i iv -> I.sub iv (I.of_float c.(i)))
        (B.to_array box);
  }

let interval_frame st = IM.of_floats (Array.init (Array.length st.center) (fun i -> Mat.row st.frame i))

let hull st =
  let spread = IM.mul_vec (interval_frame st) st.errors in
  B.of_intervals
    (Array.mapi (fun i e -> I.add (I.of_float st.center.(i)) e) spread)

(* ----- variational series: Taylor coefficients of J(t), J' = A(t) J ----- *)

(* coefficients J[0..k] of the matrix series from J[0] = j0 via
   J[k+1] = 1/(k+1) * sum_{m<=k} A[m] J[k-m], where [aser.(i * n + j)]
   is the series of A_ij(t) = (df_i/dz_j)(t, z(t), u) *)
let variational_coeffs ~order ~aser ~j0 =
  let n = IM.rows j0 in
  let a_coeff m = IM.init n n (fun i j -> aser.((i * n) + j).(m)) in
  let js = Array.make (order + 1) j0 in
  for k = 0 to order - 1 do
    let acc = ref (IM.create n n I.zero) in
    for m = 0 to k do
      acc := IM.add !acc (IM.mul (a_coeff m) js.(k - m))
    done;
    (* divide by the exact integer interval — a nearest-rounded 1/(k+1)
       scalar would not contain the true coefficient *)
    js.(k + 1) <- IM.scale (I.inv (I.of_float (float_of_int (k + 1)))) !acc
  done;
  js

(* a-priori enclosure of J over the step: matrix Picard iteration
   JB = I + [0,h] * A(prior) * JB *)
let jacobian_prior sys ~t1 ~h ~prior ~inputs =
  let n = sys.Ode.dim in
  let tiv = I.make t1 (R.add_up t1 h) in
  let hiv = I.make 0.0 h in
  let abox =
    IM.init n n (fun i j ->
        Expr.eval_interval sys.Ode.jacobian.(i).(j) ~time:tiv ~state:prior
          ~inputs)
  in
  let picard jb = IM.add (IM.identity n) (IM.scale hiv (IM.mul abox jb)) in
  (* Gronwall bound in a scaled norm: with D = diag(d_i) the matrix
     Jt = D^-1 J D solves Jt' = (D^-1 A D) Jt, so
     ||Jt - I||_inf <= exp(||D^-1 A D||_inf h) - 1 =: r and hence
     |(J - I)_ij| <= r d_i / d_j — always valid, no contraction
     requirement.  Scaling by the state magnitudes keeps the norm small
     when coordinates live on very different scales (ft vs rad).  One
     Picard application then tightens. *)
  let d =
    Array.init n (fun i -> Float.max 1.0 (I.mag (Nncs_interval.Box.get prior i)))
  in
  (* norm and r must be UPPER bounds for the Gronwall argument, so the
     whole chain rounds up (and the final -1 rounds up too) *)
  let norm_a =
    let worst = ref 0.0 in
    for i = 0 to n - 1 do
      let row = ref 0.0 in
      for j = 0 to n - 1 do
        row :=
          R.add_up !row
            (R.div_up (R.mul_up (I.mag (IM.get abox i j)) d.(j)) d.(i))
      done;
      worst := Float.max !worst !row
    done;
    !worst
  in
  let r =
    R.sub_up
      ((R.lib_up (Float.exp (R.mul_up norm_a h)))
       [@lint.fp_exact "monotone libm call covered by the lib_up margin"])
      1.0
  in
  if not (Float.is_finite r) then
    raise
      (Apriori.Enclosure_failure
         (Printf.sprintf "Jacobian enclosure diverges (t1=%g h=%g)" t1 h));
  let gronwall =
    IM.init n n (fun i j ->
        let rij = R.div_up (R.mul_up r d.(i)) d.(j) in
        I.add (if i = j then I.one else I.zero) (I.make (-.rij) rij))
  in
  let tightened = picard gronwall in
  IM.init n n (fun i j ->
      match I.meet (IM.get gronwall i j) (IM.get tightened i j) with
      | Some m -> m
      | None -> IM.get gronwall i j)

(* horner evaluation of a matrix polynomial at a scalar interval *)
let matrix_horner coeffs d =
  let k = Array.length coeffs - 1 in
  let acc = ref coeffs.(k) in
  for i = k - 1 downto 0 do
    acc := IM.add coeffs.(i) (IM.init (IM.rows coeffs.(i)) (IM.cols coeffs.(i))
        (fun r c -> I.mul d (IM.get !acc r c)))
  done;
  !acc

(* The flow Jacobian over a box from the pieces a step already has:
   [prior] encloses the flow from the box over the step, [zser] is the
   solution series over the box at t1 and [zpr] the one over [prior] on
   [t1, t1+h].  Orders < K come from [zser], order K from [zpr]. *)
let jacobian_of_series sys ~order ~t1 ~h ~inputs ~prior ~zser ~zpr =
  let n = sys.Ode.dim in
  let aser =
    Series.eval sys.Ode.jacobian_tape ~order ~time:(I.of_float t1) ~state:zser
      ~inputs
  in
  let js = variational_coeffs ~order ~aser ~j0:(IM.identity n) in
  let jb = jacobian_prior sys ~t1 ~h ~prior ~inputs in
  let apr =
    Series.eval sys.Ode.jacobian_tape ~order
      ~time:(I.make t1 (R.add_up t1 h))
      ~state:zpr ~inputs
  in
  let jpr = variational_coeffs ~order ~aser:apr ~j0:jb in
  let coeffs = Array.init (order + 1) (fun k -> if k < order then js.(k) else jpr.(k)) in
  matrix_horner coeffs (I.of_float h)

let solution_at_t1 sys ~order ~t1 ~inputs state =
  Series.solution_coeffs sys.Ode.tape ~order ~time:(I.of_float t1) ~state ~inputs

let solution_over_step sys ~order ~t1 ~h ~inputs state =
  Series.solution_coeffs sys.Ode.tape ~order
    ~time:(I.make t1 (R.add_up t1 h))
    ~state ~inputs

let jacobian_enclosure sys ~order ~t1 ~h ~inputs box =
  let prior = Apriori.enclosure sys ~t1 ~h ~state:box ~inputs in
  let zser = solution_at_t1 sys ~order ~t1 ~inputs box in
  let zpr = solution_over_step sys ~order ~t1 ~h ~inputs prior in
  jacobian_of_series sys ~order ~t1 ~h ~inputs ~prior ~zser ~zpr

type step_result = { next : state; range : B.t }

let m_lohner_steps = Nncs_obs.Metrics.counter "ode.lohner_steps"

(* rigorous enclosure of the inverse of a nearly-orthogonal float matrix:
   Q^-1 = (Q^T Q)^-1 Q^T and ||(Q^T Q)^-1 - I||_inf <= eps/(1-eps) where
   eps = ||Q^T Q - I||_inf, evaluated in interval arithmetic *)
let inverse_orthogonal q =
  let n = Mat.rows q in
  let qi = IM.of_floats (Array.init n (fun i -> Mat.row q i)) in
  let qt = IM.transpose qi in
  let g = IM.mul qt qi in
  let eps = ref 0.0 in
  for i = 0 to n - 1 do
    let row = ref 0.0 in
    for j = 0 to n - 1 do
      let e = I.add_float (IM.get g i j) (if i = j then -1.0 else 0.0) in
      (* eps must over-estimate ||Q^T Q - I||, so accumulate upward *)
      row := R.add_up !row (I.mag e)
    done;
    eps := Float.max !eps !row
  done;
  if !eps >= 0.5 then
    raise (Apriori.Enclosure_failure "QR factor too far from orthogonal");
  (* round delta up: numerator up, denominator down *)
  let delta = R.div_up !eps (R.sub_down 1.0 !eps) in
  let fudge = IM.init n n (fun i j ->
      I.add (if i = j then I.one else I.zero) (I.make (-.delta) delta))
  in
  IM.mul fudge qt

let step sys ~order ~t1 ~h ~inputs st =
  Nncs_obs.Metrics.incr m_lohner_steps;
  let n = sys.Ode.dim in
  let zbox = hull st in
  let prior = Apriori.enclosure sys ~t1 ~h ~state:zbox ~inputs in
  (* 1. point Taylor step of the center, remainder over the prior *)
  let zc = solution_at_t1 sys ~order ~t1 ~inputs (B.of_point st.center) in
  let zpr = solution_over_step sys ~order ~t1 ~h ~inputs prior in
  let hd = I.of_float h in
  let point_flow =
    Array.init n (fun i ->
        let coeffs =
          Array.init (order + 1) (fun k -> if k < order then zc.(i).(k) else zpr.(i).(k))
        in
        Series.horner coeffs hd)
  in
  (* 2. Jacobian of the flow over the current hull *)
  let zbser = solution_at_t1 sys ~order ~t1 ~inputs zbox in
  let jfull = jacobian_of_series sys ~order ~t1 ~h ~inputs ~prior ~zser:zbser ~zpr in
  (* 3. propagate the error set: M = J * frame, d = point defect *)
  let m = IM.mul jfull (interval_frame st) in
  let new_center = Array.map I.mid point_flow in
  let defect = Array.mapi (fun i v -> I.sub v (I.of_float new_center.(i))) point_flow in
  (* 4. new frame: pivoted QR of mid(M) with columns scaled by the error radii *)
  let mmid = IM.midpoint m in
  let scaled =
    (Mat.init n n (fun i j ->
         mmid.(i).(j) *. Float.max 1e-30 (I.rad st.errors.(j)))
    [@lint.fp_exact
      "frame choice is a heuristic: any float matrix is admissible, \
       soundness comes from the rigorous inverse_orthogonal"])
  in
  let q = Qr.orthonormalize scaled in
  let qinv = inverse_orthogonal q in
  (* errors' = (Q^-1 M) errors + Q^-1 defect *)
  let qm = IM.mul qinv m in
  let e1 = IM.mul_vec qm st.errors in
  let e2 = IM.mul_vec qinv defect in
  let errors = Array.map2 I.add e1 e2 in
  let next = { center = new_center; frame = q; errors } in
  (* 5. range over the step: the prior meets the direct Taylor range *)
  let direct_range =
    let d01 = I.make 0.0 h in
    B.of_intervals
      (Array.init n (fun i ->
           let coeffs =
             Array.init (order + 1) (fun k ->
                 if k < order then zbser.(i).(k) else zpr.(i).(k))
           in
           Series.horner coeffs d01))
  in
  let range =
    match B.meet direct_range prior with Some r -> r | None -> prior
  in
  { next; range }
