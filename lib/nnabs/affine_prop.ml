[@@@lint.allow
  "r1 the affine transformer tracks the rounding error of its own \
   coefficient arithmetic in noise symbols, like Symbolic_prop"]

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding
module A = Nncs_affine.Affine_form
module Mat = Nncs_linalg.Mat
module Net = Nncs_nn.Network

let relu_relax form =
  let iv = A.to_interval form in
  let l = I.lo iv and u = I.hi iv in
  if l >= 0.0 then form
  else if u <= 0.0 then A.of_float 0.0
  else begin
    (* Chebyshev-style relaxation: relu(v) in lam*v + mu +/- mu for
       v in [l, u], with lam = u/(u-l) and mu = -lam*l/2.  The chord
       lam*(v - l) dominates relu and the gap to relu is at most -lam*l,
       so centering halves the error term. *)
    let lam_iv = I.div (I.of_float u) (I.sub (I.of_float u) (I.of_float l)) in
    let lam = I.mid lam_iv in
    let mu_iv =
      I.mul_float 0.5 (I.neg (I.mul lam_iv (I.of_float l)))
    in
    let mu = I.mid mu_iv in
    let scaled = A.add_const (A.scale lam form) mu in
    (* error budget: the relaxation half-width, the slope rounding over
       the value range, and the centering rounding *)
    let base = Float.abs (I.hi mu_iv) in
    let slope_slack = R.mul_up (I.width lam_iv) (I.mag iv) in
    let mu_slack = I.width mu_iv in
    A.add_error scaled (R.add_up base (R.add_up slope_slack mu_slack))
  end

let layer_out l forms =
  let w = l.Net.weights and b = l.Net.biases in
  let out =
    Array.init (Mat.rows w) (fun i ->
        let terms = ref [] in
        for j = Mat.cols w - 1 downto 0 do
          let wij = Mat.get w i j in
          if (wij <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then terms := (wij, forms.(j)) :: !terms
        done;
        match !terms with
        | [] -> A.of_float b.(i)
        | terms -> A.linear_combination terms b.(i))
  in
  match l.Net.activation with
  | Nncs_nn.Activation.Linear -> out
  | Nncs_nn.Activation.Relu -> Array.map relu_relax out

let propagate net box =
  if B.dim box <> Net.input_dim net then
    invalid_arg "Affine_prop.propagate: input dimension mismatch";
  let inputs = Array.map A.of_interval (B.to_array box) in
  let out = Array.fold_left (fun v l -> layer_out l v) inputs net.Net.layers in
  B.of_intervals (Array.map A.to_interval out)
