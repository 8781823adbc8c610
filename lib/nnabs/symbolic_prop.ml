[@@@lint.allow
  "r1 the symbolic transformer computes coefficients in float and \
   accounts for its own rounding with dedicated error terms (up_err / \
   lo_err, accumulation_error), per DESIGN.md; routing every op through \
   Rounding would double the cost for no soundness gain"]

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding
module Mat = Nncs_linalg.Mat
module Net = Nncs_nn.Network
module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics

let m_neurons = Metrics.counter "nnabs.relu_neurons"

(* unstable = straddling 0, requiring the chord relaxation (the neuron a
   complete verifier would case-split on) *)
let m_unstable = Metrics.counter "nnabs.unstable_neurons"

let ulp_unit = 0x1.0p-53

(* Upper bound on the sum of rounding errors of an inner-product style
   accumulation: n operations whose partial results are bounded by
   [absacc] (the sum of absolute values of the terms). *)
let accumulation_error n absacc =
  2.0 *. float_of_int (n + 2) *. ulp_unit *. absacc

(* max |x_k| over the input box, floored at 1 so constant-term rounding
   is also covered when folded with the same factor *)
let input_magnitude box =
  let m = ref 1.0 in
  for k = 0 to B.dim box - 1 do
    m := Float.max !m (I.mag (B.get box k))
  done;
  !m

(* ----- dense kernel state -----

   A plane holds one side (lower or upper) of the symbolic bounds of a
   whole layer for a batch of [k] input boxes, its lanes: lane [l]'s
   neuron [i] is plane row [l*n + i], whose [m] affine coefficients over
   the network inputs sit at [(l*n + i)*m] of one flat row-major array,
   with its constant and accumulated-error terms at index [l*n + i].
   Every neuron's value satisfies
   lo(x) - lo_err <= value(x) <= up(x) + up_err  over its lane's box.
   A row that ReLU zeroed carries a flag, so the next affine layer can
   skip it.  The four planes (lower/upper x current/next) are scratch
   buffers owned by the calling domain and reused across layers and
   calls, so the hot loop performs no per-neuron allocation. *)

type plane = {
  mutable c : float array;  (* row-major rows*m coefficients *)
  mutable k : float array;  (* one constant term per row *)
  mutable e : float array;  (* one error bound per row, >= 0 *)
  mutable z : bool array;  (* row zeroed: its c, k and e are all 0 *)
}

let make_plane () = { c = [||]; k = [||]; e = [||]; z = [||] }

let ensure p n m =
  if Array.length p.c < n * m then p.c <- Array.make (n * m) 0.0;
  if Array.length p.k < n then p.k <- Array.make n 0.0;
  if Array.length p.e < n then p.e <- Array.make n 0.0;
  if Array.length p.z < n then p.z <- Array.make n false

type scratch = {
  mutable cur_lo : plane;
  mutable cur_up : plane;
  mutable nxt_lo : plane;
  mutable nxt_up : plane;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cur_lo = make_plane ();
        cur_up = make_plane ();
        nxt_lo = make_plane ();
        nxt_up = make_plane ();
      })

let swap s =
  let l = s.cur_lo and u = s.cur_up in
  s.cur_lo <- s.nxt_lo;
  s.cur_up <- s.nxt_up;
  s.nxt_lo <- l;
  s.nxt_up <- u

(* Concrete bounds of row [i] of a plane over the input box, outward
   rounded.

   A non-finite plane coefficient poisons the whole row: the sign tests
   below are both false for NaN (silently dropping the term — an
   unsoundly *finite* bound), and an infinite coefficient of the wrong
   sign could even drive the accumulator to the unsound side.  Bail out
   to the conservative infinity instead; the same guard maps a NaN
   accumulator (e.g. a NaN constant or error term) to infinity. *)
let eval_upper_row box p i m =
  let off = i * m in
  let acc = ref (R.add_up p.k.(i) p.e.(i)) in
  (try
     for kk = 0 to m - 1 do
       let c = p.c.(off + kk) in
       if not (Float.is_finite c) then begin
         acc := Float.infinity;
         raise Exit
       end;
       if c > 0.0 then acc := R.add_up !acc (R.mul_up c (I.hi (B.get box kk)))
       else if c < 0.0 then
         acc := R.add_up !acc (R.mul_up c (I.lo (B.get box kk)))
     done
   with Exit -> ());
  if Float.is_nan !acc then Float.infinity else !acc

let eval_lower_row box p i m =
  let off = i * m in
  let acc = ref (R.sub_down p.k.(i) p.e.(i)) in
  (try
     for kk = 0 to m - 1 do
       let c = p.c.(off + kk) in
       if not (Float.is_finite c) then begin
         acc := Float.neg_infinity;
         raise Exit
       end;
       if c > 0.0 then acc := R.add_down !acc (R.mul_down c (I.lo (B.get box kk)))
       else if c < 0.0 then
         acc := R.add_down !acc (R.mul_down c (I.hi (B.get box kk)))
     done
   with Exit -> ());
  if Float.is_nan !acc then Float.neg_infinity else !acc

(* The output interval when the two evaluated bounds contradict each
   other ([lo > hi]): each bound is only sound up to the slack that
   produced the inversion, so widen the ordered hull by that amount on
   both sides instead of silently swapping the endpoints (which would
   claim a tighter interval than either bound supports).  The width
   [d = lo - hi] must itself be rounded *up*: computed round-to-nearest
   it can undershoot the true gap, leaving the inflated hull short of
   covering both original bounds (observable when [hi] is within an ulp
   of the gap — see the adversarial-magnitude regression test). *)
let inverted_hull lo hi =
  let d = R.sub_up lo hi in
  I.inflate (I.make hi lo) d

let zero_row p i m =
  Array.fill p.c (i * m) m 0.0;
  p.k.(i) <- 0.0;
  p.e.(i) <- 0.0;
  p.z.(i) <- true

(* The affine layer: dst = W * src + b on both bound planes of every
   lane.  [src] holds [k] lanes of [cols] rows, [dst] receives [k] lanes
   of [n] rows.  Positive weights pull from the same-side plane,
   negative weights from the opposite side; per-row rounding is folded
   into the error term exactly as an inner-product accumulation of
   nterms*(m+1)+1 ops.  Each (row, lane) pair runs the whole (j, kk)
   loop with its accumulators in locals, so a lane's float-operation
   sequence depends neither on [k] nor on the lane's position.

   A finite weight on a zeroed source row would add only +-0 to every
   coefficient, the constant and the absolute sum, so that side's loop
   is skipped: every nonzero value comes from the same operations, and
   only the sign of a zero can differ, which no evaluated bound reads.
   The error lane still takes its nudge, [add_up err (mul_up |w| 0)],
   and [nterms] still counts the weight, so the error bounds keep their
   bits.  A NaN or infinite weight is never skipped: [w * 0] is NaN,
   and that poison must reach [eval_*_row]. *)
let affine_rows ~k ~xmags w b m src_lo src_up dst_lo dst_up =
  let n = Mat.rows w and cols = Mat.cols w in
  ensure dst_lo (k * n) m;
  ensure dst_up (k * n) m;
  for i = 0 to n - 1 do
    let bi = b.(i) in
    for l = 0 to k - 1 do
      let r = (l * n) + i in
      let off = r * m and src0 = l * cols in
      Array.fill dst_lo.c off m 0.0;
      Array.fill dst_up.c off m 0.0;
      dst_lo.z.(r) <- false;
      dst_up.z.(r) <- false;
      let up_const = ref bi and lo_const = ref bi in
      let up_abs = ref (Float.abs bi) and lo_abs = ref (Float.abs bi) in
      let up_err = ref 0.0 and lo_err = ref 0.0 in
      let nterms = ref 0 in
      for j = 0 to cols - 1 do
        let wij = Mat.get w i j in
        if (wij <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then begin
          incr nterms;
          let su, sl = if wij > 0.0 then (src_up, src_lo) else (src_lo, src_up) in
          let srow = src0 + j in
          let joff = srow * m in
          let finite = Float.is_finite wij in
          if not (finite && su.z.(srow)) then begin
            for kk = 0 to m - 1 do
              let p = wij *. su.c.(joff + kk) in
              dst_up.c.(off + kk) <- dst_up.c.(off + kk) +. p;
              up_abs := !up_abs +. Float.abs p
            done;
            let pc = wij *. su.k.(srow) in
            up_const := !up_const +. pc;
            up_abs := !up_abs +. Float.abs pc
          end;
          up_err := R.add_up !up_err (R.mul_up (Float.abs wij) su.e.(srow));
          if not (finite && sl.z.(srow)) then begin
            for kk = 0 to m - 1 do
              let p = wij *. sl.c.(joff + kk) in
              dst_lo.c.(off + kk) <- dst_lo.c.(off + kk) +. p;
              lo_abs := !lo_abs +. Float.abs p
            done;
            let pc = wij *. sl.k.(srow) in
            lo_const := !lo_const +. pc;
            lo_abs := !lo_abs +. Float.abs pc
          end;
          lo_err := R.add_up !lo_err (R.mul_up (Float.abs wij) sl.e.(srow))
        end
      done;
      dst_up.k.(r) <- !up_const;
      dst_lo.k.(r) <- !lo_const;
      if !nterms = 0 then begin
        dst_up.e.(r) <- 0.0;
        dst_lo.e.(r) <- 0.0
      end
      else begin
        let nops = (!nterms * (m + 1)) + 1 and xmag = xmags.(l) in
        dst_up.e.(r) <- R.add_up !up_err (accumulation_error nops (!up_abs *. xmag));
        dst_lo.e.(r) <- R.add_up !lo_err (accumulation_error nops (!lo_abs *. xmag))
      end
    done
  done

(* The chord slope u / (u - l) for an unstable node, as an interval to
   bound the float division error. *)
let chord_slope l u =
  I.div (I.of_float u) (I.sub (I.of_float u) (I.of_float l))

(* Row i scaled in place by [lam] with [bias] added: the single-term
   affine combination, with its rounding folded into the error term. *)
let scale_row ~xmag p i m lam bias =
  let off = i * m in
  let absacc = ref (Float.abs bias) in
  for kk = 0 to m - 1 do
    let pr = lam *. p.c.(off + kk) in
    p.c.(off + kk) <- pr;
    absacc := !absacc +. Float.abs pr
  done;
  let pc = lam *. p.k.(i) in
  p.k.(i) <- bias +. pc;
  absacc := !absacc +. Float.abs pc;
  let err = R.add_up 0.0 (R.mul_up (Float.abs lam) p.e.(i)) in
  p.e.(i) <- R.add_up err (accumulation_error (m + 2) (!absacc *. xmag))

(* ReLU relaxation of one lane's layer in place (ReluVal/Neurify rules);
   counts straddling neurons into [unstable].  The lane's [n] rows start
   at plane row [row0]. *)
let relu_rows ~unstable ~xmag ~row0 box p_lo p_up n m =
  for i0 = 0 to n - 1 do
    let i = row0 + i0 in
    let l_lo = eval_lower_row box p_lo i m
    and u_up = eval_upper_row box p_up i m in
    if l_lo >= 0.0 then () (* stable active *)
    else if u_up <= 0.0 then begin
      (* stable inactive *)
      zero_row p_lo i m;
      zero_row p_up i m
    end
    else begin
      Stdlib.incr unstable;
      (* upper: relu(v) <= lam * (v - l) for v in [l, u], lam = u/(u-l),
         applied to the upper equation with its own concrete lower bound *)
      let l_up = eval_lower_row box p_up i m in
      if l_up >= 0.0 then ()
      else begin
        let lam_iv = chord_slope l_up u_up in
        let lam = I.mid lam_iv in
        (* bias -lam*l_up, slope error |lam' - lam| * (u - l) folded in *)
        scale_row ~xmag p_up i m lam (-.lam *. l_up);
        let slope_slack = R.mul_up (I.width lam_iv) (R.sub_up u_up l_up) in
        let bias_slack =
          (* -lam*l_up computed in float: one mul rounding *)
          R.mul_up 4.0 (R.mul_up ulp_unit (Float.abs (lam *. l_up)))
        in
        p_up.e.(i) <- R.add_up p_up.e.(i) (R.add_up slope_slack bias_slack)
      end;
      (* lower: relu(v) >= lam * v for v in [l, u], lam = u/(u-l) in [0,1],
         applied to the lower equation with its own concrete bounds *)
      let u_lo = eval_upper_row box p_lo i m in
      if u_lo <= 0.0 then zero_row p_lo i m
      else begin
        let l = l_lo and u = u_lo in
        let lam_iv = chord_slope l u in
        let lam = I.mid lam_iv in
        scale_row ~xmag p_lo i m lam 0.0;
        let slope_slack =
          R.mul_up (I.width lam_iv) (Float.max (Float.abs l) (Float.abs u))
        in
        p_lo.e.(i) <- R.add_up p_lo.e.(i) slope_slack
      end
    end
  done

(* Run every box through the network as one lane of the domain's
   scratch planes, one pass per layer; afterwards [cur_lo]/[cur_up]
   hold the output layer's bounds, lane [l]'s output [i] at row
   [l*n + i].  A batch shares the layer passes and the per-call set-up;
   each lane keeps its own box, input magnitude and accumulators.
   Callers must materialise what they need before the next propagation
   reuses the buffers. *)
let propagate_planes net boxes =
  let k = Array.length boxes and m = Net.input_dim net in
  Array.iter
    (fun box ->
      if B.dim box <> m then
        invalid_arg "Symbolic_prop.propagate_batch: input dimension mismatch")
    boxes;
  let xmags = Array.map input_magnitude boxes in
  let s = Domain.DLS.get scratch_key in
  ensure s.cur_lo (k * m) m;
  ensure s.cur_up (k * m) m;
  for r = 0 to (k * m) - 1 do
    let off = r * m and i = r mod m in
    Array.fill s.cur_lo.c off m 0.0;
    Array.fill s.cur_up.c off m 0.0;
    s.cur_lo.c.(off + i) <- 1.0;
    s.cur_up.c.(off + i) <- 1.0;
    s.cur_lo.k.(r) <- 0.0;
    s.cur_up.k.(r) <- 0.0;
    s.cur_lo.e.(r) <- 0.0;
    s.cur_up.e.(r) <- 0.0;
    s.cur_lo.z.(r) <- false;
    s.cur_up.z.(r) <- false
  done;
  let n = ref m in
  Array.iteri
    (fun li l ->
      Span.with_ "nnabs.layer"
        ~attrs:
          [
            ("layer", Nncs_obs.Trace.Int li);
            ("neurons", Int (Mat.rows l.Net.weights));
            ("leaves", Int k);
          ]
        (fun () ->
          let rows = Mat.rows l.Net.weights in
          affine_rows ~k ~xmags l.Net.weights l.Net.biases m s.cur_lo s.cur_up
            s.nxt_lo s.nxt_up;
          (match l.Net.activation with
          | Nncs_nn.Activation.Linear -> ()
          | Nncs_nn.Activation.Relu ->
              (* aggregate locally, publish once per layer: the per-neuron
                 hot loop never touches the shared atomics *)
              let unstable = ref 0 in
              for lane = 0 to k - 1 do
                relu_rows ~unstable ~xmag:xmags.(lane) ~row0:(lane * rows)
                  boxes.(lane) s.nxt_lo s.nxt_up rows m
              done;
              Metrics.add m_neurons (rows * k);
              Metrics.add m_unstable !unstable);
          swap s;
          n := rows))
    net.Net.layers;
  (s, !n, m)

let propagate_batch net boxes =
  if Array.length boxes = 0 then [||]
  else
    let s, n, m = propagate_planes net boxes in
    Array.mapi
      (fun l box ->
        B.of_intervals
          (Array.init n (fun i ->
               let r = (l * n) + i in
               let lo = eval_lower_row box s.cur_lo r m
               and hi = eval_upper_row box s.cur_up r m in
               if lo <= hi then I.make lo hi else inverted_hull lo hi)))
      boxes

let propagate net box = (propagate_batch net [| box |]).(0)

let output_bounds net box =
  let s, n, m = propagate_planes net [| box |] in
  Array.init n (fun i ->
      let off = i * m in
      ( Array.sub s.cur_lo.c off m,
        s.cur_lo.k.(i),
        Array.sub s.cur_up.c off m,
        s.cur_up.k.(i) ))

(* Narrow test hooks: the NaN-poisoned-plane regression needs a plane
   whose *coefficients* are poisoned while the constant and error lanes
   stay finite — unreachable through [propagate] without contriving a
   whole network — and the inverted-hull regression needs the raw
   widening helper. *)
module Internal = struct
  let row_bounds box ~c ~k ~e =
    let m = Array.length c in
    if B.dim box <> m then
      invalid_arg "Symbolic_prop.Internal.row_bounds: dimension mismatch";
    let p = { c = Array.copy c; k = [| k |]; e = [| e |]; z = [| false |] } in
    (eval_lower_row box p 0 m, eval_upper_row box p 0 m)
end
