[@@@lint.allow
  "r1 affine forms carry rounding error in their own error symbol; each \
   operation widens it by the computed ulp bounds"]

module I = Nncs_interval.Interval
module R = Nncs_interval.Rounding

type t = {
  c : float;  (* center *)
  terms : (int * float) array;  (* sorted by noise-symbol index *)
  err : float;  (* magnitude of the anonymous error term, >= 0 *)
}

(* atomic so that parallel verification workers never hand two distinct
   quantities the same noise symbol (which would fake a correlation and
   break soundness) *)
let counter = Atomic.make 0
let fresh_symbol () = Atomic.fetch_and_add counter 1 + 1

let of_float x = { c = x; terms = [||]; err = 0.0 }

let of_interval_with sym iv =
  let c = I.mid iv in
  (* everything the midpoint-radius split loses goes into the radius *)
  let r =
    Float.max (R.sub_up (I.hi iv) c) (R.sub_up c (I.lo iv))
  in
  if (r = 0.0) [@lint.fp_exact "exact zero-radius test; NaN radius falls through to the general case"] then { c; terms = [||]; err = 0.0 }
  else { c; terms = [| (sym, r) |]; err = 0.0 }

let of_interval iv = of_interval_with (fresh_symbol ()) iv

(* Upper bound on the rounding error of the nearest-rounded value [v]
   whose exact counterpart lies in [down, up]. *)
let round_gap down up v =
  Float.max (R.sub_up up v) (R.sub_up v down)

let total_dev x =
  Array.fold_left (fun acc (_, w) -> R.add_up acc (Float.abs w)) x.err x.terms

let radius = total_dev
let center x = x.c
let error_term x = x.err

let coeff x sym =
  (* terms are sorted: binary search *)
  let n = Array.length x.terms in
  let rec go lo hi =
    if lo >= hi then 0.0
    else
      let m = (lo + hi) / 2 in
      let s, w = x.terms.(m) in
      if s = sym then w else if s < sym then go (m + 1) hi else go lo m
  in
  go 0 n

let to_interval x =
  let r = total_dev x in
  I.make (R.sub_down x.c r) (R.add_up x.c r)

let neg x =
  { c = -.x.c; terms = Array.map (fun (s, w) -> (s, -.w)) x.terms; err = x.err }

let merge_terms f a b =
  (* f combines coefficients present in both; absent = 0. Returns the
     merged sorted array and the accumulated rounding error. *)
  let out = ref [] and err = ref 0.0 and i = ref 0 and j = ref 0 in
  let push s w gap =
    if (w <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then out := (s, w) :: !out;
    if gap > 0.0 then err := R.add_up !err gap
  in
  let na = Array.length a and nb = Array.length b in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && fst a.(!i) < fst b.(!j)) then begin
      let s, w = a.(!i) in
      let v, gap = f w 0.0 in
      push s v gap;
      incr i
    end
    else if !i >= na || fst b.(!j) < fst a.(!i) then begin
      let s, w = b.(!j) in
      let v, gap = f 0.0 w in
      push s v gap;
      incr j
    end
    else begin
      let s, wa = a.(!i) and _, wb = b.(!j) in
      let v, gap = f wa wb in
      push s v gap;
      incr i;
      incr j
    end
  done;
  (Array.of_list (List.rev !out), !err)

let add a b =
  let f x y =
    let v = x +. y in
    (v, round_gap (R.add_down x y) (R.add_up x y) v)
  in
  let terms, gap = merge_terms f a.terms b.terms in
  let c = a.c +. b.c in
  let cgap = round_gap (R.add_down a.c b.c) (R.add_up a.c b.c) c in
  { c; terms; err = R.add_up (R.add_up (R.add_up a.err b.err) gap) cgap }

let sub a b = add a (neg b)

let add_const a k =
  let c = a.c +. k in
  let cgap = round_gap (R.add_down a.c k) (R.add_up a.c k) c in
  { a with c; err = R.add_up a.err cgap }

let scale s a =
  if (s = 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then of_float 0.0
  else
    let gap = ref 0.0 in
    let scale1 w =
      let v = s *. w in
      gap := R.add_up !gap (round_gap (R.mul_down s w) (R.mul_up s w) v);
      v
    in
    let c = scale1 a.c in
    let terms = Array.map (fun (sym, w) -> (sym, scale1 w)) a.terms in
    { c; terms; err = R.add_up (R.mul_up (Float.abs s) a.err) !gap }

let add_error a e =
  if e < 0.0 then invalid_arg "Affine_form.add_error: negative error";
  { a with err = R.add_up a.err e }

let mul a b =
  (* a*b = ac*bc + ac*Pb + bc*Pa + Pa*Pb with |Pa| <= ra, |Pb| <= rb *)
  let ra = total_dev a and rb = total_dev b in
  let sa = scale b.c { a with c = 0.0 } in
  let sb = scale a.c { b with c = 0.0 } in
  let lin = add sa sb in
  let c = a.c *. b.c in
  let cgap = round_gap (R.mul_down a.c b.c) (R.mul_up a.c b.c) c in
  let quad = R.mul_up ra rb in
  {
    c = c +. lin.c;
    terms = lin.terms;
    err = R.add_up (R.add_up (R.add_up lin.err quad) cgap)
            (round_gap (R.add_down c lin.c) (R.add_up c lin.c) (c +. lin.c));
  }

let linear_combination ws b =
  let acc = List.fold_left (fun acc (w, x) -> add acc (scale w x)) (of_float b) ws in
  acc

let pp fmt x =
  Format.fprintf fmt "@[<hov 2>%.6g" x.c;
  Array.iter (fun (s, w) -> Format.fprintf fmt "@ %+.6g*e%d" w s) x.terms;
  if x.err > 0.0 then Format.fprintf fmt "@ +/- %.6g" x.err;
  Format.fprintf fmt "@]"
