type t = { lo : float; hi : float }

exception Empty_meet
exception Division_by_zero_interval
exception Numeric_error of string

module R = Rounding

let numeric_error fmt = Printf.ksprintf (fun s -> raise (Numeric_error s)) fmt

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    numeric_error "Interval.make: NaN bound [%h, %h]" lo hi
  else if lo > hi then
    invalid_arg
      (Printf.sprintf "Interval.make: invalid bounds [%h, %h]" lo hi)
  else { lo; hi }

let of_float x =
  if Float.is_nan x then numeric_error "Interval.of_float: NaN"
  else { lo = x; hi = x }

let zero = { lo = 0.0; hi = 0.0 }
let one = { lo = 1.0; hi = 1.0 }

(* 3.14159265358979311599... < pi < 3.14159265358979356009... *)
let pi =
  let p = 4.0 *. Float.atan 1.0 in
  { lo = R.next_down p; hi = R.next_up p }
[@@lint.fp_exact "4*atan 1 nearest-rounded, then nudged one ulp each way; brackets checked against the expansion above"]

let two_pi = { lo = R.next_down (2.0 *. pi.lo); hi = R.next_up (2.0 *. pi.hi) }
[@@lint.fp_exact "products with exact 2.0 nudged outward"]
let half_pi = { lo = R.next_down (0.5 *. pi.lo); hi = R.next_up (0.5 *. pi.hi) }
[@@lint.fp_exact "products with exact 0.5 nudged outward"]
let entire = { lo = Float.neg_infinity; hi = Float.infinity }
let lo x = x.lo
let hi x = x.hi
let mid x =
  if x.lo = Float.neg_infinity && x.hi = Float.infinity then 0.0
  else if x.lo = Float.neg_infinity then x.hi
  else if x.hi = Float.infinity then x.lo
  else
    let m = 0.5 *. (x.lo +. x.hi) in
    if m < x.lo then x.lo else if m > x.hi then x.hi else m
[@@lint.fp_exact "any point of the interval is an admissible midpoint; the clamp keeps it inside"]

let width x = R.sub_up x.hi x.lo
let rad x = 0.5 *. width x
[@@lint.fp_exact "heuristic size measure; enclosure logic reads lo/hi directly"]
let mag x = Float.max (Float.abs x.lo) (Float.abs x.hi)

let mig x =
  if x.lo <= 0.0 && x.hi >= 0.0 then 0.0
  else Float.min (Float.abs x.lo) (Float.abs x.hi)

let contains x v = x.lo <= v && v <= x.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi
let intersects a b = a.lo <= b.hi && b.lo <= a.hi
let equal a b = Float.equal a.lo b.lo && Float.equal a.hi b.hi
let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let meet a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if Float.is_nan lo || Float.is_nan hi then
    numeric_error "Interval.meet: NaN bound (operands [%h,%h] [%h,%h])" a.lo
      a.hi b.lo b.hi
  else if lo > hi then None
  else Some { lo; hi }

let meet_exn a b = match meet a b with Some m -> m | None -> raise Empty_meet

let bisect x =
  let m = mid x in
  ({ lo = x.lo; hi = m }, { lo = m; hi = x.hi })

let inflate x eps =
  if not (Float.is_finite eps) then
    numeric_error "Interval.inflate: non-finite epsilon %h" eps;
  if eps < 0.0 then invalid_arg "Interval.inflate: negative epsilon";
  { lo = R.sub_down x.lo eps; hi = R.add_up x.hi eps }

let is_degenerate x = Float.equal x.lo x.hi
let is_bounded x = Float.is_finite x.lo && Float.is_finite x.hi
let neg x = { lo = -.x.hi; hi = -.x.lo }

(* An exact-zero operand gives an exact result, so the operations below
   return it without the outward nudge: 0 + y = y and 0 * y = 0 for
   every real y, and an infinite bound of y is still a bound of y.
   Nudging instead turns each zero into [-4.9e-324, 4.9e-324], and
   products with those subnormals take the processor's slow path.

   Both bounds are +0 or -0 exactly when lo >= 0 and hi <= 0, since
   lo <= hi; a NaN bound fails both.  This takes two plain comparisons;
   testing each bound with [Float.equal], a three-way compare, made
   the ACAS direct step about a fifth slower (x86-64). *)
let is_zero x = x.lo >= 0.0 && x.hi <= 0.0

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else { lo = R.add_down a.lo b.lo; hi = R.add_up a.hi b.hi }

let sub a b =
  if is_zero b then a
  else if is_zero a then neg b
  else { lo = R.sub_down a.lo b.hi; hi = R.sub_up a.hi b.lo }

(* Products of endpoint pairs; 0 * inf is treated as 0 since an infinite
   endpoint only arises from unbounded intervals where the other factor
   bound still applies. *)
let ( *.. ) a b =
  let p = a *. b in
  if Float.is_nan p then 0.0 else p
[@@lint.fp_exact "raw endpoint products; mul nudges the min/max outward afterwards"]

(* Float.min/max order -0 below +0 through a C call; the nudge below
   sends both zeros to the same subnormal, and endpoint products are
   never NaN, so a plain comparison gives the same bits. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let mul a b =
  if is_zero a || is_zero b then zero
  else
    let p1 = a.lo *.. b.lo and p2 = a.lo *.. b.hi in
    let p3 = a.hi *.. b.lo and p4 = a.hi *.. b.hi in
    let lo = fmin (fmin p1 p2) (fmin p3 p4) in
    let hi = fmax (fmax p1 p2) (fmax p3 p4) in
    { lo = R.next_down lo; hi = R.next_up hi }

let inv x =
  if contains x 0.0 then raise Division_by_zero_interval;
  { lo = R.div_down 1.0 x.hi; hi = R.div_up 1.0 x.lo }

(* The divisor check comes first, so a zero dividend still raises on a
   divisor that contains 0. *)
let div a b =
  if contains b 0.0 then raise Division_by_zero_interval;
  if is_zero a then zero else mul a (inv b)

let add_float x c =
  if Float.equal c 0.0 then x
  else { lo = R.add_down x.lo c; hi = R.add_up x.hi c }

(* c = 0 against an infinite bound of x is 0 * inf: the product with a
   zero factor is zero, as in [mul]. *)
let mul_float c x =
  if Float.equal c 0.0 || is_zero x then zero
  else if c > 0.0 then { lo = R.mul_down c x.lo; hi = R.mul_up c x.hi }
  else { lo = R.mul_down c x.hi; hi = R.mul_up c x.lo }

let sqr x =
  let m = mig x and g = mag x in
  { lo = R.mul_down m m; hi = R.mul_up g g }

let sqrt x =
  if x.hi < 0.0 then invalid_arg "Interval.sqrt: negative interval";
  let lo = if x.lo <= 0.0 then 0.0 else R.sqrt_down x.lo in
  { lo; hi = R.sqrt_up x.hi }

let pow_int x n =
  if n < 0 then invalid_arg "Interval.pow_int: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n asr 1)
  in
  if n = 0 then one
  else if n land 1 = 0 then
    (* even power: reduce to |x|^n so the result stays nonnegative tight *)
    let m = mig x and g = mag x in
    go one { lo = m; hi = g } n
  else go one x n

let abs x = { lo = mig x; hi = mag x }
let min_ a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let max_ a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
let exp x = { lo = Float.max 0.0 (R.lib_down (Float.exp x.lo)); hi = R.lib_up (Float.exp x.hi) }
[@@lint.fp_exact "libm calls bracketed by the lib_down/lib_up margin"]

let log x =
  if x.hi <= 0.0 then invalid_arg "Interval.log: non-positive interval";
  let lo =
    if x.lo <= 0.0 then Float.neg_infinity else R.lib_down (Float.log x.lo)
  in
  { lo; hi = R.lib_up (Float.log x.hi) }
[@@lint.fp_exact "libm calls bracketed by the lib_down/lib_up margin"]

let atan x = { lo = R.lib_down (Float.atan x.lo); hi = R.lib_up (Float.atan x.hi) }
[@@lint.fp_exact "libm calls bracketed by the lib_down/lib_up margin"]

(* Does [a, b] possibly contain a point k * p (k integer)?  The quotients
   are computed in round-to-nearest and the test is padded with an
   absolute slack, so it can only err towards "yes" for the magnitudes
   (|a|, |b| < 1e6) used here, which merely widens enclosures. *)
let maybe_contains_multiple p a b =
  let slack = 1e-9 in
  let q1 = Float.ceil ((a /. p) -. slack) and q2 = Float.floor ((b /. p) +. slack) in
  q2 >= q1
[@@lint.fp_exact "padded quotient test can only err towards wider enclosures (see comment)"]

let clamp_unit x = { lo = Float.max (-1.0) x.lo; hi = Float.min 1.0 x.hi }

let cos x =
  if not (is_bounded x) || width x >= two_pi.lo then { lo = -1.0; hi = 1.0 }
  else
    let ca = Float.cos x.lo and cb = Float.cos x.hi in
    let lo = R.lib_down (Float.min ca cb) and hi = R.lib_up (Float.max ca cb) in
    (* max 1 reached at even multiples of pi, min -1 at odd multiples *)
    let hi = if maybe_contains_multiple two_pi.lo x.lo x.hi then 1.0 else hi in
    let lo =
      if maybe_contains_multiple two_pi.lo (x.lo -. pi.lo) (x.hi -. pi.lo) then -1.0 else lo
    in
    clamp_unit { lo; hi }
[@@lint.fp_exact "libm cosines bracketed by lib margins; extrema handled via maybe_contains_multiple"]

let sin x = cos (sub x half_pi)

let atan2 y x =
  let meets_origin = contains x 0.0 && contains y 0.0 in
  let meets_cut = x.lo < 0.0 && contains y 0.0 in
  if (not (is_bounded x)) || (not (is_bounded y)) || meets_origin || meets_cut then
    { lo = -.pi.hi; hi = pi.hi }
  else
    (* Away from the origin and the branch cut the extremal angles over a
       box are attained at its corners (the supporting rays through the
       origin touch the convex box at vertices). *)
    let c1 = Float.atan2 y.lo x.lo and c2 = Float.atan2 y.lo x.hi in
    let c3 = Float.atan2 y.hi x.lo and c4 = Float.atan2 y.hi x.hi in
    let lo = Float.min (Float.min c1 c2) (Float.min c3 c4) in
    let hi = Float.max (Float.max c1 c2) (Float.max c3 c4) in
    {
      lo = Float.max (-.pi.hi) (R.lib_down lo);
      hi = Float.min pi.hi (R.lib_up hi);
    }
[@@lint.fp_exact
  "corner atan2 values bracketed by lib margins and clamped to the \
   rigorous pi enclosure"]

let pp fmt x = Format.fprintf fmt "[%.17g, %.17g]" x.lo x.hi
let to_string x = Format.asprintf "%a" pp x
