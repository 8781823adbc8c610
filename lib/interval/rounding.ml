(* Directed rounding emulated with ulp nudges on top of round-to-nearest.

   The successor of a finite nonzero double steps its payload: up when
   positive, down when negative (symmetrically for the predecessor).  A
   zero of either sign steps to the smallest subnormal of the wanted
   sign, the value the Stdlib's IEEE nextUp/nextDown return.  Only
   infinities and NaN still go to [Float.succ]/[Float.pred], which call
   C [nextafter]: sending every nudge through it made a symbolic F#
   propagation on the ACAS networks about 10 % slower (x86-64, glibc).

   [next_up], [next_down] and the eight +, -, *, / wrappers are
   [@inline]: inlined into the caller, a nudged sum or product stays an
   unboxed float, where an out-of-line call boxes its arguments and its
   result.  The default inlining threshold does not inline [next_up].
   Cross-module inlining needs a build without [-opaque], which is why
   the root [dune-workspace] selects the release profile. *)

[@@@lint.fp_exact
  "this module IS the directed-rounding implementation: every \
   nearest-rounded op below is deliberately followed by a ulp nudge \
   (or 4-ulp libm margin) in the safe direction"]

let[@inline] next_up x =
  if x > 0.0 && x < Float.infinity then Int64.(float_of_bits (succ (bits_of_float x)))
  else if x < 0.0 then Int64.(float_of_bits (pred (bits_of_float x)))
  else if x = 0.0 then 0x1p-1074
  else Float.succ x

let[@inline] next_down x =
  if x < 0.0 && x > Float.neg_infinity then Int64.(float_of_bits (succ (bits_of_float x)))
  else if x > 0.0 then Int64.(float_of_bits (pred (bits_of_float x)))
  else if x = 0.0 then -0x1p-1074
  else Float.pred x

let rec steps_up n x = if n <= 0 then x else steps_up (n - 1) (next_up x)
let rec steps_down n x = if n <= 0 then x else steps_down (n - 1) (next_down x)

(* +/-/*/÷ and sqrt are correctly rounded by IEEE-754, so the true result
   lies within one ulp of the computed one: a single nudge suffices.  It
   is applied even when the operation happens to be exact.  Interval
   skips the call for an exact-zero operand, the case that matters (a
   nudged zero is a subnormal); telling an exact nonzero result apart
   would need an error-free transformation per operation. *)

let[@inline] add_down a b = next_down (a +. b)
let[@inline] add_up a b = next_up (a +. b)
let[@inline] sub_down a b = next_down (a -. b)
let[@inline] sub_up a b = next_up (a -. b)
let[@inline] mul_down a b = next_down (a *. b)
let[@inline] mul_up a b = next_up (a *. b)
let[@inline] div_down a b = next_down (a /. b)
let[@inline] div_up a b = next_up (a /. b)
let sqrt_down a = next_down (sqrt a)
let sqrt_up a = next_up (sqrt a)

(* libm transcendentals are typically faithful to < 2 ulps; 4 ulps of
   slack is a comfortable, cheap margin. *)

let lib_down x = steps_down 4 x
let lib_up x = steps_up 4 x
