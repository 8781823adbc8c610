(* Directed rounding emulated with ulp nudges on top of round-to-nearest.

   The successor of a finite nonzero double steps its payload: up when
   positive, down when negative (symmetrically for the predecessor).
   Zeros, infinities and NaN go to the Stdlib's IEEE nextUp/nextDown
   ([Float.succ], [Float.pred]).  Those call C [nextafter]: sending
   every nudge through it made a symbolic F# propagation on the ACAS
   networks about 10 % slower (x86-64, glibc), so the common case stays
   inline. *)

[@@@lint.fp_exact
  "this module IS the directed-rounding implementation: every \
   nearest-rounded op below is deliberately followed by a ulp nudge \
   (or 4-ulp libm margin) in the safe direction"]

let next_up x =
  if x > 0.0 && x < Float.infinity then Int64.(float_of_bits (succ (bits_of_float x)))
  else if x < 0.0 then Int64.(float_of_bits (pred (bits_of_float x)))
  else Float.succ x

let next_down x =
  if x < 0.0 && x > Float.neg_infinity then Int64.(float_of_bits (succ (bits_of_float x)))
  else if x > 0.0 then Int64.(float_of_bits (pred (bits_of_float x)))
  else Float.pred x

let rec steps_up n x = if n <= 0 then x else steps_up (n - 1) (next_up x)
let rec steps_down n x = if n <= 0 then x else steps_down (n - 1) (next_down x)

(* +/-/*/÷ and sqrt are correctly rounded by IEEE-754, so the true result
   lies within one ulp of the computed one: a single nudge suffices.  It
   is applied even when the operation happens to be exact.  Interval
   skips the call for an exact-zero operand, the case that matters (a
   nudged zero is a subnormal); telling an exact nonzero result apart
   would need an error-free transformation per operation. *)

let add_down a b = next_down (a +. b)
let add_up a b = next_up (a +. b)
let sub_down a b = next_down (a -. b)
let sub_up a b = next_up (a -. b)
let mul_down a b = next_down (a *. b)
let mul_up a b = next_up (a *. b)
let div_down a b = next_down (a /. b)
let div_up a b = next_up (a /. b)
let sqrt_down a = next_down (sqrt a)
let sqrt_up a = next_up (sqrt a)

(* libm transcendentals are typically faithful to < 2 ulps; 4 ulps of
   slack is a comfortable, cheap margin. *)

let lib_down x = steps_down 4 x
let lib_up x = steps_up 4 x
