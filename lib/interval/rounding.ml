(* Directed rounding emulated with ulp nudges on top of round-to-nearest.

   [next_up]/[next_down] return exactly what IEEE nextUp/nextDown
   ([Float.succ]/[Float.pred]) return, bit for bit, using float
   arithmetic only.  Let phi = 2^-53 (1 + 2^-52), g the gap from x to
   the neighbour wanted and c the nearest-rounded |x| * phi.

   - Finite |x| >= 2^-969: next_up x = x + c, next_down x = x - c.
     Write |x| = m 2^e with 1 <= m < 2 and u = 2^(e-52), x's ulp.  The
     exact |x| phi = m (1 + 2^-52) u/2 lies in [(1 + 2^-52) u/2,
     (1 + 2^-53) u): normal, since |x| phi >= 2^-1022.  Both
     (1 + 2^-52) u/2 and u are floats, and (1 + 2^-53) u is the midpoint
     above u, so c lies in [(1 + 2^-52) u/2, u].  Away from zero g = u,
     and towards zero too unless m = 1, so g/2 < c <= g: the sum lies
     past the midpoint between x and its neighbour and not beyond the
     neighbour.  At m = 1 towards zero g = u/2 and c = (1 + 2^-52) g
     exactly: the sum passes the neighbour by 2^-52 g, far short of the
     next midpoint.  Either way no tie is possible, and the sum rounds
     onto the neighbour, at binade edges and for both signs.  It does
     so too when a backend fuses the product and the sum into one FMA:
     the exact product is above g/2 and at most (1 + 2^-52) g.  At
     +-max_float the sum passes max_float + u/2 and overflows to
     +-infinity, which is also what nextUp/nextDown give.  The
     construction is that of S. M. Rump, P. Zimmermann, S. Boldo and
     G. Melquiond, "Computing predecessor and successor in rounding to
     nearest", BIT 49 (2009); the branches below make it exact
     everywhere, so their underflow term eta is not needed.
   - |x| < 2^-1021: the gap is 2^-1074 on both sides, so the answer is
     x +- 2^-1074, an exact sum.  One exception: nextUp (-2^-1074) is
     -0, where the sum gives +0.  nextDown 2^-1074 is +0, as the sum.
   - 2^-1021 <= |x| < 2^-969: scale by 2^200, apply the formula, and
     scale back by 2^-200.  x and its neighbour are normal, so both
     scalings are exact and the lattice maps onto itself.
   - Infinities and NaN return constants or x: nextUp (-infinity) =
     -max_float, nextDown infinity = max_float, and every other case
     returns x.

   No call on any path, cold paths included.  The nudges and the eight
   +, -, *, / wrappers are [@inline], so they are inlined into F#'s
   term loop and every [Interval] op, where a nudged sum or product
   stays an unboxed float in a register.  A C call anywhere in the
   inlined code, even on a branch never taken, clobbers every float
   register, and ocamlopt then spills the caller's live floats around
   it.  That rules out [Float.succ]/[Float.pred] (C [nextafter]) and
   stepping the bits: on OCaml 5.1 [Int64.bits_of_float] and
   [Int64.float_of_bits] are C calls too, and with them an F# query on
   the ACAS networks took about 220 us instead of 170 (x86-64).  CI
   checks with [nm -u] that the objects of Rounding, Interval and
   Symbolic_prop reference none of the three.  Cross-module inlining
   also needs a build without [-opaque], which is why the root
   [dune-workspace] selects the release profile. *)

[@@@lint.fp_exact
  "this module IS the directed-rounding implementation: every \
   nearest-rounded op below is deliberately followed by a ulp nudge \
   (or 4-ulp libm margin) in the safe direction"]

let phi = 0x1.0000000000001p-53

(* [Float.max_float] and the infinities are fields of another module's
   block, read from memory where used: the literal is a constant *)
let max_finite = 0x1.fffffffffffffp1023

let[@inline] next_up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_finite then x +. (a *. phi)
  else if a < 0x1p-1021 then
    if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else if a < 0x1p-969 then
    let y = x *. 0x1p200 in
    (y +. (Float.abs y *. phi)) *. 0x1p-200
  else if x < 0.0 then -.max_finite
  else x

let[@inline] next_down x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_finite then x -. (a *. phi)
  else if a < 0x1p-1021 then x -. 0x1p-1074
  else if a < 0x1p-969 then
    let y = x *. 0x1p200 in
    (y -. (Float.abs y *. phi)) *. 0x1p-200
  else if x > 0.0 then max_finite
  else x

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
