(* Property tests for the directed-rounding kernel.  The paper's whole
   soundness story rests on Rounding.*_down/_up bracketing the exact
   real result, so these tests verify the brackets with error-free
   transformations: TwoSum gives the exact addition error, and fma gives
   exact residuals for multiplication, division and square root — no
   appeal to a second rounding library needed. *)

module R = Nncs_interval.Rounding

(* ----- generators ----- *)

(* floats drawn uniformly from the *bit* representation: exercises
   subnormals, huge/tiny magnitudes, both zeros *)
let finite_float_gen =
  QCheck.Gen.(
    let* hi = int_bound 0xFFFF in
    let* mid = int_bound 0xFFFFFF in
    let* lo = int_bound 0xFFFFFF in
    let bits =
      Int64.(
        logor
          (shift_left (of_int hi) 48)
          (logor (shift_left (of_int mid) 24) (of_int lo)))
    in
    let x = Int64.float_of_bits bits in
    return (if Float.is_finite x then x else 1.0))

(* moderate-magnitude floats for arithmetic properties: keeps the
   error-free transformations themselves free of over/underflow *)
let mid_float_gen =
  QCheck.Gen.(
    let* mantissa = float_range (-1.0) 1.0 in
    let* e = int_range (-30) 30 in
    return (Float.ldexp mantissa e))

let arb_mid_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%h, %h)" a b)
    QCheck.Gen.(tup2 mid_float_gen mid_float_gen)

let arb_mid = QCheck.make ~print:(Printf.sprintf "%h") mid_float_gen

let arb_any_finite =
  QCheck.make ~print:(Printf.sprintf "%h") finite_float_gen

(* ----- exact bracketing checks ----- *)

(* TwoSum (Knuth): s + e = a + b exactly, for any finite a b without
   overflow.  [a +. b] lies within one ulp of the true sum, and the
   float gaps [s - next_down s] / [next_up s - s] are exact floats, so
   all comparisons below are exact. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  let e = (a -. (s -. bb)) +. (b -. bb) in
  (s, e)

let brackets_via_two_sum lo hi a b =
  let s, e = two_sum a b in
  if e = 0.0 then lo <= s && s <= hi
  else if e > 0.0 then lo <= s && e <= hi -. s
  else s <= hi && -.e <= s -. lo

let prop_add_brackets =
  QCheck.Test.make ~count:2000 ~name:"add_down/up bracket the exact sum"
    arb_mid_pair (fun (a, b) ->
      brackets_via_two_sum (R.add_down a b) (R.add_up a b) a b)

let prop_sub_brackets =
  QCheck.Test.make ~count:2000 ~name:"sub_down/up bracket the exact difference"
    arb_mid_pair (fun (a, b) ->
      brackets_via_two_sum (R.sub_down a b) (R.sub_up a b) a (-.b))

(* For mul/div/sqrt the residual sign from a single fma is exact, which
   turns "x <= true result" into a float comparison. *)
let prop_mul_brackets =
  QCheck.Test.make ~count:2000 ~name:"mul_down/up bracket the exact product"
    arb_mid_pair (fun (a, b) ->
      let lo = R.mul_down a b and hi = R.mul_up a b in
      (* sign of (a*b - x) is the sign of fma a b (-x) *)
      Float.fma a b (-.lo) >= 0.0 && Float.fma a b (-.hi) <= 0.0)

let prop_div_brackets =
  QCheck.Test.make ~count:2000 ~name:"div_down/up bracket the exact quotient"
    arb_mid_pair (fun (a, b) ->
      QCheck.assume (b <> 0.0);
      let lo = R.div_down a b and hi = R.div_up a b in
      (* x <= a/b  <=>  x*b <= a (b>0) / x*b >= a (b<0); residual sign
         of fma x b (-a) decides exactly *)
      let r_lo = Float.fma lo b (-.a) and r_hi = Float.fma hi b (-.a) in
      if b > 0.0 then r_lo <= 0.0 && r_hi >= 0.0
      else r_lo >= 0.0 && r_hi <= 0.0)

let prop_sqrt_brackets =
  QCheck.Test.make ~count:2000 ~name:"sqrt_down/up bracket the exact root"
    arb_mid (fun a ->
      let a = Float.abs a in
      let lo = R.sqrt_down a and hi = R.sqrt_up a in
      (* lo <= sqrt a  <=>  lo < 0 or lo^2 <= a; fma gives the exact
         residual of the squares *)
      (lo < 0.0 || Float.fma lo lo (-.a) <= 0.0)
      && Float.fma hi hi (-.a) >= 0.0)

(* ----- next_up / next_down ----- *)

(* order-preserving integer encoding of IEEE doubles: adjacent floats
   map to adjacent integers *)
let ordered_bits x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L >= 0 then b else Int64.sub Int64.min_int b

let prop_next_up_adjacent =
  QCheck.Test.make ~count:2000 ~name:"next_up is the adjacent float"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      let u = R.next_up x in
      u > x && Int64.sub (ordered_bits u) (ordered_bits x) = 1L)

let prop_next_down_adjacent =
  QCheck.Test.make ~count:2000 ~name:"next_down is the adjacent float"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      let d = R.next_down x in
      d < x && Int64.sub (ordered_bits x) (ordered_bits d) = 1L)

let prop_next_inverse =
  QCheck.Test.make ~count:2000 ~name:"next_down (next_up x) = x"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      R.next_down (R.next_up x) = x && R.next_up (R.next_down x) = x)

let test_next_specials () =
  let check = Alcotest.(check bool) in
  check "up inf" true (R.next_up Float.infinity = Float.infinity);
  check "down -inf" true (R.next_down Float.neg_infinity = Float.neg_infinity);
  check "up -inf leaves the infinity" true
    (R.next_up Float.neg_infinity = -.Float.max_float);
  check "down inf" true (R.next_down Float.infinity = Float.max_float);
  check "up nan" true (Float.is_nan (R.next_up Float.nan));
  check "down nan" true (Float.is_nan (R.next_down Float.nan));
  check "up 0 is min subnormal" true
    (R.next_up 0.0 = Int64.float_of_bits 1L);
  check "up -0 equals up +0" true (R.next_up (-0.0) = R.next_up 0.0);
  check "down min subnormal is 0" true
    (R.next_down (Int64.float_of_bits 1L) = 0.0);
  check "up max_float overflows to inf" true
    (R.next_up Float.max_float = Float.infinity);
  (* crossing zero downward lands on the negative subnormals *)
  check "down 0 is -min subnormal" true
    (R.next_down 0.0 = -.Int64.float_of_bits 1L)

(* ----- next_up / next_down bit for bit ----- *)

(* [next_up]/[next_down] are float arithmetic with branches for the
   tiny, the scaled and the non-finite ranges; the Stdlib's
   [Float.succ]/[Float.pred] (C nextafter) are the reference.  Bits are
   compared, so -0 and +0 differ; a NaN only has to give a NaN, since
   the reference may quieten a signalling one. *)
let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_nudges x =
  let check name got want =
    if not (same_bits got want) then
      Alcotest.failf "%s %h (bits %016Lx): got %h (bits %016Lx), want %h" name
        x (Int64.bits_of_float x) got (Int64.bits_of_float got) want
  in
  check "next_up" (R.next_up x) (Float.succ x);
  check "next_down" (R.next_down x) (Float.pred x)

let float_of_fields ~neg ~exp ~mant =
  let sign = if neg then Int64.min_int else 0L in
  Int64.(float_of_bits (logor sign (logor (shift_left (of_int exp) 52) mant)))

let test_next_bits () =
  (* every biased exponent, subnormals, infinities and NaNs included,
     with mantissas at both ends and the middle of the binade *)
  let mantissas =
    Int64.
      [
        0L; 1L; 2L;
        sub (shift_left 1L 51) 1L; shift_left 1L 51; add (shift_left 1L 51) 1L;
        sub (shift_left 1L 52) 2L; sub (shift_left 1L 52) 1L;
      ]
  in
  for exp = 0 to 2047 do
    List.iter
      (fun mant ->
        check_nudges (float_of_fields ~neg:false ~exp ~mant);
        check_nudges (float_of_fields ~neg:true ~exp ~mant))
      mantissas
  done;
  (* the branch boundaries and their neighbours *)
  List.iter
    (fun b ->
      List.iter
        (fun x ->
          check_nudges x;
          check_nudges (-.x))
        [ b; Float.succ b; Float.pred b ])
    [ 0.0; 0x1p-1074; 0x1p-1022; 0x1p-1021; 0x1p-969; Float.max_float ];
  (* a seeded sweep of the tiny and scaled ranges, |x| < 2^-960 *)
  let st = Random.State.make [| 26 |] in
  for _ = 1 to 1_000_000 do
    let mant = Random.State.int64 st (Int64.shift_left 1L 52) in
    let exp = Random.State.int st (1023 - 960) in
    check_nudges (float_of_fields ~neg:(Random.State.bool st) ~exp ~mant)
  done

let prop_next_bits =
  QCheck.Test.make ~count:100_000
    ~name:"next_up/down = Float.succ/pred on any bit pattern"
    (QCheck.make
       ~print:(fun b -> Printf.sprintf "%016Lx" b)
       QCheck.Gen.int64)
    (fun bits ->
      check_nudges (Int64.float_of_bits bits);
      true)

let test_directed_specials () =
  let check = Alcotest.(check bool) in
  (* 0.1 + 0.2 is the classic inexact sum *)
  check "add strict" true (R.add_down 0.1 0.2 < 0.1 +. 0.2);
  check "lib margin is 4 ulps" true
    (R.lib_up 1.0 = R.next_up (R.next_up (R.next_up (R.next_up 1.0))));
  check "sqrt 2 bracket" true
    (let s = R.sqrt_down 2.0 and u = R.sqrt_up 2.0 in
     (s *. s < 2.0 || Float.fma s s (-2.0) <= 0.0)
     && Float.fma u u (-2.0) >= 0.0)

let () =
  Alcotest.run "rounding"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_brackets;
            prop_sub_brackets;
            prop_mul_brackets;
            prop_div_brackets;
            prop_sqrt_brackets;
            prop_next_up_adjacent;
            prop_next_down_adjacent;
            prop_next_inverse;
            prop_next_bits;
          ] );
      ( "specials",
        [
          Alcotest.test_case "next_up/down special values" `Quick
            test_next_specials;
          Alcotest.test_case "next_up/down bit for bit" `Quick test_next_bits;
          Alcotest.test_case "directed op spot checks" `Quick
            test_directed_specials;
        ] );
    ]
