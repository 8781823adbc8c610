(* Tests for the interval / box foundation: unit cases plus qcheck
   soundness properties (every interval operation must contain the
   concrete operation applied to members). *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-12))

(* ----- generators ----- *)

(* Mostly bounded intervals, some with an endpoint snapped to a signed
   zero, plus exact zeros of both signs and unbounded intervals: the
   operations short-cut an exact-zero operand and must stay sound
   against infinite bounds. *)
let signed_zero_gen = QCheck.Gen.oneofl [ 0.0; -0.0 ]

let interval_gen =
  QCheck.Gen.(
    let bounded =
      let* a = float_range (-1000.0) 1000.0 in
      let* w = float_range 0.0 100.0 in
      let* z = signed_zero_gen in
      frequency
        [
          (8, return (I.make a (a +. w)));
          (1, return (I.make z w));
          (1, return (I.make (-.w) z));
        ]
    in
    let exact_zero =
      let* lo = signed_zero_gen in
      let* hi = signed_zero_gen in
      return (I.make lo hi)
    in
    let unbounded =
      let* a = float_range (-1000.0) 1000.0 in
      oneofl
        [ I.make Float.neg_infinity a; I.make a Float.infinity; I.entire ]
    in
    frequency [ (8, bounded); (1, exact_zero); (1, unbounded) ])

let arb_interval = QCheck.make ~print:I.to_string interval_gen

(* a finite member; an infinite side is replaced by a finite reach
   beyond the other bound *)
let member_gen iv =
  QCheck.Gen.(
    let lo = I.lo iv and hi = I.hi iv in
    let* t = float_range 0.0 1.0 in
    let* d = float_range 0.0 1000.0 in
    let v =
      match (Float.is_finite lo, Float.is_finite hi) with
      | true, true -> lo +. (t *. (hi -. lo))
      | true, false -> lo +. d
      | false, true -> hi -. d
      | false, false -> d -. 500.0
    in
    return (Float.max lo (Float.min hi v)))

let arb_interval_member =
  QCheck.make
    ~print:(fun (iv, x) -> Printf.sprintf "%s ∋ %.17g" (I.to_string iv) x)
    QCheck.Gen.(
      let* iv = interval_gen in
      let* x = member_gen iv in
      return (iv, x))

let arb_two_members =
  QCheck.make
    ~print:(fun ((i1, x1), (i2, x2)) ->
      Printf.sprintf "%s ∋ %.17g / %s ∋ %.17g" (I.to_string i1) x1
        (I.to_string i2) x2)
    QCheck.Gen.(
      let* i1 = interval_gen in
      let* x1 = member_gen i1 in
      let* i2 = interval_gen in
      let* x2 = member_gen i2 in
      return ((i1, x1), (i2, x2)))

(* ----- rounding ----- *)

let test_next_up_down () =
  check "next_up strictly increases" true (R.next_up 1.0 > 1.0);
  check "next_down strictly decreases" true (R.next_down 1.0 < 1.0);
  check "next_up of 0" true (R.next_up 0.0 > 0.0);
  check "next_down of 0" true (R.next_down 0.0 < 0.0);
  check "next_up of negative" true (R.next_up (-1.0) > -1.0);
  checkf "roundtrip" 1.0 (R.next_down (R.next_up 1.0));
  check "inf fixed point" true (R.next_up Float.infinity = Float.infinity)

let test_directed_ops () =
  check "add bounds" true (R.add_down 0.1 0.2 <= 0.3 && 0.3 <= R.add_up 0.1 0.2);
  check "add_down < add_up" true (R.add_down 0.1 0.2 < R.add_up 0.1 0.2);
  check "mul bounds" true
    (R.mul_down 0.1 0.1 <= 0.01 && 0.01 <= R.mul_up 0.1 0.1);
  check "div bounds" true (R.div_down 1.0 3.0 < 1.0 /. 3.0 +. 1e-18)

(* ----- interval construction and set ops ----- *)

let test_make_invalid () =
  Alcotest.check_raises "inverted bounds"
    (Invalid_argument "Interval.make: invalid bounds [0x1p+0, 0x0p+0]")
    (fun () -> ignore (I.make 1.0 0.0))

let test_set_ops () =
  let a = I.make 0.0 2.0 and b = I.make 1.0 3.0 in
  check "intersects" true (I.intersects a b);
  check "hull" true (I.equal (I.hull a b) (I.make 0.0 3.0));
  (match I.meet a b with
  | Some m -> check "meet" true (I.equal m (I.make 1.0 2.0))
  | None -> Alcotest.fail "meet should not be empty");
  check "disjoint meet" true (I.meet (I.make 0.0 1.0) (I.make 2.0 3.0) = None);
  check "subset" true (I.subset (I.make 0.5 1.5) a);
  check "not subset" false (I.subset b a);
  let l, r = I.bisect a in
  check "bisect covers" true (I.equal (I.hull l r) a);
  checkf "bisect midpoint" 1.0 (I.hi l)

let test_metrics () =
  let a = I.make (-2.0) 6.0 in
  checkf "mid" 2.0 (I.mid a);
  check "width >= 8" true (I.width a >= 8.0);
  checkf "mag" 6.0 (I.mag a);
  checkf "mig (contains 0)" 0.0 (I.mig a);
  checkf "mig (positive)" 1.0 (I.mig (I.make 1.0 2.0));
  check "degenerate" true (I.is_degenerate (I.of_float 3.0))

(* ----- exact zeros ----- *)

let same_bits a b =
  Int64.equal (Int64.bits_of_float (I.lo a)) (Int64.bits_of_float (I.lo b))
  && Int64.equal (Int64.bits_of_float (I.hi a)) (Int64.bits_of_float (I.hi b))

(* an exact-zero operand gives the exact result, without the outward
   nudge that would turn a zero into a subnormal interval *)
let test_exact_zero_rule () =
  List.iter
    (fun x ->
      let s = I.to_string x in
      check ("add zero " ^ s) true (same_bits (I.add I.zero x) x);
      check ("add " ^ s ^ " zero") true (same_bits (I.add x I.zero) x);
      check ("sub " ^ s ^ " zero") true (same_bits (I.sub x I.zero) x);
      check ("add_float " ^ s ^ " 0") true (same_bits (I.add_float x 0.0) x))
    [ I.entire; I.make 1.0 2.0; I.make (-0.0) 3.0; I.make 0.1 0.3 ];
  let is_zero name x = check name true (I.equal x I.zero) in
  is_zero "mul zero entire" (I.mul I.zero I.entire);
  is_zero "mul entire -zero" (I.mul I.entire (I.neg I.zero));
  is_zero "div zero 3" (I.div I.zero (I.of_float 3.0));
  is_zero "div (neg zero) 2" (I.div (I.neg I.zero) (I.of_float 2.0));
  is_zero "mul_float 2 zero" (I.mul_float 2.0 I.zero);
  (* regression: 0 * inf gave mul_float 0.0 NaN bounds on an unbounded
     interval *)
  List.iter
    (fun x -> is_zero ("mul_float 0 " ^ I.to_string x) (I.mul_float 0.0 x))
    [ I.entire; I.make 1.0 Float.infinity; I.make Float.neg_infinity (-1.0) ];
  check "sub zero x is neg x" true
    (same_bits (I.sub I.zero (I.make 1.0 2.0)) (I.neg (I.make 1.0 2.0)));
  (* the divisor check still comes first *)
  Alcotest.check_raises "div zero by a zero-containing divisor"
    I.Division_by_zero_interval (fun () ->
      ignore (I.div I.zero (I.make (-1.0) 1.0)))

let test_division_by_zero () =
  Alcotest.check_raises "div by zero-containing"
    I.Division_by_zero_interval (fun () ->
      ignore (I.div I.one (I.make (-1.0) 1.0)))

(* ----- transcendental sanity ----- *)

let test_trig_ranges () =
  let s = I.sin (I.make 0.0 10.0) in
  check "sin wide = [-1,1]" true (I.lo s = -1.0 && I.hi s = 1.0);
  let c = I.cos (I.make (-0.1) 0.1) in
  check "cos near 0 hits 1" true (I.hi c = 1.0);
  check "cos near 0 lower" true (I.lo c < 1.0 && I.lo c > 0.99);
  let s2 = I.sin (I.make 0.1 0.2) in
  check "sin monotone region" true (I.lo s2 > 0.0 && I.hi s2 < 0.21)

let test_atan2_quadrants () =
  let quarter = Float.pi /. 4.0 in
  let near x iv = I.lo iv < x +. 1e-9 && I.hi iv > x -. 1e-9 in
  check "q1" true
    (near quarter (I.atan2 (I.of_float 1.0) (I.of_float 1.0)));
  check "q2" true
    (near (3.0 *. quarter) (I.atan2 (I.of_float 1.0) (I.of_float (-1.0))));
  check "q4" true
    (near (-.quarter) (I.atan2 (I.of_float (-1.0)) (I.of_float 1.0)));
  (* crossing the branch cut must fall back to [-pi, pi] *)
  let wide = I.atan2 (I.make (-1.0) 1.0) (I.make (-2.0) (-1.0)) in
  check "branch cut" true (I.lo wide < -3.14 && I.hi wide > 3.14);
  (* box strictly in the upper half plane crossing x = 0 *)
  let up = I.atan2 (I.make 1.0 2.0) (I.make (-1.0) 1.0) in
  check "upper half plane" true
    (I.lo up > 0.0 && I.hi up < Float.pi)

(* ----- qcheck soundness properties ----- *)

let prop_unop name iop fop filter =
  QCheck.Test.make ~count:500 ~name arb_interval_member (fun (iv, x) ->
      QCheck.assume (filter iv x);
      I.contains (iop iv) (fop x))

let prop_binop name iop fop filter =
  QCheck.Test.make ~count:500 ~name arb_two_members
    (fun ((i1, x1), (i2, x2)) ->
      QCheck.assume (filter i2);
      I.contains (iop i1 i2) (fop x1 x2))

(* scalars for mul_float / add_float: signed zeros, and finite values
   of either sign *)
let arb_scalar_member =
  QCheck.make
    ~print:(fun (c, (iv, x)) ->
      Printf.sprintf "%h, %s ∋ %.17g" c (I.to_string iv) x)
    QCheck.Gen.(
      let* c =
        frequency
          [ (1, signed_zero_gen); (4, float_range (-100.0) 100.0) ]
      in
      let* iv = interval_gen in
      let* x = member_gen iv in
      return (c, (iv, x)))

let qcheck_props =
  [
    QCheck.Test.make ~count:500 ~name:"mul_float sound" arb_scalar_member
      (fun (c, (iv, x)) -> I.contains (I.mul_float c iv) (c *. x));
    QCheck.Test.make ~count:500 ~name:"add_float sound" arb_scalar_member
      (fun (c, (iv, x)) -> I.contains (I.add_float iv c) (x +. c));
    prop_binop "add sound" I.add ( +. ) (fun _ -> true);
    prop_binop "sub sound" I.sub ( -. ) (fun _ -> true);
    prop_binop "mul sound" I.mul ( *. ) (fun _ -> true);
    prop_binop "div sound" I.div ( /. ) (fun i -> not (I.contains i 0.0));
    prop_unop "neg sound" I.neg (fun x -> -.x) (fun _ _ -> true);
    prop_unop "sqr sound" I.sqr (fun x -> x *. x) (fun _ _ -> true);
    prop_unop "abs sound" I.abs Float.abs (fun _ _ -> true);
    prop_unop "sqrt sound" I.sqrt Float.sqrt (fun iv _ -> I.lo iv >= 0.0);
    prop_unop "sin sound" I.sin Float.sin (fun _ _ -> true);
    prop_unop "cos sound" I.cos Float.cos (fun _ _ -> true);
    prop_unop "atan sound" I.atan Float.atan (fun _ _ -> true);
    prop_unop "exp sound" I.exp Float.exp (fun iv _ -> I.hi iv < 500.0);
    prop_unop "log sound" I.log Float.log (fun iv _ -> I.lo iv > 0.0);
    QCheck.Test.make ~count:500 ~name:"pow_int sound"
      (QCheck.pair arb_interval_member (QCheck.int_range 0 6))
      (fun ((iv, x), n) ->
        QCheck.assume (I.mag iv < 100.0);
        I.contains (I.pow_int iv n) (Float.pow x (float_of_int n)));
    QCheck.Test.make ~count:500 ~name:"atan2 sound"
      (QCheck.pair arb_interval_member arb_interval_member)
      (fun ((iy, y), (ix, x)) ->
        QCheck.assume (not (x = 0.0 && y = 0.0));
        I.contains (I.atan2 iy ix) (Float.atan2 y x));
    QCheck.Test.make ~count:500 ~name:"hull contains both"
      arb_two_members
      (fun ((i1, x1), (i2, x2)) ->
        let h = I.hull i1 i2 in
        I.contains h x1 && I.contains h x2);
    QCheck.Test.make ~count:500 ~name:"mul subset monotone"
      arb_two_members
      (fun ((i1, _), (i2, _)) ->
        let l, r = I.bisect i1 in
        I.subset (I.mul l i2) (I.mul i1 i2)
        && I.subset (I.mul r i2) (I.mul i1 i2));
    QCheck.Test.make ~count:500 ~name:"bisect halves cover" arb_interval
      (fun iv ->
        let l, r = I.bisect iv in
        I.equal (I.hull l r) iv && I.subset l iv && I.subset r iv);
  ]

(* ----- boxes ----- *)

let test_box_basics () =
  let b = B.of_bounds [| (0.0, 1.0); (2.0, 4.0) |] in
  Alcotest.(check int) "dim" 2 (B.dim b);
  check "contains center" true (B.contains b (B.center b));
  check "contains corner" true (B.contains b [| 0.0; 2.0 |]);
  check "not contains" false (B.contains b [| 0.5; 5.0 |]);
  Alcotest.(check int) "widest dim" 1 (B.widest_dim b);
  check "volume ~2" true (Float.abs (B.volume b -. 2.0) < 1e-9)

let test_box_bisect_split () =
  let b = B.of_bounds [| (0.0, 1.0); (0.0, 2.0) |] in
  let l, r = B.bisect b 1 in
  check "bisect covers" true (B.equal (B.hull l r) b);
  let parts = B.split_dims b [ 0; 1 ] in
  Alcotest.(check int) "split 2 dims -> 4" 4 (List.length parts);
  let hull = List.fold_left B.hull (List.hd parts) parts in
  check "split covers" true (B.equal hull b)

let test_box_corners () =
  let b = B.of_bounds [| (0.0, 1.0); (2.0, 2.0); (3.0, 4.0) |] in
  let cs = B.corners b in
  Alcotest.(check int) "corner count (one degenerate)" 4 (List.length cs);
  List.iter (fun c -> check "corner in box" true (B.contains b c)) cs

let test_box_meet_hull () =
  let a = B.of_bounds [| (0.0, 2.0); (0.0, 2.0) |] in
  let b = B.of_bounds [| (1.0, 3.0); (1.0, 3.0) |] in
  (match B.meet a b with
  | Some m ->
      check "meet" true (B.equal m (B.of_bounds [| (1.0, 2.0); (1.0, 2.0) |]))
  | None -> Alcotest.fail "meet should be non-empty");
  let c = B.of_bounds [| (5.0, 6.0); (0.0, 1.0) |] in
  check "disjoint meet" true (B.meet a c = None);
  check "hull superset" true (B.subset a (B.hull a b) && B.subset b (B.hull a b))

let test_box_distance () =
  let a = B.of_bounds [| (0.0, 2.0); (0.0, 0.0) |] in
  let b = B.of_bounds [| (3.0, 5.0); (4.0, 4.0) |] in
  (* centers (1,0) and (4,4): squared distance 25 (Definition 9) *)
  checkf "squared center distance" 25.0 (B.distance_centers a b)

let () =
  Alcotest.run "interval"
    [
      ( "rounding",
        [
          Alcotest.test_case "next_up/next_down" `Quick test_next_up_down;
          Alcotest.test_case "directed ops" `Quick test_directed_ops;
        ] );
      ( "interval",
        [
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "set operations" `Quick test_set_ops;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "exact zero operands" `Quick test_exact_zero_rule;
          Alcotest.test_case "trig ranges" `Quick test_trig_ranges;
          Alcotest.test_case "atan2 quadrants" `Quick test_atan2_quadrants;
        ] );
      ("interval-properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "box",
        [
          Alcotest.test_case "basics" `Quick test_box_basics;
          Alcotest.test_case "bisect and split" `Quick test_box_bisect_split;
          Alcotest.test_case "corners" `Quick test_box_corners;
          Alcotest.test_case "meet and hull" `Quick test_box_meet_hull;
          Alcotest.test_case "center distance" `Quick test_box_distance;
        ] );
    ]
