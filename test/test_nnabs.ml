(* Abstract transformers: soundness (enclosure of sampled concrete
   evaluations) for all three domains, relative tightness, and the
   split-refinement wrapper. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Rng = Nncs_linalg.Rng
module T = Nncs_nnabs.Transformer
module Sym = Nncs_nnabs.Symbolic_prop

let check = Alcotest.(check bool)

let fig4_network () =
  let hidden =
    {
      Net.weights = Mat.init 2 2 (fun i j -> [| [| -1.0; 4.0 |]; [| 3.0; -8.0 |] |].(i).(j));
      biases = [| 5.0; 6.0 |];
      activation = Act.Relu;
    }
  in
  let output =
    {
      Net.weights = Mat.init 1 2 (fun _ j -> [| -0.5; 1.0 |].(j));
      biases = [| 2.0 |];
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:2 [| hidden; output |]

let random_net rng sizes = Net.create_mlp ~rng ~layer_sizes:sizes

let sample_box rng box =
  Array.init (B.dim box) (fun i ->
      let iv = B.get box i in
      Rng.uniform rng (I.lo iv) (I.hi iv))

let soundness_case domain net box rng samples =
  let out = T.propagate domain net box in
  let ok = ref true in
  for _ = 1 to samples do
    let x = sample_box rng box in
    let y = Net.eval net x in
    if not (B.contains out y) then ok := false
  done;
  !ok

let test_fig4_point () =
  let net = fig4_network () in
  let box = B.of_point [| 1.0; 2.0 |] in
  List.iter
    (fun d ->
      let out = T.propagate d net box in
      check
        (Printf.sprintf "%s contains -4" (T.domain_to_string d))
        true
        (I.contains (B.get out 0) (-4.0));
      check
        (Printf.sprintf "%s tight on point" (T.domain_to_string d))
        true
        (I.width (B.get out 0) < 1e-9))
    [ T.Interval; T.Symbolic; T.Affine ]

let test_fig4_box () =
  let net = fig4_network () in
  let box = B.of_bounds [| (0.0, 2.0); (1.0, 3.0) |] in
  let rng = Rng.create 17 in
  List.iter
    (fun d ->
      check
        (Printf.sprintf "%s sound on fig4" (T.domain_to_string d))
        true
        (soundness_case d net box rng 500))
    [ T.Interval; T.Symbolic; T.Affine ]

let test_symbolic_tighter_than_interval () =
  (* a deep random network exhibits the dependency problem: symbolic
     propagation must be significantly tighter *)
  let rng = Rng.create 23 in
  let net = random_net rng [ 4; 20; 20; 20; 3 ] in
  let box =
    B.of_bounds [| (-0.5, 0.5); (-0.5, 0.5); (-0.5, 0.5); (-0.5, 0.5) |]
  in
  let wi = B.max_width (T.propagate T.Interval net box) in
  let ws = B.max_width (T.propagate T.Symbolic net box) in
  let wa = B.max_width (T.propagate T.Affine net box) in
  check "symbolic substantially tighter" true (ws < 0.8 *. wi);
  (* affine is workload-dependent (its chord-relaxation noise symbols
     accumulate on deep unstable nets) but must stay within a small
     factor of interval; the quantitative comparison is bench E6 *)
  check "affine comparable" true (wa < 2.0 *. wi)

let test_stable_relu_exact_symbolic () =
  (* network with strictly positive pre-activations on the box: symbolic
     propagation is exact (up to rounding) because no relaxation fires *)
  let l1 =
    {
      Net.weights = Mat.init 2 2 (fun i j -> if i = j then 1.0 else 0.0);
      biases = [| 10.0; 10.0 |];
      activation = Act.Relu;
    }
  in
  let l2 =
    {
      Net.weights = Mat.init 1 2 (fun _ j -> [| 1.0; -1.0 |].(j));
      biases = [| 0.0 |];
      activation = Act.Linear;
    }
  in
  let net = Net.make ~input_dim:2 [| l1; l2 |] in
  let box = B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |] in
  let out = T.propagate T.Symbolic net box in
  (* exact range of x - y over the box: [-2, 2] *)
  check "lower near -2" true (Float.abs (I.lo (B.get out 0) +. 2.0) < 1e-6);
  check "upper near 2" true (Float.abs (I.hi (B.get out 0) -. 2.0) < 1e-6);
  (* interval propagation gives the same here (single affine path) but
     with the dependency lost at the output layer it is still exact *)
  let wi = B.max_width (T.propagate T.Interval net box) in
  check "interval also ~4 wide" true (Float.abs (wi -. 4.0) < 1e-6)

let test_split_refinement_tightens () =
  let rng = Rng.create 31 in
  let net = random_net rng [ 2; 16; 16; 2 ] in
  let box = B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |] in
  let w0 = B.max_width (T.propagate T.Interval net box) in
  let w2 = B.max_width (T.propagate_split T.Interval ~splits:2 net box) in
  let w4 = B.max_width (T.propagate_split T.Interval ~splits:4 net box) in
  check "2 splits tighter" true (w2 <= w0);
  check "4 splits tighter" true (w4 <= w2);
  check "strictly tighter somewhere" true (w4 < w0)

let test_meet_all_sound_and_tighter () =
  let rng = Rng.create 37 in
  let net = random_net rng [ 3; 12; 12; 2 ] in
  let box = B.of_bounds [| (-1.0, 1.0); (0.0, 1.0); (-0.2, 0.4) |] in
  let meet = T.meet_all [ T.Interval; T.Symbolic; T.Affine ] net box in
  let rng2 = Rng.create 99 in
  let ok = ref true in
  for _ = 1 to 300 do
    let x = sample_box rng2 box in
    if not (B.contains meet (Net.eval net x)) then ok := false
  done;
  check "meet sound" true !ok;
  List.iter
    (fun d ->
      check "meet within each domain" true
        (B.subset meet (T.propagate d net box)))
    [ T.Interval; T.Symbolic; T.Affine ]

let test_thin_box_sound () =
  (* regression for the inverted-bound case in Symbolic_prop.propagate:
     on thin and degenerate (zero-width) boxes the concretized lower
     bound can land above the upper one by accumulated rounding; the
     result must widen conservatively over both evaluations — the old
     endpoint swap could exclude the true value *)
  let rng = Rng.create 41 in
  for _ = 1 to 40 do
    let net = random_net rng [ 3; 14; 14; 2 ] in
    let c = Array.init 3 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let y = Net.eval net c in
    List.iter
      (fun w ->
        let box = B.of_bounds (Array.map (fun x -> (x -. w, x +. w)) c) in
        let out = T.propagate T.Symbolic net box in
        for i = 0 to B.dim out - 1 do
          let iv = B.get out i in
          check "well-formed output interval" true (I.lo iv <= I.hi iv)
        done;
        check "contains the center evaluation" true (B.contains out y))
      [ 0.0; 1e-15; 1e-9 ]
  done

let test_inverted_hull_adversarial () =
  (* regression: the contradictory-bounds widening used round-to-nearest
     subtraction (d = lo -. hi) to measure the gap.  At adversarial
     magnitudes the rounding error of that subtraction exceeds the ulp
     nudges downstream: with lo = 2^54 and hi = 2^53 - 1 the exact gap is
     2^53 + 1, but lo -. hi rounds DOWN to 2^53 (ties-to-even), so the
     inflated hull undershoots the interval [hi - gap, lo + gap] it must
     cover.  The fix computes the gap with Rounding.sub_up. *)
  let lo = 18014398509481984.0 (* 2^54 *)
  and hi = 9007199254740991.0 (* 2^53 - 1 *) in
  let h = Sym.inverted_hull lo hi in
  (* exact gap d = 2^53 + 1; sound coverage needs lo(h) <= hi - d = -2
     (the buggy round-to-nearest gap gave lo(h) ~ -1, excluding it) *)
  check "lower endpoint covers hi - exact_gap" true (I.lo h <= -2.0);
  check "upper endpoint covers lo + exact_gap" true
    (I.hi h >= 27021597764222977.0 (* 2^54 + 2^53 + 1 *));
  check "well-formed" true (I.lo h <= I.hi h);
  (* ordinary magnitudes keep behaving: a tiny rounding contradiction
     still hulls both evaluations *)
  let h2 = Sym.inverted_hull 1.0000000000000002 1.0 in
  check "small-gap hull covers both" true
    (I.lo h2 <= 1.0 && I.hi h2 >= 1.0000000000000002)

let test_nan_poisoned_plane () =
  (* regression: eval_lower_row/eval_upper_row selected the bound
     endpoint with [c > 0.0] / [c < 0.0], so a NaN coefficient satisfied
     neither test and silently contributed NOTHING — an unsoundly finite
     bound for a plane that actually bounds nothing.  Non-finite
     coefficients must poison the whole row to an infinite bound. *)
  let box = B.of_bounds [| (-1.0, 1.0); (2.0, 3.0) |] in
  let bounds c = Sym.Internal.row_bounds box ~c ~k:0.0 ~e:0.0 in
  (* sanity: a finite row gives finite bounds *)
  let flo, fhi = bounds [| 1.0; -2.0 |] in
  check "finite row finite lower" true (Float.is_finite flo);
  check "finite row finite upper" true (Float.is_finite fhi);
  (* NaN coefficient: both bounds must blow to infinity *)
  let nlo, nhi = bounds [| 1.0; Float.nan |] in
  check "nan row lower = -inf" true (nlo = Float.neg_infinity);
  check "nan row upper = +inf" true (nhi = Float.infinity);
  (* infinite coefficient likewise (0 * inf = nan would otherwise leak) *)
  let ilo, ihi = bounds [| Float.infinity; 1.0 |] in
  check "inf row lower = -inf" true (ilo = Float.neg_infinity);
  check "inf row upper = +inf" true (ihi = Float.infinity)

let test_nan_weight_network_sound () =
  (* end-to-end: a NaN weight anywhere in the network must surface as an
     infinite (trivially sound) output bound, never a finite lie *)
  let l1 =
    {
      Net.weights = Mat.init 2 2 (fun i j -> if i = 0 && j = 1 then Float.nan else 1.0);
      biases = [| 0.0; 0.0 |];
      activation = Act.Relu;
    }
  in
  let l2 =
    {
      Net.weights = Mat.init 1 2 (fun _ _ -> 1.0);
      biases = [| 0.0 |];
      activation = Act.Linear;
    }
  in
  let net = Net.make ~input_dim:2 [| l1; l2 |] in
  let box = B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |] in
  let out = T.propagate T.Symbolic net box in
  let iv = B.get out 0 in
  check "poisoned output not finitely bounded" true
    (I.lo iv = Float.neg_infinity || I.hi iv = Float.infinity)

let test_nonfinite_weight_on_dead_neuron () =
  (* ReLU zeroes the first hidden neuron on the whole box (bias -1e3),
     and F# skips the work a finite weight would do on that row.  A
     NaN or infinite weight on it must not be skipped: w * 0 is NaN, and
     that poison must still reach the output as an infinite bound *)
  let net w =
    let hidden =
      {
        Net.weights = Mat.init 2 2 (fun _ _ -> 1.0);
        biases = [| -1e3; 0.0 |];
        activation = Act.Relu;
      }
    in
    let output =
      {
        Net.weights = Mat.init 1 2 (fun _ j -> [| w; 1.0 |].(j));
        biases = [| 0.0 |];
        activation = Act.Linear;
      }
    in
    Net.make ~input_dim:2 [| hidden; output |]
  in
  let box = B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |] in
  let out w = B.get (T.propagate T.Symbolic (net w) box) 0 in
  let finite = out 1.0 in
  check "finite weight: finitely bounded" true
    (Float.is_finite (I.lo finite) && Float.is_finite (I.hi finite));
  List.iter
    (fun (name, w) ->
      let iv = out w in
      check (name ^ " weight on a dead neuron: not finitely bounded") true
        (I.lo iv = Float.neg_infinity || I.hi iv = Float.infinity))
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let test_zero_weight_unbounded_input () =
  (* regression: Interval.mul_float 0.0 on an unbounded input gave NaN
     bounds (0 * inf), so the interval domain returned a NaN box where
     a zero weight met an unbounded input *)
  let out =
    {
      Net.weights = Mat.init 1 2 (fun _ j -> [| 0.0; 1.0 |].(j));
      biases = [| 0.0 |];
      activation = Act.Linear;
    }
  in
  let net = Net.make ~input_dim:2 [| out |] in
  let box = B.of_intervals [| I.entire; I.make 1.0 2.0 |] in
  List.iter
    (fun d ->
      let iv = B.get (T.propagate d net box) 0 in
      let name = T.domain_to_string d in
      check (name ^ " has no NaN bound") false
        (Float.is_nan (I.lo iv) || Float.is_nan (I.hi iv));
      check (name ^ " contains [1, 2]") true (I.subset (I.make 1.0 2.0) iv))
    [ T.Interval; T.Symbolic; T.Affine ]

let test_output_bounds_shape () =
  let net = fig4_network () in
  let box = B.of_bounds [| (0.0, 1.0); (0.0, 1.0) |] in
  let obs = Sym.output_bounds net box in
  Alcotest.(check int) "one output" 1 (Array.length obs);
  let lo_c, _, up_c, _ = obs.(0) in
  Alcotest.(check int) "lo coeffs per input" 2 (Array.length lo_c);
  Alcotest.(check int) "up coeffs per input" 2 (Array.length up_c)

(* qcheck: random networks, random boxes, random samples, all domains *)

let arb_case =
  QCheck.make
    ~print:(fun (seed, w, sizes) ->
      Printf.sprintf "seed=%d width=%g sizes=%s" seed w
        (String.concat "-" (List.map string_of_int sizes)))
    QCheck.Gen.(
      let* seed = int_range 0 100000 in
      let* w = float_range 0.05 2.0 in
      let* h1 = int_range 2 12 in
      let* h2 = int_range 2 12 in
      let* ins = int_range 1 4 in
      let* outs = int_range 1 4 in
      return (seed, w, [ ins; h1; h2; outs ]))

let prop_domain_sound domain =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "%s propagate sound" (T.domain_to_string domain))
    arb_case
    (fun (seed, w, sizes) ->
      let rng = Rng.create seed in
      let net = random_net rng sizes in
      let ins = List.hd sizes in
      let box =
        B.of_bounds
          (Array.init ins (fun i ->
               let c = 0.3 *. float_of_int i in
               (c -. w, c +. w)))
      in
      soundness_case domain net box rng 100)

let () =
  Alcotest.run "nnabs"
    [
      ( "transformers",
        [
          Alcotest.test_case "fig4 point" `Quick test_fig4_point;
          Alcotest.test_case "fig4 box" `Quick test_fig4_box;
          Alcotest.test_case "symbolic tighter" `Quick
            test_symbolic_tighter_than_interval;
          Alcotest.test_case "stable relu exact" `Quick
            test_stable_relu_exact_symbolic;
          Alcotest.test_case "split refinement" `Quick
            test_split_refinement_tightens;
          Alcotest.test_case "meet of domains" `Quick
            test_meet_all_sound_and_tighter;
          Alcotest.test_case "thin and degenerate boxes" `Quick
            test_thin_box_sound;
          Alcotest.test_case "inverted hull adversarial magnitudes" `Quick
            test_inverted_hull_adversarial;
          Alcotest.test_case "nan-poisoned plane" `Quick
            test_nan_poisoned_plane;
          Alcotest.test_case "nan-weight network" `Quick
            test_nan_weight_network_sound;
          Alcotest.test_case "non-finite weight on a dead neuron" `Quick
            test_nonfinite_weight_on_dead_neuron;
          Alcotest.test_case "zero weight on an unbounded input" `Quick
            test_zero_weight_unbounded_input;
          Alcotest.test_case "output bounds shape" `Quick
            test_output_bounds_shape;
        ] );
      ( "nnabs-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_domain_sound T.Interval;
            prop_domain_sound T.Symbolic;
            prop_domain_sound T.Affine;
          ] );
    ]
