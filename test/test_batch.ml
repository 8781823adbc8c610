(* Batched F# propagation must be invisible: the one symbolic kernel
   reproduces a frozen copy of the scalar kernel it replaced bit for
   bit, at any batch width and lane position; the split wrapper
   matches the recursive split in every domain; the controller scorer,
   whose 2^nn_splits lanes share one kernel call, answers as that
   recursion with and without a cache; and the inert batch_leaves knob
   leaves verdicts, leaf sets, journal records, fault firewalls and
   fingerprints as they are at any value and worker count. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Rng = Nncs_linalg.Rng
module T = Nncs_nnabs.Transformer
module Sym = Nncs_nnabs.Symbolic_prop
module Cache = Nncs_nnabs.Cache
module Command = Nncs.Command
module Symstate = Nncs.Symstate
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module Fault = Nncs_resilience.Fault

let check = Alcotest.(check bool)

(* bitwise equality: the batch paths promise Int64-identical endpoints,
   not approximate agreement *)
let box_eq_bits a b =
  B.dim a = B.dim b
  && (let ok = ref true in
      for i = 0 to B.dim a - 1 do
        let x = B.get a i and y = B.get b i in
        if
          Int64.bits_of_float (I.lo x) <> Int64.bits_of_float (I.lo y)
          || Int64.bits_of_float (I.hi x) <> Int64.bits_of_float (I.hi y)
        then ok := false
      done;
      !ok)

let boxes_eq_bits a b =
  Array.length a = Array.length b && Array.for_all2 box_eq_bits a b

let random_net rng sizes = Net.create_mlp ~rng ~layer_sizes:sizes

let random_boxes rng ~k ~dim =
  Array.init k (fun _ ->
      B.of_bounds
        (Array.init dim (fun _ ->
             let c = Rng.uniform rng (-1.0) 1.0 in
             let w = Rng.uniform rng 0.0 0.8 in
             (c -. w, c +. w))))

(* ----- the reference: the scalar kernel, frozen -----

   The single-box symbolic kernel as it stood before the scalar and
   batched paths became one row-wise kernel, copied verbatim except
   that planes are allocated per layer, counters and spans are left
   out, and [zeroed] counts the rows that [zero_row] clears (so a test
   can show it exercised that path).  The one kernel must reproduce it
   bit for bit in every lane. *)
module Ref = struct
  module R = Nncs_interval.Rounding

  let zeroed = ref 0
  let ulp_unit = 0x1.0p-53

  let accumulation_error n absacc =
    2.0 *. float_of_int (n + 2) *. ulp_unit *. absacc

  let input_magnitude box =
    let m = ref 1.0 in
    for k = 0 to B.dim box - 1 do
      m := Float.max !m (I.mag (B.get box k))
    done;
    !m

  type plane = { c : float array; k : float array; e : float array }

  let plane n m =
    { c = Array.make (n * m) 0.0; k = Array.make n 0.0; e = Array.make n 0.0 }

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

  let inverted_hull lo hi =
    let d = R.sub_up lo hi in
    I.inflate (I.make hi lo) d

  let zero_row p i m =
    incr zeroed;
    Array.fill p.c (i * m) m 0.0;
    p.k.(i) <- 0.0;
    p.e.(i) <- 0.0

  let affine_rows ~xmag w b m src_lo src_up dst_lo dst_up =
    let n = Mat.rows w and cols = Mat.cols w in
    for i = 0 to n - 1 do
      let off = i * m in
      Array.fill dst_lo.c off m 0.0;
      Array.fill dst_up.c off m 0.0;
      let bi = b.(i) in
      let up_const = ref bi and lo_const = ref bi in
      let up_abs = ref (Float.abs bi) and lo_abs = ref (Float.abs bi) in
      let up_err = ref 0.0 and lo_err = ref 0.0 in
      let nterms = ref 0 in
      for j = 0 to cols - 1 do
        let wij = Mat.get w i j in
        if wij <> 0.0 then begin
          incr nterms;
          let su, sl = if wij > 0.0 then (src_up, src_lo) else (src_lo, src_up) in
          let joff = j * m in
          for kk = 0 to m - 1 do
            let p = wij *. su.c.(joff + kk) in
            dst_up.c.(off + kk) <- dst_up.c.(off + kk) +. p;
            up_abs := !up_abs +. Float.abs p
          done;
          let pc = wij *. su.k.(j) in
          up_const := !up_const +. pc;
          up_abs := !up_abs +. Float.abs pc;
          up_err := R.add_up !up_err (R.mul_up (Float.abs wij) su.e.(j));
          for kk = 0 to m - 1 do
            let p = wij *. sl.c.(joff + kk) in
            dst_lo.c.(off + kk) <- dst_lo.c.(off + kk) +. p;
            lo_abs := !lo_abs +. Float.abs p
          done;
          let pc = wij *. sl.k.(j) in
          lo_const := !lo_const +. pc;
          lo_abs := !lo_abs +. Float.abs pc;
          lo_err := R.add_up !lo_err (R.mul_up (Float.abs wij) sl.e.(j))
        end
      done;
      dst_up.k.(i) <- !up_const;
      dst_lo.k.(i) <- !lo_const;
      if !nterms = 0 then begin
        dst_up.e.(i) <- 0.0;
        dst_lo.e.(i) <- 0.0
      end
      else begin
        let nops = (!nterms * (m + 1)) + 1 in
        dst_up.e.(i) <- R.add_up !up_err (accumulation_error nops (!up_abs *. xmag));
        dst_lo.e.(i) <- R.add_up !lo_err (accumulation_error nops (!lo_abs *. xmag))
      end
    done

  let chord_slope l u =
    I.div (I.of_float u) (I.sub (I.of_float u) (I.of_float l))

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

  let relu_rows ~xmag box p_lo p_up n m =
    for i = 0 to n - 1 do
      let l_lo = eval_lower_row box p_lo i m
      and u_up = eval_upper_row box p_up i m in
      if l_lo >= 0.0 then ()
      else if u_up <= 0.0 then begin
        zero_row p_lo i m;
        zero_row p_up i m
      end
      else begin
        let l_up = eval_lower_row box p_up i m in
        if l_up >= 0.0 then ()
        else begin
          let lam_iv = chord_slope l_up u_up in
          let lam = I.mid lam_iv in
          scale_row ~xmag p_up i m lam (-.lam *. l_up);
          let slope_slack = R.mul_up (I.width lam_iv) (R.sub_up u_up l_up) in
          let bias_slack =
            R.mul_up 4.0 (R.mul_up ulp_unit (Float.abs (lam *. l_up)))
          in
          p_up.e.(i) <- R.add_up p_up.e.(i) (R.add_up slope_slack bias_slack)
        end;
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

  let propagate net box =
    let xmag = input_magnitude box in
    let m = B.dim box in
    let lo = ref (plane m m) and up = ref (plane m m) in
    for i = 0 to m - 1 do
      !lo.c.((i * m) + i) <- 1.0;
      !up.c.((i * m) + i) <- 1.0
    done;
    Array.iter
      (fun l ->
        let rows = Mat.rows l.Net.weights in
        let nlo = plane rows m and nup = plane rows m in
        affine_rows ~xmag l.Net.weights l.Net.biases m !lo !up nlo nup;
        (match l.Net.activation with
        | Act.Linear -> ()
        | Act.Relu -> relu_rows ~xmag box nlo nup rows m);
        lo := nlo;
        up := nup)
      net.Net.layers;
    B.of_intervals
      (Array.init (Array.length !lo.k) (fun i ->
           let lo = eval_lower_row box !lo i m and hi = eval_upper_row box !up i m in
           if lo <= hi then I.make lo hi else inverted_hull lo hi))
end

(* an ACAS-shaped network (5-48-48-48-5) whose hidden neurons are each
   forced dead with probability [dead] by a large negative bias, so
   their rows go through [zero_row] *)
let acas_shaped_net ~seed ~dead =
  let rng = Rng.create seed in
  let net = random_net rng [ 5; 48; 48; 48; 5 ] in
  Net.make ~input_dim:5
    (Array.map
       (fun l ->
         match l.Net.activation with
         | Act.Linear -> l
         | Act.Relu ->
             {
               l with
               Net.biases =
                 Array.map
                   (fun b -> if Rng.uniform rng 0.0 1.0 < dead then -1e3 else b)
                   l.Net.biases;
             })
       net.Net.layers)

(* point, thin and wide boxes, in turn *)
let mixed_boxes rng ~k ~dim =
  Array.init k (fun j ->
      let w =
        match j mod 3 with 0 -> 0.0 | 1 -> 1e-6 | _ -> Rng.uniform rng 0.1 1.0
      in
      B.of_bounds
        (Array.init dim (fun _ ->
             let c = Rng.uniform rng (-1.0) 1.0 in
             (c -. w, c +. w))))

(* 16 boxes through [net] as batches of 1, 4 and 16 and as one reversed
   batch (the same lanes at the opposite positions), each bit for bit
   against the frozen kernel *)
let matches_reference net boxes =
  let expected = Array.map (Ref.propagate net) boxes in
  let chunks k =
    Array.concat
      (List.init (16 / k) (fun c ->
           Sym.propagate_batch net (Array.sub boxes (c * k) k)))
  in
  let rev a = Array.of_list (List.rev (Array.to_list a)) in
  List.for_all (fun k -> boxes_eq_bits expected (chunks k)) [ 1; 4; 16 ]
  && boxes_eq_bits expected (rev (Sym.propagate_batch net (rev boxes)))

let prop_kernel_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"matches the frozen scalar kernel"
    QCheck.(pair (int_range 0 100000) (float_range 0.0 0.5))
    (fun (seed, dead) ->
      let net = acas_shaped_net ~seed ~dead in
      let boxes = mixed_boxes (Rng.create (seed + 1)) ~k:16 ~dim:5 in
      Ref.zeroed := 0;
      matches_reference net boxes && (dead < 0.1 || !Ref.zeroed > 0))

(* the five shipped ACAS networks; [dune test] runs in _build/default/test,
   [dune exec] and the sanitizer job in the root *)
let acas_nets =
  lazy
    (let dir = if Sys.file_exists "data" then "data" else Filename.concat ".." "data" in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".nnet")
     |> List.sort String.compare
     |> List.map (fun f -> Nncs_nn.Nnet_io.load (Filename.concat dir f)))

let prop_acas_matches_reference =
  QCheck.Test.make ~count:4
    ~name:"matches the frozen scalar kernel on the ACAS networks"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let nets = Lazy.force acas_nets in
      let rng = Rng.create seed in
      List.length nets = 5
      && List.for_all
           (fun net ->
             let boxes = mixed_boxes rng ~k:16 ~dim:5 in
             Ref.zeroed := 0;
             matches_reference net boxes && !Ref.zeroed > 0)
           nets)

(* ----- lane independence: a batch of K vs K batches of one ----- *)

let test_kernel_bitwise () =
  let rng = Rng.create 7 in
  List.iter
    (fun (k, sizes) ->
      let net = random_net rng sizes in
      let boxes = random_boxes rng ~k ~dim:(List.hd sizes) in
      let scalar = Array.map (Sym.propagate net) boxes in
      let batched = Sym.propagate_batch net boxes in
      check
        (Printf.sprintf "batch k=%d bitwise equal" k)
        true
        (boxes_eq_bits scalar batched))
    [ (1, [ 2; 8; 3 ]); (4, [ 3; 16; 16; 2 ]); (16, [ 4; 20; 20; 5 ]);
      (7, [ 2; 12; 12; 12; 1 ]) (* ragged, deep *) ]

let test_kernel_edge_cases () =
  let rng = Rng.create 11 in
  let net = random_net rng [ 3; 8; 2 ] in
  Alcotest.(check int) "empty batch" 0 (Array.length (Sym.propagate_batch net [||]));
  (* degenerate (point) and mixed-width boxes batch soundly *)
  let boxes =
    [| B.of_point [| 0.1; -0.2; 0.3 |]; B.of_bounds [| (-1.0, 1.0); (0.0, 0.0); (-0.5, 0.5) |] |]
  in
  check "point and thin boxes bitwise" true
    (boxes_eq_bits (Array.map (Sym.propagate net) boxes) (Sym.propagate_batch net boxes));
  (* a dimension mismatch anywhere in the batch is rejected *)
  Alcotest.check_raises "dim mismatch rejected"
    (Invalid_argument "Symbolic_prop.propagate_batch: input dimension mismatch")
    (fun () ->
      ignore (Sym.propagate_batch net [| B.of_point [| 0.0; 0.0; 0.0 |]; B.of_point [| 0.0 |] |]))

(* the recursive split the batched expansion replaced: bisect the
   widest dimension, recurse into both halves, hull left with right *)
let rec ref_propagate_split d ~splits net box =
  if splits = 0 then T.propagate d net box
  else
    let l, r = B.bisect_widest box in
    B.hull
      (ref_propagate_split d ~splits:(splits - 1) net l)
      (ref_propagate_split d ~splits:(splits - 1) net r)

let test_transformer_batch_all_domains () =
  let rng = Rng.create 13 in
  let net = random_net rng [ 3; 10; 10; 2 ] in
  let boxes = random_boxes rng ~k:5 ~dim:3 in
  List.iter
    (fun d ->
      check
        (Printf.sprintf "%s propagate_batch bitwise" (T.domain_to_string d))
        true
        (boxes_eq_bits
           (Array.map (T.propagate d net) boxes)
           (T.propagate_batch d net boxes));
      List.iter
        (fun splits ->
          let expected = Array.map (ref_propagate_split d ~splits net) boxes in
          check
            (Printf.sprintf "%s propagate_split splits=%d = recursion"
               (T.domain_to_string d) splits)
            true
            (boxes_eq_bits expected
               (Array.map (T.propagate_split d ~splits net) boxes));
          check
            (Printf.sprintf "%s propagate_split_batch splits=%d = recursion"
               (T.domain_to_string d) splits)
            true
            (boxes_eq_bits expected (T.propagate_split_batch d ~splits net boxes)))
        [ 0; 1; 2; 3 ])
    [ T.Interval; T.Symbolic; T.Affine ]

(* ----- the controller scorer: one query, its lanes in one kernel call ----- *)

(* two distinct networks selected by the previous command: scores from
   one must never be served for the other *)
let two_nets () =
  let net_of bias =
    let output =
      {
        Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
        biases = [| bias; -.bias |];
        activation = Act.Linear;
      }
    in
    Net.make ~input_dim:1 [| output |]
  in
  [| net_of 1.0; net_of 0.25 |]

let two_net_controller ?nn_splits nets =
  Controller.make ~period:0.5
    ~commands:(Command.make [| [| -1.0 |]; [| -0.5 |] |])
    ~networks:nets
    ~select:(fun c -> c)
    ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
    ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
    ?nn_splits ()

let test_scores_batch () =
  let nets = two_nets () in
  let rng = Rng.create 19 in
  let queries =
    Array.init 9 (fun i ->
        let c = Rng.uniform rng 0.0 2.0 in
        (B.of_bounds [| (c, c +. 0.3) |], i mod 2))
  in
  let cfg = { Cache.default_config with Cache.capacity = 128; shards = 2 } in
  List.iter
    (fun nn_splits ->
      let ctrl = two_net_controller ~nn_splits nets in
      let msg s = Printf.sprintf "%s (nn_splits=%d)" s nn_splits in
      let scores ?cache () =
        Array.map
          (fun (box, pc) -> Controller.abstract_scores ?cache ctrl ~box ~prev_cmd:pc)
          queries
      in
      (* the recursive split of the selected network on the query box:
         the cache's keys are exact, so cached or not, the scorer
         returns these bits *)
      let expected =
        Array.map
          (fun (box, pc) ->
            ref_propagate_split T.Symbolic ~splits:nn_splits nets.(pc) box)
          queries
      in
      check (msg "uncached scorer bitwise") true
        (boxes_eq_bits expected (scores ()));
      let c = Cache.create cfg in
      let cold = scores ~cache:c () in
      check (msg "cached scorer bitwise") true (boxes_eq_bits expected cold);
      check (msg "cache was populated") true ((Cache.stats c).Cache.misses > 0);
      (* second pass over a warm cache: all hits, still identical *)
      let warm = scores ~cache:c () in
      check (msg "warm pass bitwise") true (boxes_eq_bits cold warm);
      Alcotest.(check int) (msg "warm pass all hits") (Array.length queries)
        ((Cache.stats c).Cache.hits))
    [ 0; 2 ]

(* ----- end-to-end: batch_leaves is inert ----- *)

(* the homing fixture of test_scheduler: x' = u, short horizon makes the
   rightmost cells refine to max_depth *)
let homing_commands = Command.make [| [| -1.0 |]; [| -0.5 |] |]

let homing_network () =
  let output =
    {
      Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
      biases = [| 1.0; -1.0 |];
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:1 [| output |]

let homing_system ?(horizon_steps = 3) ?nn_splits () =
  let controller =
    Controller.make ~period:0.5 ~commands:homing_commands
      ~networks:[| homing_network () |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
      ?nn_splits ()
  in
  System.make ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
    ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps

let grid n =
  Partition.with_command 0
    (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| n |])

let config ?(batch_leaves = 1) workers =
  {
    Verify.default_config with
    strategy = Verify.All_dims [ 0 ];
    workers;
    batch_leaves;
  }

let strip_elapsed (r : Verify.report) =
  ( r.Verify.coverage,
    r.Verify.proved_cells,
    r.Verify.unknown_cells,
    r.Verify.total_cells,
    List.map
      (fun (c : Verify.cell_report) ->
        ( c.Verify.index,
          c.Verify.proved_fraction,
          List.map
            (fun (l : Verify.leaf) ->
              ( B.to_string l.Verify.state.Symstate.box,
                l.Verify.state.Symstate.cmd,
                l.Verify.depth,
                l.Verify.proved,
                l.Verify.rungs,
                match l.Verify.result with
                | Verify.Completed _ -> "completed"
                | Verify.Failed f -> Nncs_resilience.Failure.to_string f ))
            c.Verify.leaves ))
      r.Verify.cells )

let test_verify_equivalence () =
  let sys = homing_system () in
  let cells = grid 3 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  check "fixture exercises splitting" true
    (List.exists
       (fun (c : Verify.cell_report) -> List.length c.Verify.leaves > 1)
       baseline.Verify.cells);
  List.iter
    (fun workers ->
      List.iter
        (fun batch_leaves ->
          let r =
            Verify.verify_partition
              ~config:(config ~batch_leaves workers)
              sys cells
          in
          check
            (Printf.sprintf "identical report (workers=%d K=%d)" workers
               batch_leaves)
            true
            (strip_elapsed baseline = strip_elapsed r))
        [ 1; 4; 16 ])
    [ 1; 4 ]

let test_verify_equivalence_nn_splits () =
  (* nn_splits > 0 routes through propagate_split_batch; journal records
     must also match byte for byte *)
  let sys = homing_system ~nn_splits:2 () in
  let cells = grid 3 in
  let cfg1 = config ~batch_leaves:1 1 in
  let cfgk = config ~batch_leaves:4 1 in
  let journal cfg =
    let recs = ref [] in
    let r =
      Verify.verify_partition ~config:cfg
        ~on_leaf:(fun cell path leaf ->
          (* byte-identical journal records modulo the elapsed field *)
          let j =
            Nncs_obs.Json.to_string
              (Verify.leaf_record_to_json ~cell ~path { leaf with Verify.elapsed = 0.0 })
          in
          recs := j :: !recs)
        sys cells
    in
    (strip_elapsed r, List.sort compare !recs)
  in
  let s1, j1 = journal cfg1 in
  let sk, jk = journal cfgk in
  check "nn_splits report identical" true (s1 = sk);
  check "journal records byte-identical" true (j1 = jk)

let test_mixed_network_frontier () =
  (* cells with different previous commands select different networks;
     two workers at any batch_leaves must match the serial verdicts *)
  let ctrl = two_net_controller (two_nets ()) in
  let sys =
    System.make
      ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
      ~controller:ctrl
      ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
      ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
      ~horizon_steps:3
  in
  let boxes = Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| 4 |] in
  (* alternate initial commands so adjacent frontier tasks need
     different networks *)
  let cells =
    List.mapi (fun i st -> Symstate.make st.Symstate.box (i mod 2))
      (Partition.with_command 0 boxes)
  in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  List.iter
    (fun batch_leaves ->
      let r =
        Verify.verify_partition
          ~config:(config ~batch_leaves 2)
          sys cells
      in
      check
        (Printf.sprintf "mixed-network frontier identical (K=%d)" batch_leaves)
        true
        (strip_elapsed baseline = strip_elapsed r))
    [ 2; 4 ]

let test_poisoned_leaf_alone () =
  (* a leaf that dies fails alone at batch_leaves = 4: every other cell
     completes with the verdict of the serial run *)
  let sys = homing_system ~horizon_steps:10 () in
  let cells = grid 8 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm ~site:"verify.leaf" ~key:"3" (fun () -> Stdlib.Failure "boom");
      let poisoned =
        Verify.verify_partition
          ~config:(config ~batch_leaves:4 1)
          sys cells
      in
      Alcotest.(check int) "one unknown cell" 1 poisoned.Verify.unknown_cells;
      List.iter2
        (fun (a : Verify.cell_report) (b : Verify.cell_report) ->
          Alcotest.(check int) "cell order" a.Verify.index b.Verify.index;
          if b.Verify.index = 3 then
            check "poisoned leaf is Worker_crashed" true
              (List.exists
                 (fun l ->
                   match Verify.leaf_failure l with
                   | Some (Nncs_resilience.Failure.Worker_crashed _) -> true
                   | _ -> false)
                 b.Verify.leaves)
          else
            Alcotest.(check (float 0.0))
              "other verdict matches serial" a.Verify.proved_fraction
              b.Verify.proved_fraction)
        baseline.Verify.cells poisoned.Verify.cells)

let test_fingerprint_batch_agnostic () =
  (* batch_leaves is inert, not problem semantics: journals stay
     interchangeable *)
  let sys = homing_system () in
  let cells = grid 4 in
  let fp k =
    Verify.fingerprint
      ~config:(config ~batch_leaves:k 1)
      sys cells
  in
  Alcotest.(check string) "fingerprint ignores batch_leaves" (fp 1) (fp 16)

let () =
  Alcotest.run "batch"
    [
      ( "kernel",
        [
          Alcotest.test_case "bitwise vs scalar" `Quick test_kernel_bitwise;
          Alcotest.test_case "edge cases" `Quick test_kernel_edge_cases;
          Alcotest.test_case "all domains and splits" `Quick
            test_transformer_batch_all_domains;
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
          QCheck_alcotest.to_alcotest prop_acas_matches_reference;
        ] );
      ( "controller",
        [ Alcotest.test_case "batched scorer" `Quick test_scores_batch ] );
      ( "scheduler",
        [
          Alcotest.test_case "equivalence across K and workers" `Quick
            test_verify_equivalence;
          Alcotest.test_case "equivalence with nn_splits" `Quick
            test_verify_equivalence_nn_splits;
          Alcotest.test_case "mixed-network frontier" `Quick
            test_mixed_network_frontier;
          Alcotest.test_case "poisoned leaf fails alone" `Quick
            test_poisoned_leaf_alone;
          Alcotest.test_case "fingerprint agnostic" `Quick
            test_fingerprint_batch_agnostic;
        ] );
    ]
