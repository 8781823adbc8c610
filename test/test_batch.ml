(* Batched multi-leaf F# propagation must be an invisible optimization
   at every layer of the stack: the blocked kernel, the split wrapper,
   the batched cache probe and the batched controller scorer are each
   bit-for-bit their scalar counterparts, and the leaf scheduler's
   lockstep batching (--batch-leaves) preserves verdicts, leaf sets and
   journal records byte-identically at any batch width and worker
   count — with per-leaf fault firewalls intact inside a batch. *)

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

(* ----- the blocked kernel vs the scalar propagator ----- *)

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
          check
            (Printf.sprintf "%s propagate_split_batch splits=%d bitwise"
               (T.domain_to_string d) splits)
            true
            (boxes_eq_bits
               (Array.map (T.propagate_split d ~splits net) boxes)
               (T.propagate_split_batch d ~splits net boxes)))
        [ 0; 1; 2 ])
    [ T.Interval; T.Symbolic; T.Affine ]

(* ----- the batched cache probe ----- *)

let test_cache_batch () =
  let cfg = { Cache.capacity = 64; quantum = 0.01; shards = 2 } in
  let t = Cache.create cfg in
  let rng = Rng.create 17 in
  let net = random_net rng [ 2; 6; 2 ] in
  let boxes = random_boxes rng ~k:6 ~dim:2 in
  let calls = ref 0 in
  let f bs =
    incr calls;
    Array.map (Sym.propagate net) bs
  in
  (* cold: one compute call covering every (distinct) miss *)
  let r1 = Cache.find_or_compute_batch t ~net_id:1 ~cmd:0 boxes f in
  Alcotest.(check int) "one compute call for the cold batch" 1 !calls;
  Alcotest.(check int) "arity preserved" (Array.length boxes) (Array.length r1);
  (* warm: all hits, no compute *)
  let r2 = Cache.find_or_compute_batch t ~net_id:1 ~cmd:0 boxes f in
  Alcotest.(check int) "warm batch computes nothing" 1 !calls;
  check "warm results identical to stored" true (boxes_eq_bits r1 r2);
  (* results match the scalar call sequence on an identically fresh cache *)
  let t' = Cache.create cfg in
  let scalar =
    Array.map
      (fun b ->
        Cache.find_or_compute t' ~net_id:1 ~cmd:0 b (fun qb -> Sym.propagate net qb))
      boxes
  in
  check "batch == scalar find_or_compute sequence" true (boxes_eq_bits scalar r1);
  (* duplicate queries inside one batch are computed once *)
  let t2 = Cache.create cfg in
  let dup = [| boxes.(0); boxes.(0); boxes.(0) |] in
  let widths = ref [] in
  let g bs =
    widths := Array.length bs :: !widths;
    Array.map (Sym.propagate net) bs
  in
  let rd = Cache.find_or_compute_batch t2 ~net_id:1 ~cmd:0 dup g in
  Alcotest.(check (list int)) "duplicates deduplicated" [ 1 ] !widths;
  check "all duplicates answered alike" true
    (box_eq_bits rd.(0) rd.(1) && box_eq_bits rd.(1) rd.(2));
  (* distinct tags do not share entries *)
  let r3 = Cache.find_or_compute_batch t ~net_id:1 ~cmd:0 ~tag:5 boxes f in
  Alcotest.(check int) "different tag misses" 2 !calls;
  check "tagged results still correct" true (boxes_eq_bits r1 r3);
  (* a compute function with the wrong arity is rejected *)
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Cache.find_or_compute_batch: compute arity mismatch")
    (fun () ->
      ignore
        (Cache.find_or_compute_batch (Cache.create cfg) ~net_id:1 ~cmd:0 boxes
           (fun _ -> [||])))

(* ----- the batched controller scorer ----- *)

let two_net_controller () =
  (* two distinct networks selected by the previous command: scores from
     one must never be served for the other *)
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
  Controller.make ~period:0.5
    ~commands:(Command.make [| [| -1.0 |]; [| -0.5 |] |])
    ~networks:[| net_of 1.0; net_of 0.25 |]
    ~select:(fun c -> c)
    ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
    ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()

let test_scores_batch () =
  let ctrl = two_net_controller () in
  let rng = Rng.create 19 in
  let queries =
    Array.init 9 (fun i ->
        let c = Rng.uniform rng 0.0 2.0 in
        (B.of_bounds [| (c, c +. 0.3) |], i mod 2))
  in
  let scalar ?cache () =
    Array.map (fun (box, pc) -> Controller.abstract_scores ?cache ctrl ~box ~prev_cmd:pc) queries
  in
  (* uncached: batch groups by command/network, answers bitwise-identically *)
  check "uncached batch bitwise" true
    (boxes_eq_bits (scalar ()) (Controller.abstract_scores_batch ctrl queries));
  (* cached: identical to the scalar loop against an identically fresh cache *)
  let cfg = { Cache.capacity = 128; quantum = 0.005; shards = 2 } in
  let cb = Cache.create cfg and cs = Cache.create cfg in
  let batched = Controller.abstract_scores_batch ~cache:cb ctrl queries in
  check "cached batch bitwise" true (boxes_eq_bits (scalar ~cache:cs ()) batched);
  check "cache was populated" true ((Cache.stats cb).Cache.misses > 0);
  (* second pass over a warm cache: all hits, still identical *)
  let rebatched = Controller.abstract_scores_batch ~cache:cb ctrl queries in
  check "warm batch bitwise" true (boxes_eq_bits batched rebatched);
  Alcotest.(check int) "warm pass all hits" (Array.length queries)
    ((Cache.stats cb).Cache.hits)

(* ----- end-to-end: the lockstep leaf scheduler ----- *)

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

let test_ragged_batches () =
  (* 5 root cells drained at K = 4: the final pull is a short batch *)
  let sys = homing_system () in
  let cells = grid 5 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  let r =
    Verify.verify_partition
      ~config:(config ~batch_leaves:4 1)
      sys cells
  in
  check "ragged final batch identical" true
    (strip_elapsed baseline = strip_elapsed r);
  (* the batch path actually ran: grouped kernel calls were recorded *)
  check "batched queries metric advanced" true
    (Nncs_obs.Metrics.value (Nncs_obs.Metrics.counter "verify.fsharp_batched_queries") > 0)

let test_mixed_network_frontier () =
  (* cells with different previous commands select different networks;
     the worker's drain predicate must keep them in separate batches and
     the verdicts must match the scalar run regardless *)
  let ctrl = two_net_controller () in
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

let test_poisoned_leaf_in_batch () =
  (* a leaf that dies mid-batch fails alone: its batchmates complete
     with verdicts identical to the serial run *)
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
              "batchmate verdict matches serial" a.Verify.proved_fraction
              b.Verify.proved_fraction)
        baseline.Verify.cells poisoned.Verify.cells)

let test_batch_leaves_validated () =
  let sys = homing_system () in
  Alcotest.check_raises "batch_leaves >= 1 enforced"
    (Invalid_argument "Verify.verify_partition: batch_leaves must be >= 1")
    (fun () ->
      ignore
        (Verify.verify_partition
           ~config:(config ~batch_leaves:0 1)
           sys (grid 2)))

let test_fingerprint_batch_agnostic () =
  (* like workers, batch_leaves is a runtime knob, not
     problem semantics: journals stay interchangeable *)
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
        ] );
      ( "cache",
        [ Alcotest.test_case "batched probe" `Quick test_cache_batch ] );
      ( "controller",
        [ Alcotest.test_case "batched scorer" `Quick test_scores_batch ] );
      ( "scheduler",
        [
          Alcotest.test_case "equivalence across K and workers" `Quick
            test_verify_equivalence;
          Alcotest.test_case "equivalence with nn_splits" `Quick
            test_verify_equivalence_nn_splits;
          Alcotest.test_case "ragged final batch" `Quick test_ragged_batches;
          Alcotest.test_case "mixed-network frontier" `Quick
            test_mixed_network_frontier;
          Alcotest.test_case "poisoned leaf fails alone" `Quick
            test_poisoned_leaf_in_batch;
          Alcotest.test_case "batch_leaves validated" `Quick
            test_batch_leaves_validated;
          Alcotest.test_case "fingerprint agnostic" `Quick
            test_fingerprint_batch_agnostic;
        ] );
    ]
