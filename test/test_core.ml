(* Core library tests: command sets, symbolic states/sets, regions,
   Algorithm 2 (resize), Algorithm 3 (reach) on a small hand-built
   closed-loop system, the concrete simulator, and the enclosure property
   linking them (every concrete trajectory stays inside the symbolic
   over-approximation). *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Rng = Nncs_linalg.Rng
module Command = Nncs.Command
module Symstate = Nncs.Symstate
module Symset = Nncs.Symset
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Resize = Nncs.Resize
module Reach = Nncs.Reach
module Concrete = Nncs.Concrete
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module Multi = Nncs.Multi
module Monitor = Nncs.Monitor

let check = Alcotest.(check bool)

(* ----- the "homing" closed loop -----
   plant: x' = u;  commands {-1, -0.5};
   controller: a single affine layer with scores (1 - x, x - 1), so the
   argmin picks rate -1 when x > 1 and rate -0.5 when x < 1;
   start x in [1, 2]; target T = {x < 0.2}; erroneous E = {x > 4}. *)

let homing_commands = Command.make ~names:[| "fast"; "slow" |] [| [| -1.0 |]; [| -0.5 |] |]

let homing_network () =
  let output =
    {
      Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
      biases = [| 1.0; -1.0 |];
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:1 [| output |]

let homing_controller ?(domain = Nncs_nnabs.Transformer.Interval) ?nn_splits () =
  Controller.make ~period:0.5 ~commands:homing_commands
    ~networks:[| homing_network () |]
    ~select:(fun _ -> 0)
    ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
    ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ~domain
    ?nn_splits ()

let homing_plant = Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |]

let homing_system ?domain () =
  System.make ~plant:homing_plant
    ~controller:(homing_controller ?domain ())
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

(* runaway variant: positive rates drive x into E *)
let runaway_system () =
  let commands = Command.make [| [| 1.0 |]; [| 2.0 |] |] in
  let controller =
    Controller.make ~period:0.5 ~commands
      ~networks:[| homing_network () |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()
  in
  System.make ~plant:homing_plant ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

(* ----- commands ----- *)

let test_command_set () =
  let c = homing_commands in
  Alcotest.(check int) "size" 2 (Command.size c);
  Alcotest.(check int) "dim" 1 (Command.dim c);
  Alcotest.(check (float 0.0)) "value" (-0.5) (Command.scalar c 1);
  Alcotest.(check string) "name" "fast" (Command.name c 0);
  Alcotest.(check int) "index_of_name" 1 (Command.index_of_name c "slow");
  check "bad index rejected" true
    (try
       ignore (Command.value c 5);
       false
     with Invalid_argument _ -> true)

(* ----- symbolic states and sets ----- *)

let st box_lo box_hi cmd = Symstate.make (B.of_bounds [| (box_lo, box_hi) |]) cmd

let test_symstate () =
  let a = st 0.0 1.0 0 and b = st 0.5 2.0 0 in
  check "member" true (Symstate.member a [| 0.5 |] 0);
  check "member wrong cmd" false (Symstate.member a [| 0.5 |] 1);
  let j = Symstate.join a b in
  check "join is hull" true (Symstate.subset a j && Symstate.subset b j);
  check "join distance" true (Symstate.distance a b > 0.0);
  check "join cmd mismatch rejected" true
    (try
       ignore (Symstate.join a (st 0.0 1.0 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "split count" 2 (List.length (Symstate.split a [ 0 ]))

let test_symset () =
  let s = Symset.of_list [ st 0.0 1.0 0; st 2.0 3.0 1; st 4.0 5.0 0 ] in
  Alcotest.(check int) "length" 3 (Symset.length s);
  check "member" true (Symset.member s [| 2.5 |] 1);
  check "not member" false (Symset.member s [| 2.5 |] 0);
  let groups = Symset.group_by_command ~num_commands:2 s in
  Alcotest.(check int) "group 0" 2 (List.length groups.(0));
  Alcotest.(check int) "group 1" 1 (List.length groups.(1));
  match Symset.hull_box s with
  | Some h -> check "hull covers" true (I.equal (B.get h 0) (I.make 0.0 5.0))
  | None -> Alcotest.fail "hull of non-empty set"

(* ----- regions ----- *)

let test_spec_regions () =
  let e = Spec.norm2_lt ~name:"near" ~dims:(0, 1) ~radius:1.0 in
  let inside = Symstate.make (B.of_bounds [| (0.1, 0.2); (0.1, 0.2); (0.0, 0.0) |]) 0 in
  let outside = Symstate.make (B.of_bounds [| (2.0, 3.0); (2.0, 3.0); (0.0, 0.0) |]) 0 in
  let straddle = Symstate.make (B.of_bounds [| (0.5, 2.0); (0.0, 0.0); (0.0, 0.0) |]) 0 in
  check "contains inside" true (e.Spec.contains_box inside);
  check "not contains straddle" false (e.Spec.contains_box straddle);
  check "intersects straddle" true (e.Spec.intersects_box straddle);
  check "not intersects outside" false (e.Spec.intersects_box outside);
  check "point" true (e.Spec.contains_point [| 0.3; 0.4 |] 0);
  let t = Spec.norm2_gt ~name:"far" ~dims:(0, 1) ~radius:1.0 in
  check "gt contains outside" true (t.Spec.contains_box outside);
  check "gt not intersects inside" false (t.Spec.intersects_box inside)

(* ----- resize (Algorithm 2) ----- *)

let test_resize_joins_closest () =
  let s =
    Symset.of_list [ st 0.0 1.0 0; st 1.1 2.0 0; st 8.0 9.0 0; st 0.0 1.0 1 ]
  in
  let r = Resize.resize ~num_commands:2 ~gamma:3 s in
  Alcotest.(check int) "resized to gamma" 3 (Symset.length r);
  (* the two closest ([0,1] and [1.1,2]) must have been joined *)
  check "joined state present" true
    (List.exists
       (fun x ->
         x.Symstate.cmd = 0 && I.equal (B.get x.Symstate.box 0) (I.make 0.0 2.0))
       r);
  (* soundness: every original state is covered *)
  check "superset" true
    (List.for_all (fun x -> List.exists (Symstate.subset x) r) s)

let test_resize_stats_counts_joins () =
  let s =
    Symset.of_list [ st 0.0 1.0 0; st 1.1 2.0 0; st 8.0 9.0 0; st 0.0 1.0 1 ]
  in
  (* 4 states down to gamma 3: exactly one join, and the set returned by
     resize_stats is the one resize returns *)
  let r, joins = Resize.resize_stats ~num_commands:2 ~gamma:3 s in
  Alcotest.(check int) "one join" 1 joins;
  Alcotest.(check int) "resized to gamma" 3 (Symset.length r);
  let r2, j2 = Resize.resize_stats ~num_commands:2 ~gamma:3 r in
  Alcotest.(check int) "already small: no join" 0 j2;
  Alcotest.(check int) "set unchanged" (Symset.length r) (Symset.length r2);
  (* the legacy counter agrees with the pair *)
  Alcotest.(check int) "joins_performed agrees" 1
    (Resize.joins_performed ~num_commands:2 ~gamma:3 s)

let test_resize_gamma_below_commands () =
  let s = Symset.of_list [ st 0.0 1.0 0; st 2.0 3.0 1 ] in
  check "remark 3 enforced" true
    (try
       ignore (Resize.resize ~num_commands:2 ~gamma:1 s);
       false
     with Invalid_argument _ -> true)

let prop_resize_sound =
  QCheck.Test.make ~count:200 ~name:"resize covers input (any gamma)"
    QCheck.(
      pair (int_range 2 8)
        (list_of_size Gen.(int_range 1 12)
           (triple (QCheck.float_range (-10.0) 10.0) (QCheck.float_range 0.0 3.0) (int_range 0 1))))
    (fun (gamma, specs) ->
      QCheck.assume (specs <> []);
      let states = List.map (fun (lo, w, c) -> st lo (lo +. w) c) specs in
      let r = Resize.resize ~num_commands:2 ~gamma (Symset.of_list states) in
      Symset.length r <= max gamma (Symset.length states)
      && List.for_all (fun x -> List.exists (Symstate.subset x) r) states)

(* ----- controller semantics ----- *)

let test_controller_concrete () =
  let c = homing_controller () in
  Alcotest.(check int) "x=2 -> fast" 0 (Controller.concrete_step c ~state:[| 2.0 |] ~prev_cmd:0);
  Alcotest.(check int) "x=0.5 -> slow" 1 (Controller.concrete_step c ~state:[| 0.5 |] ~prev_cmd:0)

let test_controller_abstract () =
  let c = homing_controller () in
  (* box strictly above 1: only "fast" reachable *)
  let only_fast = Controller.abstract_step c ~box:(B.of_bounds [| (1.5, 2.0) |]) ~prev_cmd:0 in
  Alcotest.(check (list int)) "above 1" [ 0 ] only_fast;
  (* box straddling 1: both *)
  let both = Controller.abstract_step c ~box:(B.of_bounds [| (0.5, 1.5) |]) ~prev_cmd:0 in
  Alcotest.(check (list int)) "straddle" [ 0; 1 ] (List.sort compare both)

(* one F# query runs its 2^nn_splits sub-boxes in a single call *)
let test_controller_nn_splits_bound () =
  Alcotest.(check int) "8 accepted" 8
    (homing_controller ~nn_splits:8 ()).Controller.nn_splits;
  Alcotest.check_raises "9 rejected"
    (Invalid_argument "Controller.make: nn_splits 9 above 8") (fun () ->
      ignore (homing_controller ~nn_splits:9 ()))

let test_argminmax_post_non_finite () =
  (* a NaN makes every comparison false: before the finiteness guard the
     scan silently fell through to index 0 — assert both directions now
     raise instead, and that finite inputs are untouched *)
  Alcotest.(check int) "finite argmin" 1 (Controller.argmin_post [| 2.0; 1.0 |]);
  Alcotest.(check int) "finite argmax" 0 (Controller.argmax_post [| 2.0; 1.0 |]);
  let raises f scores =
    match f scores with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true
  in
  check "argmin NaN first (old silent index 0)" true
    (raises Controller.argmin_post [| Float.nan; 1.0 |]);
  check "argmin NaN later" true
    (raises Controller.argmin_post [| 1.0; Float.nan |]);
  check "argmin +inf" true
    (raises Controller.argmin_post [| Float.infinity; 1.0 |]);
  check "argmax NaN" true (raises Controller.argmax_post [| Float.nan; 1.0 |]);
  check "argmax -inf" true
    (raises Controller.argmax_post [| 1.0; Float.neg_infinity |])

let test_argmin_post_abs () =
  (* scores: [0] in [1,2], [1] in [3,4] -> only 0 reachable *)
  let only0 = Controller.argmin_post_abs (B.of_bounds [| (1.0, 2.0); (3.0, 4.0) |]) in
  Alcotest.(check (list int)) "dominated" [ 0 ] only0;
  let both = Controller.argmin_post_abs (B.of_bounds [| (1.0, 3.5); (3.0, 4.0) |]) in
  Alcotest.(check (list int)) "overlap" [ 0; 1 ] (List.sort compare both)

(* ----- reach (Algorithm 3) ----- *)

let initial_box lo hi = Symset.of_list [ st lo hi 0 ]

let test_reach_proves_homing () =
  let sys = homing_system () in
  let r = Reach.analyze sys (initial_box 1.0 2.0) in
  check "proved safe" true (Reach.is_proved_safe r);
  (match r.Reach.terminated_at with
  | Some j -> check "terminates within horizon" true (j <= 10)
  | None -> Alcotest.fail "expected termination");
  check "peak states bounded by gamma * P" true (r.Reach.max_states <= 10)

let test_reach_flags_runaway () =
  let sys = runaway_system () in
  let r = Reach.analyze sys (initial_box 1.0 2.0) in
  check "not proved" false (Reach.is_proved_safe r);
  match r.Reach.outcome with
  | Reach.Reached_error _ -> ()
  | _ -> Alcotest.fail "expected Reached_error"

let test_reach_horizon_exhausted () =
  (* target unreachable: T = {x < -100}; system descends but never gets
     there within 10 steps -> no contact with E yet not proved *)
  let sys =
    System.make ~plant:homing_plant
      ~controller:(homing_controller ())
      ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
      ~target:(Spec.coord_lt ~name:"far-home" ~dim:0 ~bound:(-100.0))
      ~horizon_steps:10
  in
  let r = Reach.analyze sys (initial_box 1.0 2.0) in
  check "not proved" false (Reach.is_proved_safe r);
  check "horizon exhausted" true (r.Reach.outcome = Reach.Horizon_exhausted)

let test_reach_encloses_concrete () =
  let sys = homing_system () in
  let r =
    Reach.analyze
      ~config:{ Reach.default_config with early_abort = false }
      sys (initial_box 1.0 2.0)
  in
  let rng = Rng.create 55 in
  for _ = 1 to 30 do
    let x0 = Rng.uniform rng 1.0 2.0 in
    let trace = Concrete.simulate sys ~init_state:[| x0 |] ~init_cmd:0 in
    (* every pre-termination trace point must be inside some flow piece
       of its control step *)
    List.iter
      (fun (t, s, cmd) ->
        let j = int_of_float ((t /. 0.5) +. 1e-9) in
        match List.nth_opt r.Reach.steps j with
        | None -> ()
        | Some sr ->
            check
              (Printf.sprintf "trace point t=%.2f x=%.3f enclosed" t s.(0))
              true
              (Symset.member sr.Reach.flow s cmd))
      trace.Concrete.points
  done

let test_concrete_simulation () =
  let sys = homing_system () in
  let trace = Concrete.simulate sys ~init_state:[| 1.5 |] ~init_cmd:0 in
  (match trace.Concrete.termination with
  | Concrete.Terminated t -> check "terminates in reasonable time" true (t <= 5.0)
  | _ -> Alcotest.fail "expected termination");
  let s, _ = Concrete.final_state trace in
  check "final below target" true (s.(0) < 0.2);
  let runaway = Concrete.simulate (runaway_system ()) ~init_state:[| 1.5 |] ~init_cmd:0 in
  match runaway.Concrete.termination with
  | Concrete.Hit_error _ -> ()
  | _ -> Alcotest.fail "expected error hit"

(* ----- verify driver ----- *)

let test_verify_partition_and_coverage () =
  let sys = homing_system () in
  let cells = Partition.with_command 0 (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| 4 |]) in
  Alcotest.(check int) "4 cells" 4 (List.length cells);
  let config = { Verify.default_config with strategy = Verify.All_dims [ 0 ]; max_depth = 1 } in
  let report = Verify.verify_partition ~config sys cells in
  check "full coverage" true (report.Verify.coverage > 99.9);
  Alcotest.(check int) "all cells proved" 4 report.Verify.proved_cells

let test_verify_split_refinement () =
  (* E = {x > 2.6}: the whole-box flow from [1,2] stays below; but start
     the cell wide [0.5, 2.0] with a tight E {x > 2.05}: the first flow
     piece of the "fast"? — craft instead a coverage < 100 case via the
     runaway system, where no refinement can help *)
  let sys = runaway_system () in
  let cells = [ st 1.0 2.0 0 ] in
  let config = { Verify.default_config with strategy = Verify.All_dims [ 0 ]; max_depth = 1 } in
  let report = Verify.verify_partition ~config sys cells in
  check "zero coverage" true (report.Verify.coverage < 1e-9);
  let leaves = (List.hd report.Verify.cells).Verify.leaves in
  Alcotest.(check int) "refined into 2 leaves" 2 (List.length leaves);
  check "all leaves depth 1" true (List.for_all (fun l -> l.Verify.depth = 1) leaves)

let test_verify_parallel_agrees () =
  let sys = homing_system () in
  let cells = Partition.with_command 0 (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| 6 |]) in
  let serial = Verify.verify_partition ~config:{ Verify.default_config with strategy = Verify.All_dims [ 0 ] } sys cells in
  let parallel =
    Verify.verify_partition
      ~config:{ Verify.default_config with strategy = Verify.All_dims [ 0 ]; workers = 3 }
      sys cells
  in
  Alcotest.(check (float 1e-9)) "same coverage" serial.Verify.coverage parallel.Verify.coverage;
  Alcotest.(check int) "same proved count" serial.Verify.proved_cells parallel.Verify.proved_cells

let test_partition_grid () =
  let b = B.of_bounds [| (0.0, 1.0); (0.0, 2.0) |] in
  let cells = Partition.grid b ~cells:[| 2; 3 |] in
  Alcotest.(check int) "6 cells" 6 (List.length cells);
  let hull = List.fold_left B.hull (List.hd cells) cells in
  check "cells cover" true (B.equal hull b)

let test_partition_grid_rejects_nonfinite_width () =
  (* hi - lo overflows to infinity: every derived cell bound would be
     infinite or NaN, so the failure must be loud and name the culprit *)
  let m = Float.max_float in
  let whole = B.of_bounds [| (0.0, 1.0); (-.m, m) |] in
  (match Partition.grid whole ~cells:[| 1; 2 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check "error names the dimension" true (contains msg "dimension 1"));
  (* an unsplit overflowing dimension is fine: its bounds pass through *)
  Alcotest.(check int) "unsplit dimension untouched" 3
    (List.length (Partition.grid whole ~cells:[| 3; 1 |]))

let test_partition_ring () =
  (* each arc bounding box must contain its arc's endpoints *)
  let arcs = 8 and radius = 100.0 in
  for i = 0 to arcs - 1 do
    let (xlo, xhi), (ylo, yhi) = Partition.ring ~radius ~arcs ~arc_index:i in
    List.iter
      (fun k ->
        let a = 2.0 *. Float.pi *. float_of_int k /. float_of_int arcs in
        let x = radius *. Float.cos a and y = radius *. Float.sin a in
        check "endpoint in bbox" true
          (x >= xlo -. 1e-9 && x <= xhi +. 1e-9 && y >= ylo -. 1e-9 && y <= yhi +. 1e-9))
      [ i; i + 1 ]
  done


(* ----- multi-agent product controller ----- *)

let test_multi_encode_decode () =
  for i1 = 0 to 4 do
    for i2 = 0 to 4 do
      let i = Multi.encode ~p2:5 i1 i2 in
      check "roundtrip" true (Multi.decode ~p2:5 i = (i1, i2))
    done
  done

let test_multi_product_semantics () =
  (* product of the homing controller with itself on a 2-d plant: each
     copy reads its own coordinate *)
  let c1 = homing_controller () in
  let slice i (c : Controller.t) =
    {
      c with
      Controller.pre = (fun s -> [| s.(i) |]);
      pre_abs = (fun b -> B.of_intervals [| B.get b i |]);
    }
  in
  let prod = Multi.product (slice 0 c1) (slice 1 c1) in
  Alcotest.(check int) "4 product commands" 4 (Command.size prod.Controller.commands);
  Alcotest.(check int) "command dim 2" 2 (Command.dim prod.Controller.commands);
  (* x = 2 (fast), y = 0.5 (slow): product command (0, 1) *)
  let cmd = Controller.concrete_step prod ~state:[| 2.0; 0.5 |] ~prev_cmd:0 in
  check "concrete product decision" true (Multi.decode ~p2:2 cmd = (0, 1));
  (* abstract: x strictly above 1, y straddles 1: {fast} x {fast, slow} *)
  let cmds =
    Controller.abstract_step prod
      ~box:(B.of_bounds [| (1.5, 2.0); (0.5, 1.5) |])
      ~prev_cmd:0
  in
  Alcotest.(check (list int)) "abstract product set"
    [ Multi.encode ~p2:2 0 0; Multi.encode ~p2:2 0 1 ]
    (List.sort compare cmds)

let test_multi_product_reach () =
  (* two independent homing loops verified as one system *)
  let plant2 =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:2 [| E.input 0; E.input 1 |]
  in
  let c1 = homing_controller () in
  let slice i (c : Controller.t) =
    {
      c with
      Controller.pre = (fun s -> [| s.(i) |]);
      pre_abs = (fun b -> B.of_intervals [| B.get b i |]);
    }
  in
  let prod = Multi.product (slice 0 c1) (slice 1 c1) in
  let inside_target st =
    I.hi (B.get st.Symstate.box 0) < 0.2 && I.hi (B.get st.Symstate.box 1) < 0.2
  in
  let sys =
    System.make ~plant:plant2 ~controller:prod
      ~erroneous:
        (Spec.union ~name:"blowup"
           (Spec.coord_gt ~name:"x" ~dim:0 ~bound:4.0)
           (Spec.coord_gt ~name:"y" ~dim:1 ~bound:4.0))
      ~target:
        (Spec.make ~name:"home2" ~contains_box:inside_target
           ~intersects_box:(fun st ->
             I.lo (B.get st.Symstate.box 0) < 0.2
             && I.lo (B.get st.Symstate.box 1) < 0.2)
           ~contains_point:(fun s _ -> s.(0) < 0.2 && s.(1) < 0.2))
      ~horizon_steps:10
  in
  let r0 =
    Symset.of_list
      [ Symstate.make (B.of_bounds [| (1.0, 1.5); (1.2, 1.6) |]) 0 ]
  in
  let r = Reach.analyze ~config:{ Reach.default_config with gamma = 8 } sys r0 in
  check "product system proved" true (Reach.is_proved_safe r)

(* ----- monitor ----- *)

let test_monitor_accepts_and_roundtrip () =
  let proved = [ st 0.0 1.0 0; st 2.0 3.0 1 ] in
  let m = Monitor.of_cells proved in
  Alcotest.(check int) "count" 2 (Monitor.proved_cell_count m);
  check "accepts member" true (Monitor.accepts m ~state:[| 0.5 |] ~cmd:0);
  check "rejects wrong cmd" false (Monitor.accepts m ~state:[| 0.5 |] ~cmd:1);
  check "rejects outside" false (Monitor.accepts m ~state:[| 1.5 |] ~cmd:0);
  let path = Filename.temp_file "nncs_mon" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Monitor.save m path;
      let m2 = Monitor.load path in
      Alcotest.(check int) "roundtrip count" 2 (Monitor.proved_cell_count m2);
      check "roundtrip accepts" true (Monitor.accepts m2 ~state:[| 2.5 |] ~cmd:1))

let test_monitor_of_report () =
  let sys = homing_system () in
  let cells =
    Partition.with_command 0
      (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| 4 |])
  in
  let report =
    Verify.verify_partition
      ~config:{ Verify.default_config with strategy = Verify.All_dims [ 0 ] }
      sys cells
  in
  let m = Monitor.of_report report cells in
  check "all proved cells accepted" true
    (Monitor.accepts m ~state:[| 1.1 |] ~cmd:0
    && Monitor.accepts m ~state:[| 1.9 |] ~cmd:0)

(* ----- influence-guided splitting ----- *)

let test_influence_order () =
  (* 2-d plant where only dimension 0 feeds the controller: dim 0 must
     rank as the most influential *)
  let plant2 =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:1 [| E.input 0; E.const 0.0 |]
  in
  let ctrl =
    {
      (homing_controller ()) with
      Controller.pre = (fun s -> [| s.(0) |]);
      pre_abs = (fun b -> B.of_intervals [| B.get b 0 |]);
    }
  in
  let sys =
    System.make ~plant:plant2 ~controller:ctrl
      ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
      ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
      ~horizon_steps:10
  in
  let cell =
    Symstate.make (B.of_bounds [| (0.5, 1.5); (-10.0, 10.0) |]) 0
  in
  (match Verify.influence_order sys cell [ 0; 1 ] with
  | first :: _ -> Alcotest.(check int) "dim 0 most influential" 0 first
  | [] -> Alcotest.fail "empty influence order");
  (* the Most_influential strategy proves the cell while splitting only
     the useful dimension *)
  let config =
    {
      Verify.default_config with
      strategy = Verify.Most_influential { candidates = [ 0; 1 ]; take = 1 };
      max_depth = 2;
    }
  in
  let report = Verify.verify_partition ~config sys [ cell ] in
  check "verified with influence splitting" true (report.Verify.coverage > 99.9)

let () =
  Alcotest.run "core"
    [
      ("command", [ Alcotest.test_case "set basics" `Quick test_command_set ]);
      ( "symbolic",
        [
          Alcotest.test_case "symstate" `Quick test_symstate;
          Alcotest.test_case "symset" `Quick test_symset;
        ] );
      ("spec", [ Alcotest.test_case "regions" `Quick test_spec_regions ]);
      ( "resize",
        [
          Alcotest.test_case "joins closest" `Quick test_resize_joins_closest;
          Alcotest.test_case "resize_stats counts joins" `Quick
            test_resize_stats_counts_joins;
          Alcotest.test_case "remark 3" `Quick test_resize_gamma_below_commands;
          QCheck_alcotest.to_alcotest prop_resize_sound;
        ] );
      ( "controller",
        [
          Alcotest.test_case "concrete" `Quick test_controller_concrete;
          Alcotest.test_case "abstract" `Quick test_controller_abstract;
          Alcotest.test_case "argmin post#" `Quick test_argmin_post_abs;
          Alcotest.test_case "non-finite scores raise" `Quick
            test_argminmax_post_non_finite;
          Alcotest.test_case "nn_splits bounded" `Quick
            test_controller_nn_splits_bound;
        ] );
      ( "reach",
        [
          Alcotest.test_case "proves homing" `Quick test_reach_proves_homing;
          Alcotest.test_case "flags runaway" `Quick test_reach_flags_runaway;
          Alcotest.test_case "horizon exhausted" `Quick test_reach_horizon_exhausted;
          Alcotest.test_case "encloses concrete" `Quick test_reach_encloses_concrete;
        ] );
      ( "concrete",
        [ Alcotest.test_case "simulation" `Quick test_concrete_simulation ] );
      ( "multi",
        [
          Alcotest.test_case "encode/decode" `Quick test_multi_encode_decode;
          Alcotest.test_case "product semantics" `Quick test_multi_product_semantics;
          Alcotest.test_case "product reach" `Quick test_multi_product_reach;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "accepts + roundtrip" `Quick test_monitor_accepts_and_roundtrip;
          Alcotest.test_case "of report" `Quick test_monitor_of_report;
        ] );
      ( "verify",
        [
          Alcotest.test_case "partition + coverage" `Quick test_verify_partition_and_coverage;
          Alcotest.test_case "influence order" `Quick test_influence_order;
          Alcotest.test_case "split refinement" `Quick test_verify_split_refinement;
          Alcotest.test_case "parallel agrees" `Quick test_verify_parallel_agrees;
          Alcotest.test_case "grid partition" `Quick test_partition_grid;
          Alcotest.test_case "grid rejects non-finite width" `Quick
            test_partition_grid_rejects_nonfinite_width;
          Alcotest.test_case "ring partition" `Quick test_partition_ring;
        ] );
    ]
