(* The leaf frontier must be an invisible optimization: the same
   verdicts, leaves and coverage as a plain depth-first recursion for any
   worker count, one worker visiting leaves in exactly that recursion's
   order, each leaf's time its own, faults isolated to one leaf, orphans
   of dead workers re-queued, and mid-cell resume from journaled leaf
   records.
   Plus the partition/verify-layer correctness fixes that rode along:
   NaN-proof influence ordering and count-once progress, and the pinned
   fingerprint and journal format that existing journals depend on. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Command = Nncs.Command
module Symstate = Nncs.Symstate
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Verify = Nncs.Verify
module Reach = Nncs.Reach
module Symset = Nncs.Symset
module Partition = Nncs.Partition
module Journal = Nncs_resilience.Journal
module Fault = Nncs_resilience.Fault
module Metrics = Nncs_obs.Metrics
module Trace = Nncs_obs.Trace
module Clock = Nncs_obs.Clock

let check = Alcotest.(check bool)

(* the "homing" loop of test_verify: x' = u, argmin picks -1 above x = 1 *)

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

(* [horizon_steps] tunes the workload shape: with the default 10 every
   cell proves at depth 0; with 3 (tau = 1.5 s) a cell needs
   [hi - 0.2 <= 1.5] to prove termination, so the rightmost cells fail
   and refine to max_depth — the skewed partition the leaf frontier is
   built for.  [nn_splits] bisects every F# query's box, so each query
   is a multi-lane kernel call *)
let homing_system ?(horizon_steps = 10) ?nn_splits () =
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
                match l.Verify.result with
                | Verify.Completed _ -> "completed"
                | Verify.Failed f -> Nncs_resilience.Failure.to_string f ))
            c.Verify.leaves ))
      r.Verify.cells )

(* ----- equivalence with the depth-first recursion ----- *)

(* The Section 7.1 driver as a plain recursion: analyse the cell, split
   what is not proved, recurse to max_depth.  No ladder, budget or
   firewall (the fixture never fails); the result has the shape of
   [strip_elapsed]. *)
let reference (config : Verify.config) sys cells =
  let dims =
    match config.Verify.strategy with
    | Verify.All_dims dims -> dims
    | Verify.Most_influential _ -> Alcotest.fail "reference: All_dims only"
  in
  let factor = float_of_int (1 lsl List.length dims) in
  let rec go depth (st : Symstate.t) =
    match Reach.run ~config:config.Verify.reach sys (Symset.of_list [ st ]) with
    | Error f ->
        Alcotest.failf "reference: %s" (Nncs_resilience.Failure.to_string f)
    | Ok r ->
        let proved = Reach.is_proved_safe r in
        if proved || depth >= config.Verify.max_depth then
          [ (B.to_string st.Symstate.box, st.Symstate.cmd, depth, proved, "completed") ]
        else List.concat_map (go (depth + 1)) (Symstate.split st dims)
  in
  let cells =
    List.mapi
      (fun i st ->
        let leaves = go 0 st in
        let proved_fraction =
          List.fold_left
            (fun a (_, _, depth, proved, _) ->
              if proved then a +. (1.0 /. (factor ** float_of_int depth)) else a)
            0.0 leaves
        in
        (i, proved_fraction, leaves))
      cells
  in
  let n = List.length cells in
  let fractions = List.map (fun (_, f, _) -> f) cells in
  ( 100.0 *. List.fold_left ( +. ) 0.0 fractions /. float_of_int n,
    List.length (List.filter (fun f -> f >= 1.0 -. 1e-12) fractions),
    0,
    n,
    cells )

let test_equivalence () =
  List.iter
    (fun (name, sys) ->
      let cells = grid 3 in
      let expected = reference (config 1) sys cells in
      (* the fixture must actually refine, or the frontier is never used *)
      let _, _, _, _, ref_cells = expected in
      check (name ^ ": fixture exercises splitting") true
        (List.exists (fun (_, _, leaves) -> List.length leaves > 1) ref_cells);
      List.iter
        (fun workers ->
          check
            (Printf.sprintf "%s: identical report modulo elapsed (workers=%d)"
               name workers)
            true
            (strip_elapsed
               (Verify.verify_partition ~config:(config workers) sys cells)
            = expected))
        [ 1; 4 ])
    [
      ("homing", homing_system ~horizon_steps:3 ());
      ("homing, nn_splits 2", homing_system ~horizon_steps:3 ~nn_splits:2 ());
    ]

(* ----- a leaf's time is its own -----

   Leaves run one at a time, so on one worker their [elapsed] add up to
   at most the run's, and the span self times of a traced run add up to
   at most its wall time.  [batch_leaves] is inert: it must not change
   either sum.  1 us of slack absorbs rounding. *)

let test_leaf_time_own () =
  let sys = homing_system ~nn_splits:2 () in
  let cells = grid 8 in
  let cfg = config ~batch_leaves:4 1 in
  let slack = 1e-6 in
  let report = Verify.verify_partition ~config:cfg sys cells in
  let leaf_sum =
    List.fold_left
      (fun a (c : Verify.cell_report) ->
        List.fold_left
          (fun a (l : Verify.leaf) -> a +. l.Verify.elapsed)
          a c.Verify.leaves)
      0.0 report.Verify.cells
  in
  check
    (Printf.sprintf "leaves' elapsed %.6f s <= run's %.6f s" leaf_sum
       report.Verify.elapsed)
    true
    (leaf_sum <= report.Verify.elapsed +. slack);
  let self_sum, wall =
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Trace.clear ())
      (fun () ->
        Trace.enable ();
        let t0 = Clock.monotonic_s () in
        ignore (Verify.verify_partition ~config:cfg sys cells);
        let wall = Clock.elapsed_s ~since:t0 in
        Trace.disable ();
        ( List.fold_left
            (fun a (e : Trace.event) -> a +. e.Trace.self)
            0.0 (Trace.events ()),
          wall ))
  in
  check
    (Printf.sprintf "span self times %.6f s <= traced wall %.6f s" self_sum
       wall)
    true
    (self_sum <= wall +. slack)

(* ----- the configured depth sizes no allocation -----

   The frontier's depth buckets used to be allocated up front for
   [max_depth + 1] depths, so a job asking for depth 2^40 died with
   [Out_of_memory] before its first leaf.  Cells that prove at depth 0
   never refine, so any [max_depth] must give the depth-0 report. *)

let test_unbounded_max_depth () =
  let sys = homing_system () in
  let cells = grid 3 in
  let run max_depth workers =
    strip_elapsed
      (Verify.verify_partition
         ~config:{ (config workers) with Verify.max_depth }
         sys cells)
  in
  let expected = run 0 1 in
  let coverage, _, _, _, _ = expected in
  check "every cell proves at depth 0" true (coverage = 100.0);
  List.iter
    (fun workers ->
      check
        (Printf.sprintf "max_depth 2^40 = max_depth 0 (workers=%d)" workers)
        true
        (run (1 lsl 40) workers = expected))
    [ 1; 4 ]

(* ----- one worker runs the depth-first recursion's order ----- *)

type event = Leaf of int * int list | Cell of int

let test_one_worker_depth_first () =
  let sys = homing_system ~horizon_steps:3 () in
  let events = ref [] in
  let report =
    Verify.verify_partition ~config:(config 1)
      ~on_leaf:(fun cell path _ -> events := Leaf (cell, path) :: !events)
      ~on_cell:(fun c -> events := Cell c.Verify.index :: !events)
      sys (grid 3)
  in
  let events = List.rev !events in
  check "every cell refines" true
    (List.for_all
       (fun (c : Verify.cell_report) -> List.length c.Verify.leaves > 1)
       report.Verify.cells);
  (* cell 0's leaves in path order, then cell 0 done, then cell 1, ... *)
  let expected =
    List.concat_map
      (fun (c : Verify.cell_report) ->
        let i = c.Verify.index in
        let paths =
          List.filter_map
            (function Leaf (j, p) when j = i -> Some p | _ -> None)
            events
        in
        Alcotest.(check int)
          (Printf.sprintf "cell %d: one event per leaf" i)
          (List.length c.Verify.leaves) (List.length paths);
        List.map
          (fun p -> Leaf (i, p))
          (List.sort (List.compare Int.compare) paths)
        @ [ Cell i ])
      report.Verify.cells
  in
  check "depth-first visiting order" true (events = expected)

(* ----- per-leaf fault isolation ----- *)

let test_poisoned_leaf_isolated () =
  let sys = homing_system () in
  let cells = grid 8 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* key "3" is cell 3's root leaf (task keys are cell.path) *)
      Fault.arm ~site:"verify.leaf" ~key:"3" (fun () ->
          Stdlib.Failure "boom");
      let poisoned =
        Verify.verify_partition
          ~config:(config 4)
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
              "sibling verdict matches serial" a.Verify.proved_fraction
              b.Verify.proved_fraction)
        baseline.Verify.cells poisoned.Verify.cells)

(* ----- a dying worker's in-flight leaf is re-queued, not lost ----- *)

let test_fatal_death_requeues_orphan () =
  let sys = homing_system () in
  let cells = grid 8 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  let requeued = Metrics.counter "resilience.requeued_leaves" in
  let before = Metrics.value requeued in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* one-shot fatal fault: the claiming domain dies, the orphaned
         leaf is re-queued and the retry (no fault left) succeeds *)
      Fault.arm ~site:"verify.leaf" ~key:"5" ~times:1 (fun () -> Sys.Break);
      let report =
        Verify.verify_partition ~config:(config 2) sys cells
      in
      check "orphaned leaf was re-queued" true
        (Metrics.value requeued > before);
      Alcotest.(check int) "no unknown cells" 0 report.Verify.unknown_cells;
      check "report identical to serial after recovery" true
        (strip_elapsed baseline = strip_elapsed report))

(* ----- mid-cell resume from journaled leaf records ----- *)

let test_midcell_resume () =
  let sys = homing_system ~horizon_steps:3 () in
  let cells = grid 3 in
  let total = List.length cells in
  let cfg = config 1 in
  let recs = ref [] in
  let baseline =
    Verify.verify_partition ~config:cfg
      ~on_leaf:(fun cell path leaf -> recs := (cell, path, leaf) :: !recs)
      sys cells
  in
  let all = List.rev !recs in
  check "every terminal leaf journaled" true
    (List.length all
    = List.fold_left
        (fun n (c : Verify.cell_report) -> n + List.length c.Verify.leaves)
        0 baseline.Verify.cells);
  (* simulate a kill partway through: the journal holds the meta line and
     every other leaf record, and no completed-cell record *)
  let kept = List.filteri (fun i _ -> i mod 2 = 0) all in
  check "interruption leaves a strict subset" true
    (kept <> [] && List.length kept < List.length all);
  let path = Filename.temp_file "nncs_sched" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Journal.with_writer path (fun w ->
          Journal.write w
            (Verify.journal_meta ~total
               ~fingerprint:(Verify.fingerprint ~config:cfg sys cells));
          List.iter
            (fun (cell, p, leaf) ->
              Journal.write w (Verify.leaf_record_to_json ~cell ~path:p leaf))
            kept);
      let j = Verify.load_journal path in
      Alcotest.(check int) "no completed cells in journal" 0
        (List.length j.Verify.completed_cells);
      Alcotest.(check int) "journaled leaves grouped by cell"
        (List.length kept)
        (List.fold_left
           (fun n (_, ls) -> n + List.length ls)
           0 j.Verify.partial_leaves);
      let replayed = Metrics.counter "verify.replayed_leaves" in
      let before = Metrics.value replayed in
      let resumed_recs = ref [] in
      let resumed =
        Verify.verify_partition ~config:cfg ~partial:j.Verify.partial_leaves
          ~on_leaf:(fun cell p leaf -> resumed_recs := (cell, p, leaf) :: !resumed_recs)
          sys cells
      in
      Alcotest.(check int) "recorded leaves replayed, not recomputed"
        (List.length kept)
        (Metrics.value replayed - before);
      Alcotest.(check int) "replayed leaves not re-journaled"
        (List.length all - List.length kept)
        (List.length !resumed_recs);
      check "resumed report identical to the uninterrupted run" true
        (strip_elapsed baseline = strip_elapsed resumed))

(* ----- problem fingerprint ----- *)

let test_fingerprint_sensitivity () =
  let sys = homing_system () in
  let cells = grid 4 in
  let cfg = config 1 in
  let fp = Verify.fingerprint ~config:cfg sys cells in
  Alcotest.(check string)
    "deterministic" fp
    (Verify.fingerprint ~config:cfg sys cells);
  Alcotest.(check int) "16 hex digits" 16 (String.length fp);
  let differs what fp' = check ("sensitive to " ^ what) true (fp <> fp') in
  differs "partition bounds"
    (Verify.fingerprint ~config:cfg sys
       (Partition.with_command 0
          (Partition.grid (B.of_bounds [| (1.0, 2.125) |]) ~cells:[| 4 |])));
  differs "partition size" (Verify.fingerprint ~config:cfg sys (grid 5));
  differs "max_depth"
    (Verify.fingerprint ~config:{ cfg with Verify.max_depth = 3 } sys cells);
  differs "horizon"
    (Verify.fingerprint ~config:cfg
       { sys with System.horizon_steps = 11 }
       cells);
  (* Spec.t is opaque: a changed erroneous set must flip a probe bit even
     when its name is unchanged *)
  differs "spec semantics (same name)"
    (Verify.fingerprint ~config:cfg
       {
         sys with
         System.erroneous = Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:1.5;
       }
       cells);
  (* the worker count does not change the problem: journals are
     interchangeable between runs at any worker count *)
  Alcotest.(check string)
    "worker-agnostic" fp
    (Verify.fingerprint ~config:{ cfg with Verify.workers = 4 } sys cells);
  Alcotest.(check string)
    "batch_leaves-agnostic" fp
    (Verify.fingerprint ~config:{ cfg with Verify.batch_leaves = 16 } sys cells)

(* ----- stored fingerprints and journals stay valid -----

   Journals, memo entries and backreach tables are keyed by these
   digests: the hex below, and the journal lines, were written by the
   code before the hash and box codec moved into [Nncs.Codec]. *)

let pinned_journal =
  [
    {|{"t":"meta","kind":"nncs-verify-journal","version":2,"total":3,"fingerprint":"93ba36faa762bc0d"}|};
    {|{"t":"cell","index":0,"proved_fraction":1,"elapsed":0,"leaves":[{"box":[[1,1.1666666666666665]],"cmd":0,"depth":1,"proved":true,"result":{"verdict":"safe"},"rungs":["base"],"elapsed":0},{"box":[[1.1666666666666665,1.3333333333333333]],"cmd":0,"depth":1,"proved":true,"result":{"verdict":"safe"},"rungs":["base"],"elapsed":0}]}|};
    {|{"t":"cell","index":1,"proved_fraction":0.5,"elapsed":0,"leaves":[{"box":[[1.3333333333333333,1.4166666666666665]],"cmd":0,"depth":2,"proved":true,"result":{"verdict":"safe"},"rungs":["base"],"elapsed":0},{"box":[[1.4166666666666665,1.5]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0},{"box":[[1.5,1.5833333333333333]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0},{"box":[[1.5833333333333333,1.6666666666666665]],"cmd":0,"depth":2,"proved":true,"result":{"verdict":"safe"},"rungs":["base"],"elapsed":0}]}|};
    {|{"t":"cell","index":2,"proved_fraction":0,"elapsed":0,"leaves":[{"box":[[1.6666666666666665,1.75]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0},{"box":[[1.75,1.8333333333333333]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0},{"box":[[1.8333333333333333,1.9166666666666665]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0},{"box":[[1.9166666666666665,2]],"cmd":0,"depth":2,"proved":false,"result":{"verdict":"horizon"},"rungs":["base"],"elapsed":0}]}|};
  ]

let test_fingerprint_pinned () =
  Alcotest.(check string)
    "homing fixture, grid 4" "72fb0b9b430c1da0"
    (Verify.fingerprint ~config:(config 1) (homing_system ()) (grid 4));
  (* the scheme and domain names are hashed too: pin a non-default pair *)
  let sys = homing_system () in
  let lohner =
    let c = config 1 in
    {
      c with
      Verify.reach = { c.Verify.reach with Reach.scheme = Nncs_ode.Simulate.Lohner };
    }
  in
  let affine =
    {
      sys with
      System.controller =
        {
          sys.System.controller with
          Controller.domain = Nncs_nnabs.Transformer.Affine;
        };
    }
  in
  Alcotest.(check string)
    "homing fixture, grid 4, Lohner + Affine" "8c6c1cfa3eae4520"
    (Verify.fingerprint ~config:lohner affine (grid 4));
  let sys = homing_system ~horizon_steps:3 () in
  let cells = grid 3 in
  let path = Filename.temp_file "nncs_pinned" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) pinned_journal;
      close_out oc;
      let j = Verify.load_journal path in
      Alcotest.(check (option string))
        "stored fingerprint matches this problem"
        (Some (Verify.fingerprint ~config:(config 1) sys cells))
        j.Verify.meta_fingerprint;
      let fresh = Verify.verify_partition ~config:(config 1) sys cells in
      let _, _, _, _, stored =
        strip_elapsed { fresh with Verify.cells = j.Verify.completed_cells }
      in
      let _, _, _, _, computed = strip_elapsed fresh in
      check "stored cells load as computed" true (stored = computed))

(* ----- influence_order with NaN scores ----- *)

(* A 2-dim plant whose controller pre-processing degenerates to an
   infinite network input exactly when dimension 1 is bisected: the
   influence score of dim 1 becomes NaN (width of an [inf, inf] score
   interval) while dim 0's stays finite.  The order must put the finite
   dimension first — under polymorphic compare (or bare Float.compare)
   NaN sorted *below* every number and silently won the
   "most influential" slot. *)
let test_influence_order_nan () =
  let controller =
    Controller.make ~period:0.5 ~commands:homing_commands
      ~networks:[| homing_network () |]
      ~select:(fun _ -> 0)
      ~pre:(fun s -> [| s.(0) |])
      ~pre_abs:(fun b ->
        if I.lo (B.get b 1) = 6.0 then
          B.of_intervals [| I.make infinity infinity |]
        else B.of_intervals [| B.get b 0 |])
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
      ~domain:Nncs_nnabs.Transformer.Interval ()
  in
  let sys =
    System.make
      ~plant:(Nncs_ode.Ode.make ~dim:2 ~input_dim:1 [| E.input 0; E.const 0.0 |])
      ~controller
      ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
      ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
      ~horizon_steps:10
  in
  (* bisecting dim 1 of [5, 7] produces the half with lo = 6.0 that the
     pre-processing maps to an infinite input, so dim 1 scores NaN *)
  let cell = Symstate.make (B.of_bounds [| (0.0, 1.0); (5.0, 7.0) |]) 0 in
  Alcotest.(check (list int))
    "NaN-scored dimension goes last" [ 0; 1 ]
    (Verify.influence_order sys cell [ 0; 1 ]);
  Alcotest.(check (list int))
    "candidate order does not matter" [ 0; 1 ]
    (Verify.influence_order sys cell [ 1; 0 ])

(* ----- progress counts each cell at most once ----- *)

let test_progress_counts_once_after_crash () =
  let sys = homing_system () in
  let cells = grid 8 in
  let total = List.length cells in
  let seen = ref [] in
  let mutex = Mutex.create () in
  let progress d t =
    Mutex.lock mutex;
    seen := (d, t) :: !seen;
    Mutex.unlock mutex
  in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* a one-shot fatal fault on cell 2's root leaf kills one of the two
         workers: its orphan is re-queued and finished by the survivor,
         and every cell must still be counted exactly once (crash
         recovery once counted re-run cells a second time and pushed
         progress past [total]) *)
      Fault.arm ~site:"verify.leaf" ~key:"2" ~times:1 (fun () -> Sys.Break);
      let report =
        Verify.verify_partition ~config:(config 2) ~progress sys cells
      in
      Alcotest.(check int) "all cells reported" total report.Verify.total_cells;
      Alcotest.(check int) "no unknown cells after recovery" 0
        report.Verify.unknown_cells;
      check "crash recovery actually ran" true
        (Metrics.value (Metrics.counter "resilience.requeued_leaves") > 0);
      Alcotest.(check int) "exactly one callback per cell" total
        (List.length !seen);
      check "every total is the cell count" true
        (List.for_all (fun (_, t) -> t = total) !seen);
      Alcotest.(check (list int))
        "distinct live counts, never past total"
        (List.init total (fun i -> i + 1))
        (List.sort compare (List.map fst !seen)))

let () =
  Alcotest.run "scheduler"
    [
      ( "leaf scheduler",
        [
          Alcotest.test_case "equivalent to depth-first reference" `Quick
            test_equivalence;
          Alcotest.test_case "one worker visits depth-first" `Quick
            test_one_worker_depth_first;
          Alcotest.test_case "a leaf's time is its own" `Quick
            test_leaf_time_own;
          Alcotest.test_case "unbounded max_depth" `Quick
            test_unbounded_max_depth;
          Alcotest.test_case "poisoned leaf isolated" `Quick
            test_poisoned_leaf_isolated;
          Alcotest.test_case "fatal death re-queues orphan" `Quick
            test_fatal_death_requeues_orphan;
          Alcotest.test_case "mid-cell resume" `Quick test_midcell_resume;
        ] );
      ( "bugfixes",
        [
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "fingerprint and journal pinned" `Quick
            test_fingerprint_pinned;
          Alcotest.test_case "influence order with NaN" `Quick
            test_influence_order_nan;
          Alcotest.test_case "progress counts once" `Quick
            test_progress_counts_once_after_crash;
        ] );
    ]
