(* Benchmark harness: regenerates every figure / quantitative claim of
   the paper's evaluation (see DESIGN.md section 4 for the experiment
   index).  Run:

     dune exec bench/main.exe                 # all experiments, scaled
     dune exec bench/main.exe -- e1 e5        # a subset
     dune exec bench/main.exe -- timing       # Bechamel micro-benchmarks

   Absolute numbers differ from the paper (their testbed: 2 x 12 cores
   for 12 days; here: minutes on one core, a scaled partition and
   re-trained networks) — the *shapes* are the reproduction target: who
   wins, by what rough factor, and where the hard regions lie. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Rng = Nncs_linalg.Rng
module D = Nncs_acasxu.Defs
module Dyn = Nncs_acasxu.Dynamics
module S = Nncs_acasxu.Scenario
module T = Nncs_acasxu.Training
module Net = Nncs_nn.Network
module Tr = Nncs_nnabs.Transformer
open Nncs

let section name = Printf.printf "\n===== %s =====\n%!" name
let now = Nncs_obs.Clock.monotonic_s

(* networks are shared by most experiments *)
let networks = lazy (snd (T.load_or_train ~dir:"data" ()))

let system () = S.system ~networks:(Lazy.force networks) ()

(* ------------------------------------------------------------------ *)
(* E1 (Fig 7): enclosure tightness vs number of integration steps M    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 / Fig 7 - validated simulation: M integration steps vs tightness";
  (* one control period of the ACAS Xu plant from a partition-sized box,
     strong-left command *)
  let state =
    B.of_bounds
      [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |]
  in
  let u = Command.value_box D.commands (D.index D.Strong_left) in
  Printf.printf "%4s  %14s  %14s  %10s\n" "M" "piece width" "endpoint width" "time (ms)";
  List.iter
    (fun m ->
      let t0 = now () in
      let r =
        Nncs_ode.Simulate.simulate Dyn.plant ~t0:0.0 ~period:D.period_s
          ~steps:m ~order:6 ~state ~inputs:u
      in
      let dt = 1000.0 *. (now () -. t0) in
      (* Fig 7 compares how snugly the collection of boxes hugs the
         swept tube: the per-piece position width is the measure (the
         hull of all pieces is dominated by the 1300 ft of travel and
         barely depends on M) *)
      let pos_width b = Float.max (I.width (B.get b D.ix)) (I.width (B.get b D.iy)) in
      let pieces = r.Nncs_ode.Simulate.pieces in
      let mean =
        Array.fold_left (fun a p -> a +. pos_width p) 0.0 pieces
        /. float_of_int (Array.length pieces)
      in
      Printf.printf "%4d  %14.2f  %14.2f  %10.2f\n" m mean
        (pos_width r.Nncs_ode.Simulate.endpoint) dt)
    [ 1; 2; 4; 10; 20 ];
  Printf.printf "(expected shape: per-piece width shrinks sharply with M —\n\
                \ fewer unreachable states inside the enclosure, cf. Fig 7)\n"

(* ------------------------------------------------------------------ *)
(* E1b: direct interval Taylor vs Loehner mean-value QR scheme          *)
(* ------------------------------------------------------------------ *)

let e1b () =
  section "E1b / Section 6.2 - direct vs Loehner validated simulation";
  let module Eo = Nncs_ode.Expr in
  (* a rotation-heavy case (harmonic oscillator over several turns) and
     the ACAS Xu plant over one control period *)
  let oscillator =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:1 [| Eo.state 1; Eo.neg (Eo.state 0) |]
  in
  let cases =
    [
      ( "oscillator, 2 turns",
        oscillator,
        B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |],
        B.of_point [| 0.0 |],
        4.0 *. Float.pi,
        100 );
      ( "ACAS Xu, 1 period SL",
        Dyn.plant,
        B.of_bounds
          [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |],
        Command.value_box D.commands (D.index D.Strong_left),
        D.period_s,
        10 );
    ]
  in
  Printf.printf "%-22s %14s %14s %10s %10s\n" "case" "direct width"
    "lohner width" "direct ms" "lohner ms";
  List.iter
    (fun (name, sys, state, u, period, steps) ->
      let run scheme =
        let t0 = now () in
        let r =
          Nncs_ode.Simulate.simulate ~scheme sys ~t0:0.0 ~period ~steps
            ~order:8 ~state ~inputs:u
        in
        (B.max_width r.Nncs_ode.Simulate.endpoint, 1000.0 *. (now () -. t0))
      in
      let wd, td = run Nncs_ode.Simulate.Direct in
      let wl, tl = run Nncs_ode.Simulate.Lohner in
      Printf.printf "%-22s %14.4f %14.4f %10.2f %10.2f\n" name wd wl td tl)
    cases;
  Printf.printf "(expected: Loehner pays ~2-5x time and wins dramatically on\n\
                \ rotation-heavy flows; near parity on short mild steps)\n"

(* ------------------------------------------------------------------ *)
(* E2-E4 (Fig 9a, Fig 9b, overall coverage): the main experiment       *)
(* ------------------------------------------------------------------ *)

let main_experiment_cache :
    (int * (int * Verify.cell_report) list * float) option ref =
  ref None

let arcs_e2 = 18
let headings_e2 = 6

let run_main_experiment () =
  match !main_experiment_cache with
  | Some r -> r
  | None ->
      let sys = system () in
      let cells = S.initial_cells ~arcs:arcs_e2 ~headings:headings_e2 () in
      let config =
        {
          Verify.default_config with
          reach = { Reach.default_config with keep_sets = false };
          strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
          max_depth = 1;
        }
      in
      Printf.printf "verifying %d cells (%d arcs x %d headings, depth 1)...\n%!"
        (List.length cells) arcs_e2 headings_e2;
      let t0 = now () in
      let report = Verify.verify_partition ~config sys (List.map snd cells) in
      let dt = now () -. t0 in
      let tagged =
        List.map
          (fun (c : Verify.cell_report) -> (fst (List.nth cells c.Verify.index), c))
          report.Verify.cells
      in
      let r = (arcs_e2, tagged, dt) in
      main_experiment_cache := Some r;
      r

let e2 () =
  section "E2 / Fig 9a - safety map over the initial states (ribbon partition)";
  let arcs, tagged, _ = run_main_experiment () in
  Printf.printf
    "each row = one arc of the sensor circle (bearing of first detection)\n";
  Printf.printf "%4s %12s  %s\n" "arc" "bearing(deg)" "heading cells (entry cone)";
  List.iter
    (fun arc ->
      let mine = List.filter (fun (a, _) -> a = arc) tagged in
      let row =
        String.concat ""
          (List.map
             (fun (_, (c : Verify.cell_report)) ->
               if c.Verify.proved_fraction >= 1.0 -. 1e-9 then "o"
               else if c.Verify.proved_fraction > 0.0 then "+"
               else "x")
             mine)
      in
      Printf.printf "%4d %12.0f  %s\n" arc
        (S.arc_center_angle ~arcs arc *. 180.0 /. Float.pi)
        row)
    (List.init arcs Fun.id);
  Printf.printf "(o fully proved, + partially proved after refinement, x not proved)\n"

let e3 () =
  section "E3 / Fig 9b - coverage and time per arc (bearing of the intruder)";
  let arcs, tagged, _ = run_main_experiment () in
  Printf.printf "%4s %12s %12s %10s\n" "arc" "bearing(deg)" "coverage(%)" "time(s)";
  List.iter
    (fun arc ->
      let mine = List.filter_map (fun (a, c) -> if a = arc then Some c else None) tagged in
      let cov = Verify.coverage_of_cells mine in
      let time =
        List.fold_left (fun a (c : Verify.cell_report) -> a +. c.Verify.elapsed) 0.0 mine
      in
      Printf.printf "%4d %12.0f %12.1f %10.2f\n" arc
        (S.arc_center_angle ~arcs arc *. 180.0 /. Float.pi)
        cov time)
    (List.init arcs Fun.id);
  Printf.printf
    "(expected shape: dips in coverage / spikes in time around the hard\n\
    \ bearings; roughly symmetric about the ownship axis, cf. Fig 9b)\n"

let e4 () =
  section "E4 / Section 7.2 - overall coverage";
  let _, tagged, dt = run_main_experiment () in
  let cells = List.map snd tagged in
  let coverage = Verify.coverage_of_cells cells in
  let proved =
    List.length
      (List.filter
         (fun (c : Verify.cell_report) -> c.Verify.proved_fraction >= 1.0 -. 1e-9)
         cells)
  in
  Printf.printf "partition: %d arcs x %d headings = %d cells, split depth 1\n"
    arcs_e2 headings_e2 (List.length cells);
  Printf.printf "coverage c = %.1f%%  (paper: 90.3%% at their scale)\n" coverage;
  Printf.printf "fully proved cells: %d/%d, total time %.1f s\n" proved
    (List.length cells) dt

(* ------------------------------------------------------------------ *)
(* E5: Gamma (Algorithm 2) accuracy / time trade-off                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 / Section 6.4 - Gamma trade-off (join threshold)";
  let sys = system () in
  (* a crossing cell that stresses the command branching *)
  let cells = S.initial_cells ~arcs:18 ~headings:6 ~arc_indices:[ 3 ] () in
  let cell = snd (List.nth cells 2) in
  Printf.printf "%6s %8s %12s %12s %10s\n" "Gamma" "proved" "max states" "joins" "time(s)";
  List.iter
    (fun gamma ->
      let t0 = now () in
      let r =
        Reach.analyze
          ~config:{ Reach.default_config with gamma; keep_sets = false }
          sys
          (Symset.of_list [ cell ])
      in
      Printf.printf "%6d %8b %12d %12d %10.2f\n" gamma (Reach.is_proved_safe r)
        r.Reach.max_states r.Reach.total_joins
        (now () -. t0))
    [ 5; 10; 20; 40 ];
  Printf.printf
    "(larger Gamma: fewer joins, tighter sets, more time — Remark 3\n\
    \ requires Gamma >= P = 5)\n"

(* ------------------------------------------------------------------ *)
(* E6: NN abstract domains tightness / cost                             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 / Section 6.6 - F# abstract domains on the trained networks";
  let nets = Lazy.force networks in
  let rng = Rng.create 2718 in
  let widths = [ 0.01; 0.03; 0.1 ] in
  Printf.printf "%12s %12s %12s %12s %14s\n" "input width" "interval" "symbolic"
    "affine" "sym+split(2)";
  List.iter
    (fun w ->
      let boxes =
        List.init 50 (fun _ ->
            let center =
              [|
                Rng.uniform rng 0.1 1.0;
                Rng.uniform rng (-0.9) 0.9;
                Rng.uniform rng (-0.9) 0.9;
                0.7;
                0.6;
              |]
            in
            ( Rng.int rng 5,
              B.of_intervals (Array.map (fun c -> I.make (c -. w) (c +. w)) center) ))
      in
      let mean_width domain splits =
        let acc =
          List.fold_left
            (fun acc (k, box) ->
              let out =
                if splits = 0 then Tr.propagate domain nets.(k) box
                else Tr.propagate_split domain ~splits nets.(k) box
              in
              acc +. B.max_width out)
            0.0 boxes
        in
        acc /. float_of_int (List.length boxes)
      in
      Printf.printf "%12.3f %12.4f %12.4f %12.4f %14.4f\n" w
        (mean_width Tr.Interval 0) (mean_width Tr.Symbolic 0)
        (mean_width Tr.Affine 0) (mean_width Tr.Symbolic 2))
    widths;
  Printf.printf
    "(expected: symbolic < interval, gap growing with the input width;\n\
    \ input splitting tightens further)\n"

(* ------------------------------------------------------------------ *)
(* E7: sound flow enclosure vs discrete-instant baseline                *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 / Section 2 - vs the discrete-instant baseline [7]";
  (* the crafted oscillator whose excursion into E happens strictly
     between sampling instants (see test_baseline.ml) *)
  let module Eo = Nncs_ode.Expr in
  let omega = 2.0 *. Float.pi in
  let plant =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:1
      [| Eo.state 1; Eo.(scale (-.(omega *. omega)) (state 0)) |]
  in
  let commands = Command.make [| [| 0.0 |] |] in
  let constant_net =
    Net.make ~input_dim:1
      [|
        {
          Net.weights = Nncs_linalg.Mat.create 1 1 0.0;
          biases = [| 0.0 |];
          activation = Nncs_nn.Activation.Linear;
        };
      |]
  in
  let controller =
    Controller.make ~period:1.0 ~commands ~networks:[| constant_net |]
      ~select:(fun _ -> 0)
      ~pre:(fun s -> [| s.(0) |])
      ~pre_abs:(fun b -> B.of_intervals [| B.get b 0 |])
      ~post:(fun _ -> 0)
      ~post_abs:(fun _ -> [ 0 ])
      ()
  in
  let sys =
    System.make ~plant ~controller
      ~erroneous:(Spec.coord_gt ~name:"peak" ~dim:0 ~bound:0.9)
      ~target:(Spec.coord_lt ~name:"never" ~dim:0 ~bound:(-100.0))
      ~horizon_steps:3
  in
  let cell = Symstate.make (B.of_bounds [| (0.0, 0.0); (5.9, 6.0) |]) 0 in
  let discrete = Nncs_baseline.Discrete.analyze sys cell in
  let reach = Reach.analyze sys (Symset.of_list [ cell ]) in
  let ground_truth =
    Concrete.simulate ~substeps:100 sys ~init_state:[| 0.0; 5.95 |] ~init_cmd:0
  in
  Printf.printf "system: harmonic oscillator peaking above E between samples\n";
  Printf.printf "%-34s %s\n" "discrete-instant baseline [7]:"
    (match discrete with
    | Nncs_baseline.Discrete.No_collision_observed -> "NO VIOLATION SEEN (unsound!)"
    | Nncs_baseline.Discrete.Collision_at_sample _ -> "violation at a sample");
  Printf.printf "%-34s %s\n" "our flow enclosure (Algorithm 3):"
    (match reach.Reach.outcome with
    | Reach.Reached_error { step } -> Printf.sprintf "contact with E at step %d" step
    | Reach.Proved_safe | Reach.Horizon_exhausted -> "missed (unexpected)");
  Printf.printf "%-34s %s\n" "ground truth (dense simulation):"
    (match ground_truth.Concrete.termination with
    | Concrete.Hit_error t -> Printf.sprintf "E entered at t = %.2f s (between samples)" t
    | Concrete.Terminated _ | Concrete.Horizon_end -> "no excursion (unexpected)")

(* ------------------------------------------------------------------ *)
(* E8: falsification as the complement of the proof                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 / Section 2 - falsification on hard vs easy cells";
  let sys = system () in
  let module F = Nncs_baseline.Falsify in
  let cell_of arc_deg k =
    let arcs = 72 in
    let arc = int_of_float (float_of_int arcs *. arc_deg /. 360.0) in
    snd (List.nth (S.initial_cells ~arcs ~headings:24 ~arc_indices:[ arc ] ()) k)
  in
  let run name cell shots =
    let t0 = now () in
    let r =
      F.falsify ~config:{ F.default_config with shots } sys ~cell
        ~metric:F.acasxu_metric
    in
    Printf.printf "%-24s %5d sims  best objective %8.1f ft  %-13s  %.1f s\n" name
      r.F.simulations r.F.best_metric
      (if r.F.witness <> None then "WITNESS FOUND" else "none found")
      (now () -. t0)
  in
  run "head-on (hard)" (cell_of 90.0 11) 60;
  run "oblique (easy)" (cell_of 20.0 4) 25;
  Printf.printf
    "(expected: a concrete collision witness in the head-on sliver,\n\
    \ nothing on the oblique cell — where reachability supplies the proof)\n"

(* ------------------------------------------------------------------ *)
(* E9: split refinement depth vs coverage                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 / Section 7.1 - split refinement: coverage vs max depth";
  let sys = system () in
  (* a coarse slice of the ribbon around a crossing bearing *)
  let cells =
    List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 2; 3 ] ())
  in
  Printf.printf "%6s %12s %12s %10s\n" "depth" "coverage(%)" "proved cells" "time(s)";
  List.iter
    (fun depth ->
      let config =
        {
          Verify.default_config with
          reach = { Reach.default_config with keep_sets = false };
          strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
          max_depth = depth;
        }
      in
      let report = Verify.verify_partition ~config sys cells in
      Printf.printf "%6d %12.1f %9d/%-2d %10.1f\n" depth report.Verify.coverage
        report.Verify.proved_cells report.Verify.total_cells
        report.Verify.elapsed)
    [ 0; 1; 2 ];
  Printf.printf "(expected: coverage rises with depth at increasing cost)\n"

(* ------------------------------------------------------------------ *)
(* E10: influence-guided splitting (paper future work, direction 2)     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 / Section 8 - split refinement strategies";
  let sys = system () in
  let cells =
    List.map snd (S.initial_cells ~arcs:24 ~headings:4 ~arc_indices:[ 2 ] ())
  in
  let strategies =
    [
      ("all dims (paper, 2^3)", Verify.All_dims [ D.ix; D.iy; D.ipsi ]);
      ( "influence, take 1 (2^1)",
        Verify.Most_influential { candidates = [ D.ix; D.iy; D.ipsi ]; take = 1 } );
      ( "influence, take 2 (2^2)",
        Verify.Most_influential { candidates = [ D.ix; D.iy; D.ipsi ]; take = 2 } );
    ]
  in
  Printf.printf "%-26s %12s %12s %10s\n" "strategy" "coverage(%)" "leaves" "time(s)";
  List.iter
    (fun (name, strategy) ->
      let config =
        { Verify.default_config with strategy; max_depth = 1 }
      in
      let report = Verify.verify_partition ~config sys cells in
      let leaves =
        List.fold_left
          (fun a (c : Verify.cell_report) -> a + List.length c.Verify.leaves)
          0 report.Verify.cells
      in
      Printf.printf "%-26s %12.1f %12d %10.1f\n" name report.Verify.coverage
        leaves report.Verify.elapsed)
    strategies;
  Printf.printf "(expected: influence-guided splitting reaches similar coverage\n\
                \ with far fewer reachability calls)\n"

(* ------------------------------------------------------------------ *)
(* E11: triage = verification + falsification (future work, dir. 3)    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 / Section 8 - triage of not-proved cells";
  let sys = system () in
  let module Tri = Nncs_baseline.Triage in
  (* a front-sector band where all three buckets appear *)
  let cells =
    List.map snd (S.initial_cells ~arcs:36 ~headings:6 ~arc_indices:[ 8 ] ())
  in
  let config =
    {
      Tri.verify = { Verify.default_config with max_depth = 0 };
      falsify = { Nncs_baseline.Falsify.default_config with shots = 20 };
      metric = Nncs_baseline.Falsify.acasxu_metric;
    }
  in
  let report = Tri.triage config sys cells in
  Printf.printf "cells: %d   proved %d   falsified %d   unknown %d   (%.1f s)\n"
    (List.length cells) report.Tri.proved report.Tri.falsified
    report.Tri.unknown report.Tri.elapsed;
  List.iter
    (fun (r : Tri.cell_result) ->
      match r.Tri.verdict with
      | Tri.Falsified init ->
          Printf.printf "  counterexample at (%.0f, %.0f, psi=%.3f)\n" init.(0)
            init.(1) init.(2)
      | Tri.Proved | Tri.Unknown -> ())
    report.Tri.results;
  Printf.printf "(the paper's Fig 9a marks cells safe/not-proved; triage further\n\
                \ separates not-proved into really-unsafe vs analysis-too-coarse)\n"

(* ------------------------------------------------------------------ *)
(* E13: leaf frontier - sequential vs 4 and 8 workers                    *)
(* ------------------------------------------------------------------ *)

(* Verdict signature: scheduling must be invisible in the results —
   only the wall clock may move. *)
let bench_leaf_sig (l : Verify.leaf) =
  let r =
    match l.Verify.result with
    | Verify.Completed Reach.Proved_safe -> "safe"
    | Verify.Completed (Reach.Reached_error { step }) ->
        Printf.sprintf "unsafe@%d" step
    | Verify.Completed Reach.Horizon_exhausted -> "horizon"
    | Verify.Failed _ -> "failed"
  in
  Printf.sprintf "%d:%b:%s" l.Verify.depth l.Verify.proved r

let report_signature (report : Verify.report) =
  List.sort compare
    (List.map
       (fun (c : Verify.cell_report) ->
         (c.Verify.index, List.map bench_leaf_sig c.Verify.leaves))
       report.Verify.cells)

let e13 () =
  section "E13 / leaf frontier - sequential vs 4 and 8 workers";
  (* a deliberately skewed partition: a handful of cells next to the
     collision cylinder refine to max_depth while their neighbours prove
     at depth 0.  The leaf frontier fans the hard cells' subtrees out
     across all workers; the verdicts must not depend on how many *)
  let sys = S.system ~networks:(Lazy.force networks) () in
  let cells =
    List.map snd (S.initial_cells ~arcs:12 ~headings:6 ~arc_indices:[ 2; 3 ] ())
  in
  let config workers =
    {
      Verify.default_config with
      reach = { Reach.default_config with keep_sets = false };
      strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
      max_depth = 2;
      workers;
    }
  in
  let m_steals = Nncs_obs.Metrics.counter "verify.steals" in
  let run workers =
    let s0 = Nncs_obs.Metrics.value m_steals in
    let t0 = now () in
    let report = Verify.verify_partition ~config:(config workers) sys cells in
    let dt = now () -. t0 in
    let steals = Nncs_obs.Metrics.value m_steals - s0 in
    Printf.printf "workers=%-3d %8.2f s   coverage %5.1f%%   steals %5d\n%!"
      workers dt report.Verify.coverage steals;
    (report_signature report, dt)
  in
  let sig_seq, t_seq = run 1 in
  let variants =
    List.map
      (fun workers ->
        let sig_w, t_w = run workers in
        (workers, t_w, sig_w = sig_seq))
      [ 4; 8 ]
  in
  let verdicts_match = List.for_all (fun (_, _, ok) -> ok) variants in
  List.iter
    (fun (w, t_w, _) ->
      Printf.printf "workers=%d: %.2fx vs sequential (%.2f s -> %.2f s)\n" w
        (if t_w > 0.0 then t_seq /. t_w else 0.0)
        t_seq t_w)
    variants;
  Printf.printf "verdicts identical across worker counts: %b\n" verdicts_match;
  (* wall-clock comparisons only mean something relative to the host's
     core count: on a single-core host every multi-domain config loses
     to sequential (stop-the-world GC synchronizes all domains) *)
  Printf.printf "host cores (recommended domains): %d\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels behind the experiments      *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "timing - Bechamel micro-benchmarks";
  let open Bechamel in
  let nets = Lazy.force networks in
  let state =
    B.of_bounds
      [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |]
  in
  let u = Command.value_box D.commands 0 in
  let input_box =
    B.of_bounds [| (0.4, 0.45); (0.1, 0.15); (0.2, 0.25); (0.7, 0.7); (0.6, 0.6) |]
  in
  let sys = system () in
  let cell =
    (* [open Bechamel] shadows the S alias: qualify fully *)
    snd
      (List.nth
         (Nncs_acasxu.Scenario.initial_cells ~arcs:18 ~headings:6
            ~arc_indices:[ 14 ] ())
         2)
  in
  let tests =
    [
      Test.Elt.unsafe_make ~name:"e1:validated-sim M=10"
        (Staged.stage (fun () ->
             ignore
               (Nncs_ode.Simulate.simulate Dyn.plant ~t0:0.0 ~period:1.0
                  ~steps:10 ~order:6 ~state ~inputs:u)));
      Test.Elt.unsafe_make ~name:"e6:F# interval"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Interval nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e6:F# symbolic"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Symbolic nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e6:F# affine"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Affine nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e2:reach one cell"
        (Staged.stage (fun () ->
             ignore
               (Reach.analyze
                  ~config:{ Reach.default_config with keep_sets = false }
                  sys
                  (Symset.of_list [ cell ]))));
      Test.Elt.unsafe_make ~name:"e8:concrete simulation"
        (Staged.stage (fun () ->
             ignore
               (Concrete.simulate sys
                  ~init_state:
                    (Nncs_acasxu.Scenario.initial_state ~bearing:1.0
                       ~heading:2.4)
                  ~init_cmd:0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  Printf.printf "%-28s %16s\n" "kernel" "time per run";
  List.iter
    (fun elt ->
      let b = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
      let ols =
        Analyze.one
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock b
      in
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          let s =
            if est > 1e9 then Printf.sprintf "%10.3f  s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%10.3f us" (est /. 1e3)
            else Printf.sprintf "%10.1f ns" est
          in
          Printf.printf "%-28s %16s\n%!" (Test.Elt.name elt) s
      | Some [] | None ->
          Printf.printf "%-28s %16s\n%!" (Test.Elt.name elt) "(no estimate)")
    tests

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let all =
    [ ("e1", e1); ("e1b", e1b); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
      ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
      ("e13", e13) ]
  in
  let want name = args = [] || List.mem name args in
  if List.mem "timing" args then bechamel_suite ()
  else begin
    List.iter (fun (name, f) -> if want name then f ()) all;
    Printf.printf "\nbench: done\n"
  end
