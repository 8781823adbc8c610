(* The repository benchmark: three seeded workloads, end-to-end metrics
   measured with tracing off, and per-layer metrics from a separate
   traced run.  Every layer is measured from outside, by timing calls
   into its public functions; nothing in lib/ or bin/ is switched or
   instrumented for the benchmark.  See README.md in this directory for
   the workloads, the metric definitions and the checks.

   Usage: nncsbench --workload W --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}};
   the lines before it print every metric by name with its unit and an
   environment stamp. *)

module S = Nncs_acasxu.Scenario
module D = Nncs_acasxu.Defs
module Verify = Nncs.Verify
module Reach = Nncs.Reach
module Controller = Nncs.Controller
module Symset = Nncs.Symset
module Symstate = Nncs.Symstate
module Command = Nncs.Command
module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module SP = Nncs_nnabs.Symbolic_prop
module Cache = Nncs_nnabs.Cache
module Network = Nncs_nn.Network
module Metrics = Nncs_obs.Metrics
module Trace = Nncs_obs.Trace
module J = Nncs_obs.Json
module Server = Nncs_serve.Server
module P = Nncs_serve.Protocol
module Backreach = Nncs_backreach.Backreach

let now = Nncs_obs.Clock.monotonic_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics, metrics and checks                                       *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolation quantile; 0 on no samples (a layer that the
   workload does not exercise reports 0, see README.md). *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
      else a.(i)

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let minimum = List.fold_left Float.min Float.infinity
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Repetition [r] gives [x.(i)] for item [i] (a leaf, a job); the
   fastest observation of each item, in item order.  Host interference
   only ever adds time, so the minimum over repetitions estimates the
   item's cost on an undisturbed host (README.md, "Steadiness"). *)
let fastest_per_item reps =
  match reps with
  | [] -> []
  | r :: _ ->
      List.init (Array.length r) (fun i ->
          minimum (List.map (fun x -> x.(i)) reps))

(* --seconds bounds the whole run, set-up included *)
let t_start = now ()

(* Whether another iteration, at the mean of the [costs] (seconds) of
   the iterations so far, still ends within the budget.  The first
   iteration always runs. *)
let within_budget ~seconds costs =
  match costs with
  | [] -> true
  | cs -> now () -. t_start +. mean cs <= seconds

let metrics : (string * float * string) list ref = ref []
let record name unit_ value = metrics := (name, value, unit_) :: !metrics

(* sample counts and other context, printed with the environment stamp *)
let samples : (string * J.t) list ref = ref []
let note name v = samples := (name, v) :: List.remove_assoc name !samples
let note_int name n = note name (J.Num (float_of_int n))

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "nncsbench: check failed: %s\n%!" what
  end

let counter name = Metrics.value (Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared 2-vCPU hosts change speed for minutes at a time (README.md,
   "Steadiness"), so the end-to-end timings are scaled to a reference
   host speed.  The probe times three fixed kernels that use nothing
   from lib/ -- dependent float arithmetic, a cache-missing walk, and
   short-lived allocation, the kinds of work the program does -- and
   takes their geometric mean.  The walk's 16 MB live outside the OCaml
   heap, so they do not count in heap_peak_mb. *)
let probe_walk_cycle =
  lazy
    (let n = 1 lsl 22 in
     let a = Bigarray.(Array1.create int32 c_layout n) in
     for i = 0 to n - 1 do
       a.{i} <- Int32.of_int i
     done;
     (* Sattolo's shuffle: one cycle through every slot *)
     let rng = Random.State.make [| 17 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

type pair = { lo : float; hi : float }

let probe_float () =
  let s = ref 0.0 in
  for i = 1 to 1_000_000 do
    s := !s +. (Float.sqrt (float_of_int i) *. 1.0000001)
  done;
  !s

let probe_walk () =
  let a = Lazy.force probe_walk_cycle and j = ref 0 in
  for _ = 1 to 250_000 do
    j := Int32.to_int (Bigarray.Array1.unsafe_get a !j)
  done;
  float_of_int !j

let probe_alloc () =
  let acc = ref { lo = 0.0; hi = 1.0 } in
  for i = 1 to 2_000_000 do
    let x = Sys.opaque_identity { lo = float_of_int i; hi = 2.0 } in
    acc := Sys.opaque_identity { lo = !acc.lo +. x.lo; hi = !acc.hi +. x.hi }
  done;
  !acc.lo

(* the fastest probe of calm runs on the 2-vCPU VM of README.md *)
let probe_reference_s = 0.012

let probes = ref []

let probe_host () =
  ignore (Lazy.force probe_walk_cycle);
  let t f = snd (time (fun () -> ignore (Sys.opaque_identity (f ())))) in
  let tf = t probe_float in
  let tw = t probe_walk in
  let ta = t probe_alloc in
  probes := Float.cbrt (tf *. tw *. ta) :: !probes

(* An end-to-end timing of a [--trace 0] run: the raw figure scaled by
   the reference probe over the run's fastest probe.  The raw figure
   goes into the stamp. *)
let record_timing name unit_ raw =
  let scale = probe_reference_s /. minimum !probes in
  note ("raw." ^ name) (J.Num raw);
  note "host.probe_s" (J.Num (minimum !probes));
  note_int "samples.probes" (List.length !probes);
  record name unit_ (raw *. scale)

(* ------------------------------------------------------------------ *)
(* Shared set-up                                                        *)
(* ------------------------------------------------------------------ *)

(* The committed networks, read directly (no policy table, no training):
   a missing data/ directory is an error, never a multi-minute retrain. *)
let load_networks () =
  Array.init 5 (fun prev ->
      Nncs_nn.Nnet_io.load
        (Nncs_acasxu.Training.network_path ~dir:"data" ~prev))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let outcome_string = function
  | Reach.Proved_safe -> "safe"
  | Reach.Reached_error { step } -> Printf.sprintf "unsafe@%d" step
  | Reach.Horizon_exhausted -> "horizon"

let leaf_signature (l : Verify.leaf) =
  let r =
    match l.Verify.result with
    | Verify.Completed o -> outcome_string o
    | Verify.Failed _ -> "failed"
  in
  Printf.sprintf "%d:%b:%s" l.Verify.depth l.Verify.proved r

(* ------------------------------------------------------------------ *)
(* Replays through the public layer entry points (traced runs)          *)
(* ------------------------------------------------------------------ *)

(* One controller-abstraction query as Reach issued it: the symbolic
   state's box and command.  Reach simulates exactly this state in the
   same control step, so the queries also drive the ODE replay. *)
type query = { q_ctrl : Controller.t; q_box : B.t; q_cmd : int }

type replay = {
  outcomes : Reach.verdict list;  (** one per replayed state *)
  queries : query list;  (** in issue order *)
  abstract_s : float;  (** time inside Controller.abstract_step *)
  run_s : float;  (** sum of per-leaf Reach.run wall time *)
  ode : float list;  (** per query: Simulate.simulate replay time *)
  span_ode_s : float;  (** the program's ode.simulate spans, same calls *)
  span_abstract_s : float;  (** the program's reach.abstract spans *)
}

(* The ODE layer: one recorded state through Simulate.simulate alone.
   The ACAS Xu plant is autonomous, so the step's time label (t0) does
   not change the enclosure work; the replay uses t0 = 0. *)
let simulate_query sys (reach : Reach.config) q =
  let ctrl = q.q_ctrl in
  let inputs = Command.value_box ctrl.Controller.commands q.q_cmd in
  snd
    (time (fun () ->
         Nncs_ode.Simulate.simulate ~scheme:reach.Reach.scheme
           sys.Nncs.System.plant ~t0:0.0 ~period:ctrl.Controller.period
           ~steps:reach.Reach.integration_steps ~order:reach.Reach.taylor_order
           ~state:q.q_box ~inputs))

let span_sum evs =
  List.fold_left (fun a (e : Trace.event) -> a +. e.Trace.dur) 0.0 evs

(* Re-run every state through the scalar Reach.run, with the public
   [?abstract] hook wrapping Controller.abstract_step in a timed region
   that also records each query.  With [layers], each leaf runs traced
   and its queries are replayed through Simulate.simulate right after
   it, so the program's spans, the hook's timing and the ODE replay of
   the same calls are taken within the same fraction of a second. *)
let replay_states ~layers sys (reach : Reach.config) states =
  let leaf_queries = ref [] and abstract_s = ref 0.0 in
  let hook ctrl ~box ~prev_cmd =
    leaf_queries := { q_ctrl = ctrl; q_box = box; q_cmd = prev_cmd } :: !leaf_queries;
    let cmds, dt =
      time (fun () -> Controller.abstract_step ctrl ~box ~prev_cmd)
    in
    abstract_s := !abstract_s +. dt;
    cmds
  in
  let queries = ref [] and run_s = ref 0.0 and ode = ref [] in
  let span_ode = ref 0.0 and span_abs = ref 0.0 in
  let outcomes =
    List.map
      (fun st ->
        leaf_queries := [];
        if layers then Trace.enable ();
        let v, dt =
          time (fun () ->
              Reach.run ~config:reach ~abstract:hook sys (Symset.of_list [ st ]))
        in
        run_s := !run_s +. dt;
        let mine = List.rev !leaf_queries in
        queries := mine :: !queries;
        if layers then begin
          Trace.disable ();
          let evs = Trace.events () in
          Trace.clear ();
          let named n = List.filter (fun (e : Trace.event) -> e.Trace.name = n) evs in
          let sims = named "ode.simulate" and abss = named "reach.abstract" in
          (* an early-abort contact raises between a state's simulation
             and its abstraction: that last simulation has no query *)
          let sims =
            if List.length sims = List.length abss + 1 then
              List.filteri (fun i _ -> i < List.length abss) sims
            else sims
          in
          check "one ode.simulate span per reach.abstract span"
            (List.length sims = List.length abss);
          span_ode := !span_ode +. span_sum sims;
          span_abs := !span_abs +. span_sum abss;
          List.iter (fun q -> ode := simulate_query sys reach q :: !ode) mine
        end;
        v)
      states
  in
  {
    outcomes;
    queries = List.concat (List.rev !queries);
    abstract_s = !abstract_s;
    run_s = !run_s;
    ode = List.rev !ode;
    span_ode_s = !span_ode;
    span_abstract_s = !span_abs;
  }

let merge_replays rps =
  let cat f = List.concat_map f rps and add f = sum (List.map f rps) in
  {
    outcomes = cat (fun r -> r.outcomes);
    queries = cat (fun r -> r.queries);
    abstract_s = add (fun r -> r.abstract_s);
    run_s = add (fun r -> r.run_s);
    ode = cat (fun r -> r.ode);
    span_ode_s = add (fun r -> r.span_ode_s);
    span_abstract_s = add (fun r -> r.span_abstract_s);
  }

let replay_agrees (l : Verify.leaf) (v : Reach.verdict) =
  match (l.Verify.result, v) with
  | Verify.Completed o, Ok r -> l.Verify.rungs = [ "base" ] && o = r.Reach.outcome
  | _ -> false

let same_box a b =
  B.dim a = B.dim b
  && List.for_all
       (fun d ->
         let x = B.get a d and y = B.get b d in
         Int64.equal (Int64.bits_of_float (I.lo x)) (Int64.bits_of_float (I.lo y))
         && Int64.equal (Int64.bits_of_float (I.hi x)) (Int64.bits_of_float (I.hi y)))
       (List.init (B.dim a) Fun.id)

(* Median of paired ratios with a distribution-free ~95% confidence
   interval (binomial order statistics): a ratio of 1 inside the
   interval means "within noise". *)
let ratio_ci rs =
  let a = Array.of_list rs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else
    let half = int_of_float (Float.ceil (0.98 *. Float.sqrt (float_of_int n))) in
    let at i = a.(max 0 (min (n - 1) i)) in
    (median rs, at ((n / 2) - half), at ((n / 2) + half))

(* The F# kernel on each recorded query's Pre# box: the scalar
   Symbolic_prop.propagate and propagate_batch as a batch of one, in
   alternating order; and, per network, chunks of 16 boxes through one
   propagate_batch call, each next to the scalar calls on the same 16
   boxes.  The batched answers must be bit-identical to the scalar
   ones.  Records the kernel metrics and answers the two open kernel
   questions with paired ratios. *)
let replay_kernel queries =
  let items =
    List.map
      (fun q ->
        let ctrl = q.q_ctrl in
        ( ctrl.Controller.networks.(ctrl.Controller.select q.q_cmd),
          ctrl.Controller.pre_abs q.q_box ))
      queries
  in
  let scalar = ref [] and batch1 = ref [] and r1 = ref [] in
  List.iteri
    (fun i (net, x) ->
      let run_scalar () = time (fun () -> SP.propagate net x) in
      let run_batch1 () = time (fun () -> SP.propagate_batch net [| x |]) in
      let (ys, ts), (yb, tb) =
        if i land 1 = 0 then
          let s = run_scalar () in
          (s, run_batch1 ())
        else
          let b = run_batch1 () in
          (run_scalar (), b)
      in
      check "propagate_batch [|x|] = propagate x" (same_box ys yb.(0));
      scalar := ts :: !scalar;
      batch1 := tb :: !batch1;
      r1 := ratio tb ts :: !r1)
    items;
  let by_net = Hashtbl.create 8 in
  List.iter
    (fun (net, x) ->
      let uid = Network.uid net in
      let xs = try snd (Hashtbl.find by_net uid) with Not_found -> [] in
      Hashtbl.replace by_net uid (net, x :: xs))
    items;
  let per_box16 = ref [] and r16 = ref [] in
  Hashtbl.iter
    (fun _ (net, xs) ->
      let xs = Array.of_list (List.rev xs) in
      for c = 0 to (Array.length xs / 16) - 1 do
        let chunk = Array.sub xs (c * 16) 16 in
        let ys, dt = time (fun () -> SP.propagate_batch net chunk) in
        let scalar_s =
          sum
            (Array.to_list
               (Array.mapi
                  (fun j x ->
                    let y, t = time (fun () -> SP.propagate net x) in
                    check "propagate_batch (16 boxes) = propagate" (same_box y ys.(j));
                    t)
                  chunk))
        in
        per_box16 := (dt /. 16.0) :: !per_box16;
        r16 := ratio dt scalar_s :: !r16
      done)
    by_net;
  record "nnabs.propagate_us_p50" "us" (1e6 *. median !scalar);
  record "nnabs.propagate_batch1_us_p50" "us" (1e6 *. median !batch1);
  record "nnabs.propagate_batch16_us_per_box" "us" (1e6 *. median !per_box16);
  let m1, lo1, hi1 = ratio_ci !r1 and m16, lo16, hi16 = ratio_ci !r16 in
  let num x = J.Num x in
  note "answer.batch1_over_scalar" (J.List [ num m1; num lo1; num hi1 ]);
  note "answer.batch1_within_noise" (J.Bool (lo1 <= 1.0 && 1.0 <= hi1));
  note "answer.batch16_per_box_over_scalar" (J.List [ num m16; num lo16; num hi16 ]);
  note "answer.batch16_wins_per_box" (J.Bool (hi16 < 1.0));
  note_int "samples.kernel_pairs" (List.length !r1);
  note_int "samples.kernel_chunks16" (List.length !r16)

(* The interval layer: Bechamel OLS estimate of one operation, in ns. *)
let micro_ns name f =
  let open Bechamel in
  let elt = Test.Elt.unsafe_make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None () in
  let b = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
  let ols =
    Analyze.one
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock b
  in
  match Analyze.OLS.estimates ols with Some (est :: _) -> est | _ -> 0.0

let record_interval_micro () =
  let a = I.make 0.1 0.7 and b = I.make (-0.3) 2.5 in
  record "interval.add_ns" "ns"
    (micro_ns "interval.add" (fun () ->
         ignore (Sys.opaque_identity (I.add (Sys.opaque_identity a) b))));
  record "interval.mul_ns" "ns"
    (micro_ns "interval.mul" (fun () ->
         ignore (Sys.opaque_identity (I.mul (Sys.opaque_identity a) b))))

(* tolerances of the layer-sum cross-check (README.md): a layer timed
   two ways within the same leaf, and the median of [xcheck_pairs]
   back-to-back pairs of a partition run and its replay *)
let xcheck_same_time = 0.15
let xcheck_paired_runs = 0.25
let xcheck_pairs = 3

let xcheck ~tolerance name a b =
  let r = ratio a b in
  note ("xcheck." ^ name) (J.Num r);
  check
    (Printf.sprintf "layer-sum cross-check %s: ratio %.3f outside 1 +- %.2f" name r
       tolerance)
    (Float.abs (r -. 1.0) <= tolerance)

(* Layer numbers shared by every workload's traced run, from a replay
   made with [~layers:true]. *)
let record_replay_layers (rp : replay) =
  let ode_s = sum rp.ode in
  record "ode.simulate_calls" "count" (float_of_int (List.length rp.ode));
  record "ode.simulate_s" "s" ode_s;
  record "ode.simulate_ms_p50" "ms" (1000.0 *. median rp.ode);
  record "nnabs.abstract_calls" "count" (float_of_int (List.length rp.queries));
  record "nnabs.abstract_s" "s" rp.abstract_s;
  replay_kernel rp.queries;
  record "reach.run_s" "s" rp.run_s;
  record "reach.other_s" "s" (rp.run_s -. rp.abstract_s -. ode_s);
  xcheck ~tolerance:xcheck_same_time "ode_simulate_s" ode_s rp.span_ode_s;
  xcheck ~tolerance:xcheck_same_time "nnabs_abstract_s" rp.abstract_s
    rp.span_abstract_s

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let record_gc (w0, c0) (w1, c1) =
  record "gc.minor_mwords" "Mwords" ((w1 -. w0) /. 1e6);
  record "gc.major_collections" "count" (float_of_int (c1 - c0))

(* Peak major heap so far.  Runs read it after their first repetition,
   so that it does not grow with the number of repetitions the budget
   allows. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Span self time summed over a traced run, as a share of its wall. *)
let span_self_ratio wall =
  let evs = Trace.events () in
  Trace.clear ();
  ratio (List.fold_left (fun a (e : Trace.event) -> a +. e.Trace.self) 0.0 evs) wall

(* Program counters accumulated since the last Metrics.reset. *)
let record_counters () =
  let c name = float_of_int (counter name) in
  record "verify.leaves" "count" (c "verify.leaves");
  record "verify.fsharp_batches" "count" (c "verify.fsharp_batches");
  record "verify.mean_batch_width" "count"
    (ratio (c "verify.fsharp_batched_queries") (c "verify.fsharp_batches"));
  record "reach.steps" "count" (c "reach.steps");
  record "reach.joins" "count" (c "reach.joins");
  record "ode.apriori_retry_ratio" "ratio"
    (ratio (c "ode.apriori_retries") (c "ode.apriori_calls"));
  record "nnabs.unstable_ratio" "ratio"
    (ratio (c "nnabs.unstable_neurons") (c "nnabs.relu_neurons"))

let record_cache ~hits ~misses =
  record "nnabs.cache_hit_ratio" "ratio"
    (ratio (float_of_int hits) (float_of_int (hits + misses)));
  record "nnabs.cache_misses" "count" (float_of_int misses)

(* Layers a workload does not exercise report 0 (README.md). *)
let record_zero names = List.iter (fun (n, u) -> record n u 0.0) names

let serve_layer_names =
  [
    ("serve.run_ms_p50", "ms");
    ("serve.warm_run_ms_p50", "ms");
    ("serve.memo_us_p50", "us");
    ("serve.accept_us_p50", "us");
    ("serve.lookup_us_p50", "us");
  ]

let backreach_layer_names =
  [ ("backreach.build_s", "s"); ("backreach.states", "count"); ("backreach.sweeps", "count") ]

(* ------------------------------------------------------------------ *)
(* acas_paper / acas_split                                              *)
(* ------------------------------------------------------------------ *)

type acas = {
  a_nn_splits : int;
  a_scheduler : Verify.scheduler;
  a_batch_leaves : int;
  a_cells : int list;  (** heading cells of the slice's arc *)
  a_pinned_signature : string;  (** digest of the per-leaf verdicts *)
  a_pinned_coverage : float;  (** percent *)
}

(* Every workload draws its cells from the §7 ribbon partition with 12
   arcs x 4 headings.  Both acas slices sit on arc 2 (bearing 75
   degrees, the intruder ahead of the ownship); each cell is refined
   once over x/y/psi. *)
let ribbon_arcs = 12
let ribbon_headings = 4
let acas_arc = 2

let acas_paper =
  {
    a_nn_splits = 0;
    a_scheduler = Verify.Cells;
    a_batch_leaves = 1;
    a_cells = [ 2; 3 ];
    a_pinned_signature = "cc7283a17f7283c015f74474a87e56d5";
    a_pinned_coverage = 25.0;
  }

let acas_split =
  {
    a_nn_splits = 4;
    a_scheduler = Verify.Leaves;
    a_batch_leaves = 8;
    a_cells = [ 3 ];
    a_pinned_signature = "770e9b88277d83e467f2342ee369cde6";
    a_pinned_coverage = 75.0;
  }

let acas_config w =
  {
    Verify.default_config with
    reach = { Reach.default_config with keep_sets = false };
    strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
    max_depth = 1;
    workers = 1;
    scheduler = w.a_scheduler;
    batch_leaves = w.a_batch_leaves;
  }

let run_acas w ~seed ~seconds ~trace =
  let setup () =
    let networks = load_networks () in
    let sys = S.system ~networks ~nn_splits:w.a_nn_splits () in
    let cells =
      S.initial_cells ~arcs:ribbon_arcs ~headings:ribbon_headings
        ~arc_indices:[ acas_arc ] ()
    in
    let cells = Array.of_list (List.map snd cells) in
    (sys, Array.of_list (List.map (fun i -> cells.(i)) w.a_cells))
  in
  let sys, cells = setup () in
  (* the seed fixes the order in which the slice's cells are submitted;
     the slice itself is fixed so that every seed does the same work *)
  let order = Array.init (Array.length cells) Fun.id in
  shuffle (Random.State.make [| seed |]) order;
  let states = Array.to_list (Array.map (fun i -> cells.(i)) order) in
  let config = acas_config w in
  let signature (report : Verify.report) =
    let by_cell =
      List.map
        (fun (c : Verify.cell_report) ->
          ( order.(c.Verify.index),
            String.concat "," (List.map leaf_signature c.Verify.leaves) ))
        report.Verify.cells
    in
    let by_cell = List.sort (fun (a, _) (b, _) -> Int.compare a b) by_cell in
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun (i, s) -> Printf.sprintf "%d=%s" i s) by_cell)))
  in
  let check_report (report : Verify.report) =
    let sg = signature report in
    note "signature" (J.Str sg);
    note "coverage_pct" (J.Num report.Verify.coverage);
    check
      (Printf.sprintf "verdict signature %s (pinned %s)" sg w.a_pinned_signature)
      (sg = w.a_pinned_signature);
    check
      (Printf.sprintf "coverage %.17g (pinned %.17g)" report.Verify.coverage
         w.a_pinned_coverage)
      (Float.abs (report.Verify.coverage -. w.a_pinned_coverage) <= 1e-9);
    List.iter
      (fun (c : Verify.cell_report) ->
        List.iter
          (fun (l : Verify.leaf) ->
            check "leaf completed" (Verify.leaf_failure l = None))
          c.Verify.leaves)
      report.Verify.cells
  in
  let leaves (report : Verify.report) =
    List.concat_map (fun (c : Verify.cell_report) -> c.Verify.leaves) report.Verify.cells
  in
  (* Replay every reach attempt of the report: the terminal leaves, and
     (depth 1 being the deepest refinement) the root attempt of every
     cell that was split, whose outcome was "not proved". *)
  let replay_check ~layers (report : Verify.report) =
    let ls = leaves report in
    let roots =
      List.filter_map
        (fun (c : Verify.cell_report) ->
          if List.exists (fun (l : Verify.leaf) -> l.Verify.depth > 0) c.Verify.leaves
          then Some (List.nth states c.Verify.index)
          else None)
        report.Verify.cells
    in
    let rp =
      replay_states ~layers sys config.Verify.reach
        (List.map (fun (l : Verify.leaf) -> l.Verify.state) ls @ roots)
    in
    List.iteri
      (fun i v ->
        match List.nth_opt ls i with
        | Some l ->
            check "scalar Reach.run replay reproduces the leaf outcome"
              (replay_agrees l v)
        | None ->
            check "scalar Reach.run replay of a split root is not proved"
              (match v with
              | Ok r -> r.Reach.outcome <> Reach.Proved_safe
              | Error _ -> false))
      rp.outcomes;
    rp
  in
  note_int "cells" (List.length states);
  if not trace then begin
    (* set-up times only: a retained set-up would inflate heap_peak_mb *)
    let setup_time () = snd (time setup) in
    probe_host ();
    let setups = ref (List.init 3 (fun _ -> setup_time ())) in
    let walls = ref [] and leaf_s = ref [] and costs = ref [] and heap_mb = ref 0.0 in
    while within_budget ~seconds !costs do
      let t0 = now () in
      probe_host ();
      let r, dt = time (fun () -> Verify.verify_partition ~config sys states) in
      let first = !walls = [] in
      if first then heap_mb := heap_peak_mb ();
      check_report r;
      walls := dt :: !walls;
      let ls = Array.of_list (List.map (fun (l : Verify.leaf) -> l.Verify.elapsed) (leaves r)) in
      (match !leaf_s with
      | prev :: _ -> check "same leaves in every repetition" (Array.length prev = Array.length ls)
      | [] -> ());
      leaf_s := ls :: !leaf_s;
      (* between repetitions, so that set-ups sample the whole run *)
      setups := setup_time () :: setup_time () :: !setups;
      costs := (now () -. t0) :: !costs;
      (* once, outside the iteration's cost but inside the budget *)
      if first then ignore (replay_check ~layers:false r)
    done;
    let leaf_ms = List.map (fun s -> 1000.0 *. s) (fastest_per_item !leaf_s) in
    record_timing "setup_s" "s" (minimum !setups);
    record_timing "wall_s" "s" (minimum !walls);
    record "heap_peak_mb" "MB" !heap_mb;
    record_timing "job_ms_p50" "ms" (median leaf_ms);
    record_timing "job_ms_p90" "ms" (quantile 0.9 leaf_ms);
    note_int "samples.reps" (List.length !walls);
    note "samples.rep_walls_s" (J.List (List.rev_map (fun x -> J.Num x) !walls));
    note_int "samples.leaves" (List.length leaf_ms);
    note_int "samples.setups" (List.length !setups)
  end
  else begin
    (* reference run, tracing off: counters, GC, and the leaves to replay *)
    Metrics.reset ();
    let g0 = gc_snapshot () in
    let report, wall = time (fun () -> Verify.verify_partition ~config sys states) in
    let g1 = gc_snapshot () in
    check_report report;
    record_counters ();
    record_cache ~hits:(counter "nnabs.cache_hits") ~misses:(counter "nnabs.cache_misses");
    record_gc g0 g1;
    (* traced run: the program's own spans *)
    Trace.enable ();
    let _, traced_wall =
      time (fun () -> Verify.verify_partition ~config sys states)
    in
    Trace.disable ();
    record "obs.span_self_ratio" "ratio" (span_self_ratio traced_wall);
    record "obs.trace_overhead_ratio" "ratio" (ratio traced_wall wall);
    (* replays through the public layer entry points *)
    let rp = replay_check ~layers:true report in
    record_replay_layers rp;
    record "verify.overhead_s" "s" (wall -. rp.run_s);
    record_interval_micro ();
    record_zero serve_layer_names;
    record_zero backreach_layer_names;
    note "wall_untraced_s" (J.Num wall);
    (* Layer sum: the untraced scalar replay against verify_partition,
       paired in time (each replay right after its own untraced
       partition run) and taken as the median of the pairs, so that a
       change of host speed during one pair does not decide the check.
       Only the scalar path: the batched one differs by design. *)
    if w.a_scheduler = Verify.Cells then begin
      let pairs =
        List.init xcheck_pairs (fun _ ->
            let _, wall = time (fun () -> Verify.verify_partition ~config sys states) in
            ratio (replay_check ~layers:false report).run_s wall)
      in
      note "xcheck.reach_run_s_over_wall_s.pairs"
        (J.List (List.map (fun r -> J.Num r) pairs));
      xcheck ~tolerance:xcheck_paired_runs "reach_run_s_over_wall_s" (median pairs) 1.0
    end
  end

(* ------------------------------------------------------------------ *)
(* serve_mix                                                            *)
(* ------------------------------------------------------------------ *)

(* the job pool: single-arc partitions of the ribbon at depth 0 *)
let serve_pool = [| (3, 0); (5, 2) |]
(* the served cold verdict of each pool entry, percent covered *)
let serve_pinned_coverage = [| 0.0; 25.0 |]
let lookups_per_job = 3
let backreach_grid = [| 4; 4; 4; 1; 1 |]

(* The backreach domain of acasxu_verify --backreach: the sensor circle
   on x/y, every partition heading cell on psi, point speeds. *)
let backreach_domain () =
  let r = D.sensor_range_ft and pi = Float.pi in
  B.of_bounds
    [|
      (-.r, r);
      (-.r, r);
      (-.pi, 4.0 *. pi);
      (D.v_own_fps, D.v_own_fps);
      (D.v_int_fps, D.v_int_fps);
    |]

type kind = Fresh | Warm | Memo

type op =
  | Job_op of { id : string; entry : int; kind : kind }
  | Lookup_op of { id : string; box : B.t; cmd : int }

(* Seeded session script: every pool entry runs once fresh, once more
   with memo:false (a warm-cache run) and once with memo on (a memo
   hit); the seed sets the order (a repeat always follows its fresh run)
   and the cell-sized lookup probes interleaved after each job. *)
let session_script ~seed =
  let rng = Random.State.make [| seed; 7 |] in
  let n = Array.length serve_pool in
  let slots = Array.init (3 * n) (fun i -> i mod n) in
  shuffle rng slots;
  let seen = Array.make n 0 in
  let second_is_warm = Array.init n (fun _ -> Random.State.bool rng) in
  let probes =
    Array.of_list
      (List.map snd
         (S.initial_cells ~arcs:ribbon_arcs ~headings:ribbon_headings ()))
  in
  let ops = ref [] and k = ref 0 in
  Array.iter
    (fun entry ->
      let kind =
        match seen.(entry) with
        | 0 -> Fresh
        | 1 -> if second_is_warm.(entry) then Warm else Memo
        | _ -> if second_is_warm.(entry) then Memo else Warm
      in
      seen.(entry) <- seen.(entry) + 1;
      incr k;
      ops := Job_op { id = Printf.sprintf "j%d" !k; entry; kind } :: !ops;
      for l = 1 to lookups_per_job do
        let st = probes.(Random.State.int rng (Array.length probes)) in
        ops :=
          Lookup_op
            {
              id = Printf.sprintf "l%d.%d" !k l;
              box = st.Symstate.box;
              cmd = Random.State.int rng 5;
            }
          :: !ops
      done)
    slots;
  List.rev !ops

let job_request ~id ~entry ~memo =
  let arc, nn_splits = serve_pool.(entry) in
  P.Job
    {
      P.id;
      cells =
        P.Partition
          { arcs = ribbon_arcs; headings = ribbon_headings; arc_indices = [ arc ] };
      domain = Nncs_nnabs.Transformer.Symbolic;
      nn_splits;
      config = P.default_config;
      use_memo = memo;
    }

type session = {
  wall : float;
  jobs : (kind * float) list;  (** client-side send -> terminal, seconds *)
  accepts : float list;  (** send -> accepted *)
  lookups : float list;  (** send -> lookup_result *)
  cold : (int * (string * float * int * int * int)) list;
      (** per pool entry: fingerprint, coverage, proved, unknown, total *)
  cache_delta : int * int;  (** abstraction-cache hits, misses *)
}

(* exact keys: served verdicts stay bitwise-identical to uncached runs *)
let serve_cache = { Cache.capacity = 65536; quantum = 0.0; shards = 8 }

let tmp_root = ".nncsbench_tmp"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let make_server ~networks ~table ~memo_path =
  let make_system ~domain ~nn_splits = S.system ~networks ~domain ~nn_splits () in
  let make_cells ~arcs ~headings ~arc_indices =
    let arc_indices = match arc_indices with [] -> None | l -> Some l in
    List.map snd (S.initial_cells ~arcs ~headings ?arc_indices ())
  in
  Server.create
    {
      Server.default_config with
      Server.dispatchers = 1;
      cache = Some serve_cache;
      memo_path;
      backreach = table;
    }
    ~make_system ~make_cells

(* One closed-loop JSONL session through Server.run: one client, one
   connection (a pair of pipes), one outstanding request.  Every event
   is timed on the client side. *)
let run_session ~networks ~table ~tag ops =
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let server =
    make_server ~networks ~table:(Some table)
      ~memo_path:(Some (Filename.concat dir "memo.jsonl"))
  in
  Cache.clear (Cache.shared serve_cache);
  let req_r, req_w = Unix.pipe () and ev_r, ev_w = Unix.pipe () in
  let req_ic = Unix.in_channel_of_descr req_r
  and req_oc = Unix.out_channel_of_descr req_w in
  let ev_ic = Unix.in_channel_of_descr ev_r
  and ev_oc = Unix.out_channel_of_descr ev_w in
  (* The session loop runs on a thread of this domain, standing in for
     the separate client process: the client adds no domain of its own
     to the stop-the-world minor collections, so the server runs with
     the domains nncs_serve has (its session loop and one dispatcher). *)
  let session =
    Thread.create
      (fun () ->
        ignore (Server.run server req_ic ev_oc);
        close_out ev_oc)
      ()
  in
  let send req =
    output_string req_oc (J.to_string (P.request_to_json req));
    output_char req_oc '\n';
    flush req_oc
  in
  let next_event () =
    match P.event_of_json (J.of_string (input_line ev_ic)) with
    | Ok ev -> ev
    | Error reason -> failwith ("unparseable event: " ^ reason)
  in
  let rec await f = match f (next_event ()) with Some x -> x | None -> await f in
  let stats () =
    send P.Stats;
    let json = await (function P.Stats_report j -> Some j | _ -> None) in
    let get k = match J.member k json with Some v -> J.to_int v | None -> 0 in
    (get "cache_hits", get "cache_misses")
  in
  let t_first = now () in
  let h0, m0 = stats () in
  let jobs = ref [] and accepts = ref [] and lookups = ref [] in
  let cold = Hashtbl.create 8 in
  List.iter
    (function
      | Job_op { id; entry; kind } ->
          let t0 = now () in
          send (job_request ~id ~entry ~memo:(kind = Memo));
          let terminal =
            await (fun ev ->
                match ev with
                | P.Accepted { id = i; _ } when i = id ->
                    accepts := (now () -. t0) :: !accepts;
                    None
                | P.Verdict v when v.id = id ->
                    Some
                      (Ok
                         ( v.source,
                           (v.fingerprint, v.coverage, v.proved_cells,
                            v.unknown_cells, v.total_cells) ))
                | P.Job_error { id = i; reason } when i = id || i = "" -> Some (Error reason)
                | P.Cancelled { id = i; reason } when i = id -> Some (Error reason)
                | _ -> None)
          in
          let dt = now () -. t0 in
          jobs := (kind, dt) :: !jobs;
          let what = Printf.sprintf "job %s (pool entry %d)" id entry in
          (match terminal with
          | Error reason -> check (what ^ " failed: " ^ reason) false
          | Ok (source, answer) -> (
              let expected_source = if kind = Memo then P.Memo else P.Run in
              check (what ^ ": answer source") (source = expected_source);
              match kind with
              | Fresh ->
                  let _, coverage, _, _, _ = answer in
                  check
                    (Printf.sprintf "%s: coverage %.17g (pinned %.17g)" what coverage
                       serve_pinned_coverage.(entry))
                    (Float.abs (coverage -. serve_pinned_coverage.(entry)) <= 1e-9);
                  Hashtbl.replace cold entry answer
              | Warm | Memo ->
                  check (what ^ ": repeat verdict equals the cold verdict")
                    (Hashtbl.find_opt cold entry = Some answer)))
      | Lookup_op { id; box; cmd } ->
          let t0 = now () in
          send (P.Lookup { id; box; cmd });
          let status =
            await (function
              | P.Lookup_result { id = i; status } when i = id -> Some status
              | _ -> None)
          in
          lookups := (now () -. t0) :: !lookups;
          let expected =
            match Backreach.query table ~box ~cmd with
            | Backreach.Unsafe { k } -> P.Lookup_unsafe { k }
            | Backreach.Safe -> P.Lookup_safe
            | Backreach.Out_of_domain -> P.Lookup_out_of_domain
          in
          check ("lookup " ^ id ^ " equals Backreach.query") (status = expected))
    ops;
  let h1, m1 = stats () in
  send P.Shutdown;
  await (function P.Bye -> Some () | _ -> None);
  let wall = now () -. t_first in
  Thread.join session;
  close_out req_oc;
  close_in ev_ic;
  close_in req_ic;
  Server.close server;
  rm_rf dir;
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  {
    wall;
    jobs = List.rev !jobs;
    accepts = !accepts;
    lookups = !lookups;
    cold = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) cold []);
    cache_delta = (h1 - h0, m1 - m0);
  }

let run_serve ~seed ~seconds ~trace =
  let ops = session_script ~seed in
  let n_jobs = List.length (List.filter (function Job_op _ -> true | _ -> false) ops) in
  note_int "session.jobs" n_jobs;
  note_int "session.lookups" (List.length ops - n_jobs);
  let setup () =
    let networks = load_networks () in
    let sys = S.system ~networks () in
    let bcfg =
      {
        (Backreach.default_config ~domain:(backreach_domain ()) ~grid:backreach_grid)
        with
        Backreach.reach = { Reach.default_config with keep_sets = false };
        workers = 1;
      }
    in
    let table, build_s = time (fun () -> Backreach.build bcfg sys) in
    let server = make_server ~networks ~table:(Some table) ~memo_path:None in
    Server.close server;
    (networks, table, build_s)
  in
  let (networks, table, build_s), setup_s = time setup in
  if not trace then begin
    (* each set-up builds a table, so there are only three, all before
       the sessions, leaving the budget to sessions *)
    probe_host ();
    let setups = setup_s :: List.init 2 (fun _ -> snd (time setup)) in
    let sessions = ref [] and costs = ref [] and heap_mb = ref 0.0 in
    while within_budget ~seconds !costs do
      let t0 = now () in
      probe_host ();
      let tag = string_of_int (List.length !sessions) in
      sessions := run_session ~networks ~table ~tag ops :: !sessions;
      if !costs = [] then heap_mb := heap_peak_mb ();
      costs := (now () -. t0) :: !costs
    done;
    let ss = !sessions in
    let jobs = fastest_per_item (List.map (fun s -> Array.of_list (List.map snd s.jobs)) ss) in
    record_timing "setup_s" "s" (minimum setups);
    record_timing "wall_s" "s" (minimum (List.map (fun s -> s.wall) ss));
    record "heap_peak_mb" "MB" !heap_mb;
    record_timing "job_ms_p50" "ms" (1000.0 *. median jobs);
    record_timing "job_ms_p90" "ms" (1000.0 *. quantile 0.9 jobs);
    note_int "samples.sessions" (List.length ss);
    note "samples.session_walls_s" (J.List (List.map (fun s -> J.Num s.wall) ss));
    note "samples.setup_s" (J.List (List.map (fun dt -> J.Num dt) setups));
    note_int "samples.jobs" (List.length jobs)
  end
  else begin
    (* reference session, tracing off *)
    Metrics.reset ();
    let g0 = gc_snapshot () in
    let s = run_session ~networks ~table ~tag:"ref" ops in
    let g1 = gc_snapshot () in
    let lat kind = List.filter_map (fun (k, dt) -> if k = kind then Some dt else None) s.jobs in
    record "serve.run_ms_p50" "ms" (1000.0 *. median (lat Fresh));
    record "serve.warm_run_ms_p50" "ms" (1000.0 *. median (lat Warm));
    record "serve.memo_us_p50" "us" (1e6 *. median (lat Memo));
    record "serve.accept_us_p50" "us" (1e6 *. median s.accepts);
    record "serve.lookup_us_p50" "us" (1e6 *. median s.lookups);
    let hits, misses = s.cache_delta in
    record_cache ~hits ~misses;
    record_counters ();
    record_gc g0 g1;
    record "backreach.build_s" "s" build_s;
    record "backreach.states" "count" (float_of_int (Backreach.num_states table));
    record "backreach.sweeps" "count" (float_of_int (Backreach.sweeps table));
    (* traced session *)
    Trace.enable ();
    let st = run_session ~networks ~table ~tag:"traced" ops in
    Trace.disable ();
    record "obs.span_self_ratio" "ratio" (span_self_ratio st.wall);
    record "obs.trace_overhead_ratio" "ratio" (ratio st.wall s.wall);
    (* replay every pool job's cells (depth 0: one leaf per cell) through
       the scalar path; the coverage must equal the served cold verdict *)
    let reach = P.default_config.Verify.reach in
    let replays =
      Array.to_list
        (Array.mapi
           (fun entry (arc, nn_splits) ->
             let sys = S.system ~networks ~nn_splits () in
             let cells =
               S.initial_cells ~arcs:ribbon_arcs ~headings:ribbon_headings
                 ~arc_indices:[ arc ] ()
             in
             let rp = replay_states ~layers:true sys reach (List.map snd cells) in
             let proved =
               List.length
                 (List.filter
                    (function
                      | Ok r -> r.Reach.outcome = Reach.Proved_safe
                      | Error _ -> false)
                    rp.outcomes)
             in
             let coverage =
               100.0 *. float_of_int proved /. float_of_int (List.length cells)
             in
             (match List.assoc_opt entry s.cold with
             | Some (_, cov, _, _, _) ->
                 check
                   (Printf.sprintf "pool entry %d: scalar replay coverage %.6g = served %.6g"
                      entry coverage cov)
                   (Float.abs (coverage -. cov) <= 1e-9)
             | None -> check (Printf.sprintf "pool entry %d has a cold verdict" entry) false);
             rp)
           serve_pool)
    in
    let rp = merge_replays replays in
    record_replay_layers rp;
    record "verify.overhead_s" "s" (sum (lat Fresh) -. rp.run_s);
    record_interval_micro ();
    note "wall_untraced_s" (J.Num s.wall)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: nncsbench --workload acas_paper|acas_split|serve_mix --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | a :: _ ->
        prerr_endline ("nncsbench: unexpected argument " ^ a ^ "\n" ^ usage);
        exit 2
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ ->
     prerr_endline usage;
     exit 2);
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (match !workload with
  | "acas_paper" -> run_acas acas_paper ~seed ~seconds ~trace
  | "acas_split" -> run_acas acas_split ~seed ~seconds ~trace
  | "serve_mix" -> run_serve ~seed ~seconds ~trace
  | w ->
      prerr_endline ("nncsbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2);
  (* the traced run's own checks, as a per-layer metric *)
  if trace then
    record "fail_ratio" "ratio"
      (ratio (float_of_int !failed) (float_of_int (max 1 !attempted)));
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-38s %18.6f %s\n" n v u) ms;
  let env k = Option.value (Sys.getenv_opt k) ~default:"unknown" in
  let stamp =
    J.Obj
      ([
         ("t", J.Str "env");
         ("rev", J.Str (env "NNCSBENCH_REV"));
         ("tree", J.Str (env "NNCSBENCH_TREE"));
         ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml", J.Str Sys.ocaml_version);
         ("workload", J.Str !workload);
         ("seed", J.Num (float_of_int seed));
         ("seconds", J.Num seconds);
         ("trace", J.Bool trace);
       ]
      @ List.rev !samples)
  in
  print_endline (J.to_string stamp);
  let result =
    J.Obj
      [
        ("correct", J.Bool (!failed = 0));
        ("attempted", J.Num (float_of_int (max 1 !attempted)));
        ("failed", J.Num (float_of_int !failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
               ms) );
      ]
  in
  print_endline (J.to_string result)
