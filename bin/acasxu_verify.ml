(* Command-line verification driver: reproduces the Section 7 experiment
   at a configurable scale — ribbon partition of the initial states,
   per-cell reachability with split refinement, coverage accounting and
   a per-arc summary (the data behind Fig. 9a/9b).

   Resilience: per-cell budgets (--cell-deadline and friends) bound the
   damage of pathological cells; --journal checkpoints every finished
   leaf and cell to a JSONL file and --resume restarts an interrupted
   run, mid-cell, without recomputing them. *)

module S = Nncs_acasxu.Scenario
module T = Nncs_acasxu.Training
module P = Nncs_acasxu.Policy
module Verify = Nncs.Verify
module Reach = Nncs.Reach
module Budget = Nncs_resilience.Budget
module Journal = Nncs_resilience.Journal
module Backreach = Nncs_backreach.Backreach
module B = Nncs_interval.Box

(* The quantized backreach domain (DESIGN.md §16): x/y span the sensor
   circle (beyond it the intruder has left — out-of-domain escape is
   sound to drop), psi spans every heading cell the partition can emit
   ([0, 3pi), see Scenario.initial_cells) with a one-pi margin on each
   side, and the speeds are the scenario's point values. *)
let backreach_domain () =
  let r = Nncs_acasxu.Defs.sensor_range_ft in
  let pi = Float.pi in
  B.of_bounds
    [|
      (-.r, r);
      (-.r, r);
      (-.pi, 4.0 *. pi);
      (Nncs_acasxu.Defs.v_own_fps, Nncs_acasxu.Defs.v_own_fps);
      (Nncs_acasxu.Defs.v_int_fps, Nncs_acasxu.Defs.v_int_fps);
    |]

let run_backreach ~reach ~workers ~grid ~table_path ~quiet sys =
  let gx, gy, gpsi =
    match grid with
    | [ gx; gy; gpsi ] when gx > 0 && gy > 0 && gpsi > 0 -> (gx, gy, gpsi)
    | _ ->
        Printf.eprintf
          "error: --backreach-grid wants three positive integers GX,GY,GPSI\n%!";
        exit 2
  in
  let bcfg =
    {
      (Backreach.default_config ~domain:(backreach_domain ())
         ~grid:[| gx; gy; gpsi; 1; 1 |])
      with
      Backreach.reach;
      workers;
    }
  in
  let fp = Backreach.fingerprint bcfg sys in
  let refuse fmt =
    Printf.ksprintf (fun msg -> Printf.eprintf "error: %s\n%!" msg; exit 2) fmt
  in
  let build ~resume =
    let progress =
      if quiet then None
      else
        Some
          (fun ~done_states ~total ->
            if done_states mod 64 = 0 || done_states = total then
              Printf.eprintf "\rbackreach %d/%d states...%!" done_states total)
    in
    let t = Backreach.build ?journal:table_path ~resume ?progress bcfg sys in
    if not quiet then Printf.eprintf "\n%!";
    t
  in
  (* FILE is the build journal itself: absent, it is built; complete,
     it is loaded; interrupted, the build resumes into it *)
  let table =
    match table_path with
    | Some path when Sys.file_exists path -> (
        let stored = Backreach.load path in
        let stored_fp =
          match stored with
          | Ok t -> Backreach.table_fingerprint t
          | Error (Backreach.Incomplete { fingerprint; _ }) -> fingerprint
          | Error (Backreach.Unreadable reason) ->
              refuse "cannot load backreach table %s: %s" path reason
        in
        if stored_fp <> fp then
          refuse
            "backreach table %s has fingerprint %s but this run's is %s\n\
             (different domain, grid, networks or analysis configuration) \
             — delete it or rerun with the original settings."
            path stored_fp fp;
        match stored with
        | Ok t ->
            if not quiet then Printf.eprintf "backreach: loaded table %s\n%!" path;
            t
        | Error _ -> build ~resume:true)
    | _ -> build ~resume:false
  in
  Printf.printf
    "# backreach: %d/%d states unsafe, %d sweep(s), %d failed, %d escaped, \
     %.1f s\n"
    (Backreach.num_unsafe table)
    (Backreach.num_states table)
    (Backreach.sweeps table)
    (Backreach.failed_states table)
    (Backreach.escaped_states table)
    (Backreach.build_seconds table);
  table

let run_cross_check table report =
  let cc = Backreach.check_forward table report in
  Printf.printf
    "# cross-check: %d safe + %d unsafe cell(s) compared, %d skipped, %d \
     disagreement(s)\n"
    cc.Backreach.checked_safe cc.Backreach.checked_unsafe cc.Backreach.skipped
    (List.length cc.Backreach.findings);
  List.iter
    (fun f ->
      Printf.printf "# oracle_disagreement: %s\n"
        (Nncs_obs.Json.to_string (Backreach.finding_to_json f)))
    cc.Backreach.findings;
  if cc.Backreach.findings = [] then 0 else 3

let run dir arcs headings arc_sel gamma msteps order domain nn_splits
    max_depth workers abs_cache abs_cache_shards cell_deadline cell_ode_budget cell_state_budget
    journal_path resume tiny csv trace backreach backreach_table
    backreach_grid cross_check quiet =
  let _, networks =
    if tiny then
      T.load_or_train ~spec:T.tiny_spec ~policy_config:T.tiny_policy_config
        ~dir ()
    else T.load_or_train ~dir ()
  in
  let domain = Nncs_nnabs.Transformer.domain_of_string domain in
  let sys = S.system ~networks ~domain ~nn_splits () in
  let arc_indices = match arc_sel with [] -> None | l -> Some l in
  let cells = S.initial_cells ~arcs ~headings ?arc_indices () in
  let total = List.length cells in
  let config =
    {
      Verify.default_config with
      reach =
        {
          Reach.default_config with
          integration_steps = msteps;
          taylor_order = order;
          gamma;
          keep_sets = false;
          abs_cache =
            (if abs_cache <= 0 then None
             else
               Some
                 {
                   Nncs_nnabs.Cache.default_config with
                   capacity = abs_cache;
                   shards = abs_cache_shards;
                 });
        };
      strategy = Verify.All_dims [ Nncs_acasxu.Defs.ix; Nncs_acasxu.Defs.iy; Nncs_acasxu.Defs.ipsi ];
      max_depth;
      workers;
      limits =
        {
          Budget.deadline_s = cell_deadline;
          max_ode_steps = cell_ode_budget;
          max_symstates = cell_state_budget;
        };
      degrade = true;
    }
  in
  let states = List.map snd cells in
  let fp = Verify.fingerprint ~config sys states in
  (* checkpoint/resume: load finished cells (and the journaled terminal
     leaves of interrupted cells) from the journal, then keep appending
     to it as new work finishes.  A journal
     written for a different partition, spec or analysis config is
     refused: its cell indices and verdicts would be meaningless here. *)
  let resumed =
    match journal_path with
    | Some path when resume && Sys.file_exists path -> (
        let j = Verify.load_journal path in
        match (j.Verify.meta_fingerprint, j.Verify.meta_total) with
        | Some fp', _ when fp' <> fp ->
            Printf.eprintf
              "error: journal %s has problem fingerprint %s but this run's \
               is %s\n\
               (different partition, spec or analysis configuration) — \
               refusing --resume.\n\
               Delete the journal or rerun with the original settings.\n%!"
              path fp' fp;
            Error 2
        | _, Some t when t <> total ->
            Printf.eprintf
              "error: journal %s is for a %d-cell partition, this run has \
               %d: refusing --resume\n%!"
              path t total;
            Error 2
        | mfp, _ ->
            if mfp = None then
              Printf.eprintf
                "warning: journal %s predates problem fingerprints; \
                 resuming without the compatibility check\n%!"
                path;
            let completed =
              List.filter
                (fun c -> c.Verify.index < total)
                j.Verify.completed_cells
            in
            let partial =
              List.filter (fun (i, _) -> i < total) j.Verify.partial_leaves
            in
            if not quiet then
              Printf.eprintf
                "resumed %d cell(s) and %d mid-cell leaf group(s) from \
                 journal %s\n\
                 %!"
                (List.length completed) (List.length partial) path;
            Ok (completed, partial))
    | _ -> Ok ([], [])
  in
  match resumed with
  | Error code -> code
  | Ok (completed, partial) ->
  let writer =
    match journal_path with
    | None -> None
    | Some path ->
        let append = completed <> [] || partial <> [] in
        let w = Journal.create ~append path in
        if not append then
          Journal.write w (Verify.journal_meta ~total ~fingerprint:fp);
        Some w
  in
  let on_cell =
    Option.map
      (fun w c -> Journal.write w (Verify.cell_report_to_json c))
      writer
  in
  let on_leaf =
    (* mid-cell checkpoints: a resume replays these leaves *)
    Option.map
      (fun w cell path leaf ->
        Journal.write w (Verify.leaf_record_to_json ~cell ~path leaf))
      writer
  in
  let progress =
    if quiet then None
    else
      Some
        (fun d t ->
          if d mod 25 = 0 || d = t then Printf.eprintf "\r%d/%d cells...%!" d t)
  in
  (* start the trace epoch after network loading/training so the wall
     clock of the dump covers exactly the verification run *)
  if trace <> None then Nncs_obs.Trace.enable ();
  let report =
    Verify.verify_partition ~config ?progress ?on_cell ?on_leaf ~completed
      ~partial sys states
  in
  Option.iter Journal.close writer;
  (match trace with
  | None -> ()
  | Some path ->
      Nncs_obs.Trace.disable ();
      Nncs_obs.Trace.write_file ~extra:(Nncs_obs.Metrics.jsonl_lines ()) path;
      if not quiet then
        Printf.eprintf "trace written to %s (dune exec bin/trace_report.exe -- %s)\n%!"
          path path);
  if not quiet then Printf.eprintf "\n%!";
  (* aggregate per arc *)
  let arcs_seen = List.sort_uniq compare (List.map fst cells) in
  let cell_arc = Array.of_list (List.map fst cells) in
  Printf.printf "# arc  bearing_deg  coverage_pct  time_s\n";
  List.iter
    (fun arc ->
      let mine =
        List.filter (fun c -> cell_arc.(c.Verify.index) = arc) report.Verify.cells
      in
      let cov = Verify.coverage_of_cells mine in
      let time =
        List.fold_left
          (fun a (c : Verify.cell_report) -> a +. c.Verify.elapsed)
          0.0 mine
      in
      Printf.printf "%4d  %10.1f  %11.2f  %7.2f\n" arc
        (S.arc_center_angle ~arcs arc *. 180.0 /. Float.pi)
        cov time)
    arcs_seen;
  Printf.printf "# overall coverage c = %.2f%%  (%d/%d cells fully proved, %d unknown, %.1f s)\n"
    report.Verify.coverage report.Verify.proved_cells report.Verify.total_cells
    report.Verify.unknown_cells report.Verify.elapsed;
  (* surface the failure reasons so Unknown cells are actionable *)
  let failures =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun l ->
            Option.map
              (fun f -> (c.Verify.index, Nncs_resilience.Failure.to_string f))
              (Verify.leaf_failure l))
          c.Verify.leaves)
      report.Verify.cells
  in
  if failures <> [] then begin
    Printf.printf "# unknown leaves:\n";
    List.iter
      (fun (i, reason) -> Printf.printf "#   cell %d: %s\n" i reason)
      failures
  end;
  (match csv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "index,arc,proved_fraction,unknown,elapsed_s\n";
      List.iter
        (fun c ->
          Printf.fprintf oc "%d,%d,%.6f,%d,%.4f\n" c.Verify.index
            cell_arc.(c.Verify.index) c.Verify.proved_fraction
            (if Verify.cell_has_failure c then 1 else 0)
            c.Verify.elapsed)
        report.Verify.cells;
      close_out oc);
  (* the backreachability oracle (DESIGN.md §16): build or load the
     quantized backward fixed point, then optionally replay the forward
     verdicts against it — any disagreement is evidence of a bug in one
     of the two analyses and fails the run with exit code 3 *)
  if backreach || backreach_table <> None || cross_check then begin
    let table =
      run_backreach ~reach:config.Verify.reach ~workers ~grid:backreach_grid
        ~table_path:backreach_table ~quiet sys
    in
    if cross_check then run_cross_check table report else 0
  end
  else 0

open Cmdliner

let dir = Arg.(value & opt string "data" & info [ "dir" ] ~doc:"Network cache directory.")
let arcs = Arg.(value & opt int 36 & info [ "arcs" ] ~doc:"Arcs on the sensor circle.")
let headings = Arg.(value & opt int 12 & info [ "headings" ] ~doc:"Heading cells per arc.")

let arc_sel =
  Arg.(value & opt (list int) [] & info [ "arc-indices" ] ~doc:"Only these arcs.")

let gamma = Arg.(value & opt int 5 & info [ "gamma" ] ~doc:"Symbolic-state threshold (Algorithm 2).")
let msteps = Arg.(value & opt int 10 & info [ "m" ] ~doc:"Integration steps per period (Algorithm 1).")
let order = Arg.(value & opt int 6 & info [ "order" ] ~doc:"Taylor order.")

let domain =
  Arg.(value & opt string "symbolic" & info [ "domain" ] ~doc:"NN abstraction: interval|symbolic|affine.")

let nn_splits =
  Arg.(value & opt int 0 & info [ "nn-splits" ] ~doc:"Input bisections in F# (0 to 8).")
let max_depth = Arg.(value & opt int 2 & info [ "max-depth" ] ~doc:"Split-refinement depth.")
let workers = Arg.(value & opt int 1 & info [ "workers" ] ~doc:"Parallel domains.")

let abs_cache =
  Arg.(
    value & opt int 0
    & info [ "abs-cache" ]
        ~doc:"F# memo table capacity (entries), shared by all worker \
              domains; 0 disables caching.  Keys are exact, so a cached \
              run reports the verdicts of an uncached one.")

let abs_cache_shards =
  Arg.(
    value
    & opt int Nncs_nnabs.Cache.default_config.Nncs_nnabs.Cache.shards
    & info [ "abs-cache-shards" ]
        ~doc:"Independently locked shards of the process-wide F# memo \
              table (1 = a single exactly-LRU table).")

let cell_deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "cell-deadline" ]
        ~doc:"Wall-clock budget per cell in seconds; an over-budget cell \
              degrades to Unknown instead of stalling the run.")

let cell_ode_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "cell-ode-budget" ]
        ~doc:"Max validated-integration sub-steps per cell.")

let cell_state_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "cell-state-budget" ]
        ~doc:"Max symbolic states per control step per cell.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ]
        ~doc:"Append each finished cell's verdict to this JSONL file \
              (checkpoint for --resume).")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:"With --journal: skip cells already recorded in the journal \
              and continue appending to it.")

let tiny =
  Arg.(
    value & flag
    & info [ "tiny-models" ]
        ~doc:"Train deliberately tiny policy tables and networks (CI \
              smoke tests; verdicts are meaningless).")

let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write per-cell results to CSV.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"Record a JSONL span/metrics trace of the run (read it with trace_report).")

let backreach =
  Arg.(
    value & flag
    & info [ "backreach" ]
        ~doc:"Build the quantized unsafe-backreach table (Bak-Tran \
              backward fixed point) after the forward run and print its \
              summary.")

let backreach_table =
  Arg.(
    value
    & opt (some string) None
    & info [ "backreach-table" ]
        ~doc:"Journal the backreach build into this JSONL file (implies \
              $(b,--backreach)): one line per computed transition, so an \
              interrupted build resumes into the same file mid-sweep.  A \
              complete file is loaded instead of rebuilt.  A file with \
              another fingerprint (domain, grid, networks or analysis \
              configuration) is refused with exit code 2.")

let backreach_grid =
  Arg.(
    value
    & opt (list int) [ 16; 16; 8 ]
    & info [ "backreach-grid" ]
        ~doc:"Quantization grid GX,GY,GPSI over (x, y, psi); the speed \
              dimensions are points.")

let cross_check =
  Arg.(
    value & flag
    & info [ "cross-check" ]
        ~doc:"Replay every forward cell verdict against the backreach \
              table (implies $(b,--backreach)); any oracle_disagreement \
              finding is printed and the run exits with code 3.")

let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let cmd =
  Cmd.v
    (Cmd.info "acasxu_verify" ~doc:"Verify the ACAS Xu closed loop by reachability")
    Term.(
      const run $ dir $ arcs $ headings $ arc_sel $ gamma $ msteps $ order
      $ domain $ nn_splits $ max_depth $ workers $ abs_cache
      $ abs_cache_shards $ cell_deadline
      $ cell_ode_budget $ cell_state_budget $ journal $ resume $ tiny $ csv
      $ trace $ backreach $ backreach_table $ backreach_grid $ cross_check
      $ quiet)

let () = exit (Cmd.eval' cmd)
