(* Fault-injection coverage of the resilience subsystem: numeric guards,
   per-cell budgets, the graceful-degradation ladder, the per-leaf
   firewall in partition runs, worker-domain crash recovery, and the
   verdict journal with resume.

   Every test that arms a fault disarms it in a [finally]: the registry
   is global and a leak would poison later tests. *)

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
module F = Nncs_resilience.Failure
module Budget = Nncs_resilience.Budget
module Cancel = Nncs_resilience.Cancel
module Fault = Nncs_resilience.Fault
module Firewall = Nncs_resilience.Firewall
module Journal = Nncs_resilience.Journal
module Json = Nncs_obs.Json

let check = Alcotest.(check bool)

let with_faults f = Fun.protect ~finally:Fault.reset f

(* the "homing" loop of test_core/test_verify: x' = u, u = -1 above 1 *)

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

let homing_system () =
  let controller =
    Controller.make ~period:0.5 ~commands:homing_commands
      ~networks:[| homing_network () |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()
  in
  System.make ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
    ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

let grid n =
  Partition.with_command 0
    (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| n |])

let one_cell () = List.hd (grid 1)

let config ?(limits = Budget.unlimited) ?(degrade = true) ?(max_depth = 0)
    ?(workers = 1) () =
  {
    Verify.default_config with
    strategy = Verify.All_dims [ 0 ];
    max_depth;
    workers;
    limits;
    degrade;
  }

(* one cell through the partition driver: its sole cell report *)
let verify_one ?cancel config sys cell =
  match (Verify.verify_partition ?cancel ~config sys [ cell ]).Verify.cells with
  | [ c ] -> c
  | cs -> Alcotest.failf "expected one cell report, got %d" (List.length cs)

let sole_leaf (r : Verify.cell_report) =
  match r.Verify.leaves with
  | [ l ] -> l
  | ls -> Alcotest.failf "expected one leaf, got %d" (List.length ls)

let enclosure_fault () = Nncs_ode.Apriori.Enclosure_failure "injected"
let numeric_fault () = I.Numeric_error "injected NaN"

(* ----- numeric guards ----- *)

let raises_numeric f =
  try
    ignore (f ());
    false
  with I.Numeric_error _ -> true

let test_numeric_guards () =
  check "make NaN lo" true (raises_numeric (fun () -> I.make Float.nan 1.0));
  check "make NaN hi" true (raises_numeric (fun () -> I.make 0.0 Float.nan));
  check "of_float NaN" true (raises_numeric (fun () -> I.of_float Float.nan));
  check "inflate NaN" true
    (raises_numeric (fun () -> I.inflate (I.make 0.0 1.0) Float.nan));
  check "inflate infinity" true
    (raises_numeric (fun () -> I.inflate (I.make 0.0 1.0) Float.infinity));
  check "box of_bounds NaN" true
    (raises_numeric (fun () -> B.of_bounds [| (0.0, 1.0); (Float.nan, 2.0) |]));
  check "box of_point NaN" true
    (raises_numeric (fun () -> B.of_point [| Float.nan |]));
  check "box inflate infinite radius" true
    (raises_numeric (fun () ->
         B.inflate (B.of_bounds [| (0.0, 1.0) |]) Float.infinity));
  (* infinite bounds are legitimate (unbounded enclosures); only NaN is
     garbage *)
  check "infinite bounds accepted" true
    (I.lo (I.make Float.neg_infinity Float.infinity) = Float.neg_infinity);
  (* negative-eps misuse still reports Invalid_argument, not Numeric *)
  check "negative eps stays invalid_arg" true
    (try
       ignore (I.inflate (I.make 0.0 1.0) (-1.0));
       false
     with Invalid_argument _ -> true)

(* ----- the firewall ----- *)

let test_firewall () =
  let classify = function
    | Nncs_ode.Apriori.Enclosure_failure m -> Some (F.Enclosure_diverged m)
    | _ -> None
  in
  check "ok passes through" true
    (Firewall.protect ~classify (fun () -> 42) = Ok 42);
  check "classified exception" true
    (Firewall.protect ~classify (fun () -> raise (enclosure_fault ()))
    = Error (F.Enclosure_diverged "injected"));
  check "budget exhaustion" true
    (Firewall.protect ~classify (fun () -> raise (Budget.Exhausted F.Deadline))
    = Error (F.Budget_exceeded F.Deadline));
  check "unclassified becomes Worker_crashed" true
    (match Firewall.protect ~classify (fun () -> failwith "boom") with
    | Error (F.Worker_crashed _) -> true
    | _ -> false);
  check "tripped token becomes Cancelled" true
    (Firewall.protect ~classify (fun () -> raise (Cancel.Cancelled "client"))
    = Error (F.Cancelled "client"));
  check "fatal re-raised" true
    (try
       ignore (Firewall.protect ~classify (fun () -> raise Out_of_memory));
       false
     with Out_of_memory -> true)

(* ----- budgets ----- *)

let failed_with (l : Verify.leaf) f =
  match l.Verify.result with
  | Verify.Failed g -> F.equal f g
  | Verify.Completed _ -> false

let test_budget_deadline () =
  let sys = homing_system () in
  let limits = { Budget.unlimited with Budget.deadline_s = Some 0.0 } in
  let r = verify_one (config ~limits ()) sys (one_cell ()) in
  let l = sole_leaf r in
  check "leaf failed with expired deadline" true
    (failed_with l (F.Budget_exceeded F.Deadline));
  check "budget short-circuits the ladder" true (l.Verify.rungs = [ "base" ]);
  check "nothing proved" true (r.Verify.proved_fraction = 0.0)

let test_budget_ode_steps () =
  let sys = homing_system () in
  (* reach uses 10 sub-steps per control step: a 5-step budget dies on
     the first control step *)
  let limits = { Budget.unlimited with Budget.max_ode_steps = Some 5 } in
  let r = verify_one (config ~limits ()) sys (one_cell ()) in
  check "ode-step budget fires" true
    (failed_with (sole_leaf r) (F.Budget_exceeded F.Ode_steps))

let test_budget_symstates () =
  let sys = homing_system () in
  let limits = { Budget.unlimited with Budget.max_symstates = Some 0 } in
  let r = verify_one (config ~limits ()) sys (one_cell ()) in
  check "symstate budget fires" true
    (failed_with (sole_leaf r) (F.Budget_exceeded F.Symbolic_states))

let test_budget_stops_refinement () =
  (* out of budget => the failed leaf must NOT be split: splitting
     multiplies work for a cell that has none left *)
  let sys = homing_system () in
  let limits = { Budget.unlimited with Budget.deadline_s = Some 0.0 } in
  let r =
    verify_one (config ~limits ~max_depth:2 ()) sys (one_cell ())
  in
  Alcotest.(check int) "single leaf despite depth budget" 1
    (List.length r.Verify.leaves)

(* ----- cooperative cancellation ----- *)

let test_cancel_token () =
  let c = Cancel.create () in
  check "fresh token untripped" false (Cancel.cancelled c);
  check "check passes untripped" true (Cancel.check c = ());
  Cancel.cancel c ~reason:"first";
  check "tripped" true (Cancel.cancelled c);
  Alcotest.(check (option string)) "reason kept" (Some "first") (Cancel.reason c);
  (* sticky and idempotent: the first reason wins *)
  Cancel.cancel c ~reason:"second";
  Alcotest.(check (option string))
    "first reason wins" (Some "first") (Cancel.reason c);
  check "check raises tripped" true
    (try
       Cancel.check c;
       false
     with Cancel.Cancelled r -> r = "first");
  check "never stays untripped" false (Cancel.cancelled Cancel.never)

let test_cancel_gates_budget () =
  let cancel = Cancel.create () in
  let b = Budget.start ~cancel Budget.unlimited in
  check "untripped: deadline gate passes" true (Budget.check_deadline b = ());
  Budget.add_ode_steps b 3;
  check "untripped: not expired" false (Budget.expired b);
  Cancel.cancel cancel ~reason:"test";
  (* both hot-loop gates must observe the trip, and the non-raising
     probe must fast-track the work item *)
  check "deadline gate raises Cancelled" true
    (try
       Budget.check_deadline b;
       false
     with Cancel.Cancelled _ -> true);
  check "ode gate raises Cancelled" true
    (try
       Budget.add_ode_steps b 1;
       false
     with Cancel.Cancelled _ -> true);
  check "expired covers cancellation" true (Budget.expired b);
  check "token reachable from budget" true (Budget.cancel_token b == cancel)

let test_cancel_pre_tripped_cell () =
  (* a token tripped before the run: the cell degrades to a single
     Cancelled leaf at its first budget gate — no refinement, no ladder
     retries (retrying a cancelled cell cannot help) *)
  let sys = homing_system () in
  let cancel = Cancel.create () in
  Cancel.cancel cancel ~reason:"before start";
  let r =
    verify_one ~cancel (config ~max_depth:2 ()) sys (one_cell ())
  in
  let l = sole_leaf r in
  check "leaf failed as cancelled" true
    (failed_with l (F.Cancelled "before start"));
  Alcotest.(check (list string))
    "ladder short-circuited" [ "base" ] l.Verify.rungs;
  check "nothing proved" true (r.Verify.proved_fraction = 0.0)

let test_cancel_observed_within_one_cell () =
  (* cancel mid-partition from the progress callback: after the first
     cell completes, every remaining cell must come back as a single
     Cancelled leaf (observed at its first budget gate) rather than
     being analysed or split *)
  let sys = homing_system () in
  let cancel = Cancel.create () in
  let report =
    Verify.verify_partition ~cancel
      ~config:(config ~max_depth:2 ())
      ~progress:(fun cells_done _total ->
        if cells_done = 1 then Cancel.cancel cancel ~reason:"mid-run")
      sys (grid 6)
  in
  Alcotest.(check int) "all cells accounted" 6 report.Verify.total_cells;
  Alcotest.(check int) "first cell proved before the trip" 1
    report.Verify.proved_cells;
  Alcotest.(check int) "the rest cancelled" 5 report.Verify.unknown_cells;
  List.iteri
    (fun i (c : Verify.cell_report) ->
      if i > 0 then begin
        Alcotest.(check int)
          (Printf.sprintf "cell %d: one leaf, not split" i)
          1
          (List.length c.Verify.leaves);
        check
          (Printf.sprintf "cell %d: cancelled" i)
          true
          (failed_with (sole_leaf c) (F.Cancelled "mid-run"))
      end)
    report.Verify.cells

(* ----- the degradation ladder ----- *)

let test_ladder_halved_step_recovers () =
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"reach.step" ~times:1 enclosure_fault;
      let r = verify_one (config ()) sys (one_cell ()) in
      let l = sole_leaf r in
      check "recovered on retry" true l.Verify.proved;
      Alcotest.(check (list string))
        "walked one rung" [ "base"; "halved_step" ] l.Verify.rungs)

let test_ladder_interval_fallback () =
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"reach.step" ~times:2 enclosure_fault;
      let r = verify_one (config ()) sys (one_cell ()) in
      let l = sole_leaf r in
      check "recovered on interval domain" true l.Verify.proved;
      Alcotest.(check (list string))
        "walked the whole ladder"
        [ "base"; "halved_step"; "interval_domain" ]
        l.Verify.rungs)

let test_ladder_exhausted_is_unknown () =
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"reach.step" enclosure_fault;
      let r = verify_one (config ()) sys (one_cell ()) in
      let l = sole_leaf r in
      check "unknown with the diverged reason" true
        (failed_with l (F.Enclosure_diverged "injected"));
      Alcotest.(check (list string))
        "every rung attempted"
        [ "base"; "halved_step"; "interval_domain" ]
        l.Verify.rungs)

let test_no_degrade_single_attempt () =
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"reach.step" ~times:1 enclosure_fault;
      let r =
        verify_one (config ~degrade:false ()) sys (one_cell ())
      in
      let l = sole_leaf r in
      check "no retry without degrade" true
        (failed_with l (F.Enclosure_diverged "injected"));
      Alcotest.(check (list string)) "one rung only" [ "base" ] l.Verify.rungs)

let test_refinement_recovers_failed_leaf () =
  (* a failed leaf with depth and budget left is split like an unproved
     one; the children run with the fault exhausted and prove the cell *)
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"reach.step" ~times:1 enclosure_fault;
      let r =
        verify_one (config ~degrade:false ~max_depth:1 ()) sys (one_cell ())
      in
      Alcotest.(check int) "two child leaves" 2 (List.length r.Verify.leaves);
      Alcotest.(check (float 1e-12)) "fully proved" 1.0 r.Verify.proved_fraction)

let test_nan_dynamics_is_numeric () =
  with_faults (fun () ->
      let sys = homing_system () in
      Fault.arm ~site:"ode.simulate" numeric_fault;
      let r = verify_one (config ()) sys (one_cell ()) in
      check "NaN surfaces as a Numeric failure" true
        (failed_with (sole_leaf r) (F.Numeric "injected NaN")))

(* ----- acceptance: one poisoned cell in a partition ----- *)

let test_partition_isolates_poisoned_cell () =
  with_faults (fun () ->
      let sys = homing_system () in
      (* key "1" is cell 1's root leaf (leaf keys are cell.path) *)
      Fault.arm ~site:"verify.leaf" ~key:"1" enclosure_fault;
      let report = Verify.verify_partition ~config:(config ()) sys (grid 4) in
      Alcotest.(check int) "all cells reported" 4 report.Verify.total_cells;
      Alcotest.(check int) "three proved" 3 report.Verify.proved_cells;
      Alcotest.(check int) "one unknown" 1 report.Verify.unknown_cells;
      Alcotest.(check (float 1e-9)) "coverage 75%" 75.0 report.Verify.coverage;
      List.iteri
        (fun i (c : Verify.cell_report) ->
          Alcotest.(check int) "input order" i c.Verify.index;
          if i = 1 then
            check "poisoned cell diverged" true
              (failed_with (sole_leaf c) (F.Enclosure_diverged "injected"))
          else
            Alcotest.(check (float 1e-12))
              "sibling proved" 1.0 c.Verify.proved_fraction)
        report.Verify.cells)

(* ----- worker-domain crash recovery ----- *)

let test_worker_crash_requeues () =
  with_faults (fun () ->
      let sys = homing_system () in
      (* Sys.Break is fatal: the firewall re-raises it, the worker domain
         dies, and the re-queue sweep must still complete every cell
         (the fault is one-shot, so the retry succeeds) *)
      Fault.arm ~site:"verify.leaf" ~key:"2" ~times:1 (fun () -> Sys.Break);
      let report =
        Verify.verify_partition ~config:(config ~workers:3 ()) sys (grid 6)
      in
      Alcotest.(check int) "all cells reported" 6 report.Verify.total_cells;
      Alcotest.(check int) "all proved after recovery" 6
        report.Verify.proved_cells;
      Alcotest.(check (float 1e-9)) "full coverage" 100.0 report.Verify.coverage)

(* ----- failure taxonomy serialization ----- *)

let test_failure_json_roundtrip () =
  let cases =
    [
      F.Enclosure_diverged "no contracting enclosure";
      F.Budget_exceeded F.Deadline;
      F.Budget_exceeded F.Ode_steps;
      F.Budget_exceeded F.Symbolic_states;
      F.Cancelled "client request";
      F.Numeric "NaN bound";
      F.Worker_crashed "Stack_overflow";
    ]
  in
  List.iter
    (fun f ->
      check (F.to_string f) true
        (F.equal f (F.of_json (Json.of_string (Json.to_string (F.to_json f))))))
    cases

(* ----- Reach.run: early abort returns as data ----- *)

let test_reach_run_error_contact () =
  let sys = homing_system () in
  (* the initial box already overlaps E (x > 4): the early-abort
     Error_contact signal must come back as a Reached_error verdict, not
     as an exception *)
  let bad = Symstate.make (B.of_bounds [| (4.5, 5.0) |]) 0 in
  match Reach.run sys (Symset.of_list [ bad ]) with
  | Ok r -> (
      match r.Reach.outcome with
      | Reach.Reached_error _ -> ()
      | _ -> Alcotest.fail "expected Reached_error")
  | Error f -> Alcotest.failf "expected a verdict, got %s" (F.to_string f)

(* ----- journal round-trip and resume ----- *)

let with_temp_journal f =
  let path = Filename.temp_file "nncs_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let run_journaled ~path ?completed sys cells =
  Journal.with_writer path (fun w ->
      Journal.write w
        (Verify.journal_meta
           ~total:(List.length cells)
           ~fingerprint:(Verify.fingerprint ~config:(config ()) sys cells));
      Verify.verify_partition ~config:(config ())
        ~on_cell:(fun c -> Journal.write w (Verify.cell_report_to_json c))
        ?completed sys cells)

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let sys = homing_system () in
      let cells = grid 4 in
      let report = run_journaled ~path sys cells in
      let j = Verify.load_journal path in
      let loaded = j.Verify.completed_cells in
      Alcotest.(check (option int)) "meta total" (Some 4) j.Verify.meta_total;
      check "meta has a fingerprint" true (j.Verify.meta_fingerprint <> None);
      Alcotest.(check int) "all cells journaled" 4 (List.length loaded);
      List.iter2
        (fun (a : Verify.cell_report) (b : Verify.cell_report) ->
          Alcotest.(check int) "index" a.Verify.index b.Verify.index;
          Alcotest.(check (float 0.0))
            "proved_fraction round-trips exactly" a.Verify.proved_fraction
            b.Verify.proved_fraction;
          List.iter2
            (fun (x : Verify.leaf) (y : Verify.leaf) ->
              check "state round-trips exactly" true
                (B.equal x.Verify.state.Symstate.box y.Verify.state.Symstate.box);
              check "result round-trips" true
                (x.Verify.proved = y.Verify.proved
                && x.Verify.rungs = y.Verify.rungs))
            a.Verify.leaves b.Verify.leaves)
        report.Verify.cells loaded)

let test_journal_resume_skips_completed () =
  with_temp_journal (fun path ->
      with_faults (fun () ->
          let sys = homing_system () in
          let cells = grid 4 in
          let full = run_journaled ~path sys cells in
          let loaded = (Verify.load_journal path).Verify.completed_cells in
          let completed =
            List.filter (fun (c : Verify.cell_report) -> c.Verify.index < 2)
              loaded
          in
          (* a fault on cell 0 proves resume does not recompute it *)
          Fault.arm ~site:"verify.leaf" ~key:"0" enclosure_fault;
          let resumed =
            Verify.verify_partition ~config:(config ()) ~completed sys cells
          in
          Alcotest.(check (float 1e-9))
            "same coverage as the uninterrupted run" full.Verify.coverage
            resumed.Verify.coverage;
          Alcotest.(check int) "no unknown cells" 0 resumed.Verify.unknown_cells;
          check "completed cell 0 was not re-run" true (Fault.armed ())))

let test_journal_tolerates_truncated_tail () =
  with_temp_journal (fun path ->
      let sys = homing_system () in
      ignore (run_journaled ~path sys (grid 3));
      (* simulate a crash mid-write: chop the final line in half *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      let cut = String.length contents - 40 in
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 cut);
      close_out oc;
      let j = Verify.load_journal path in
      Alcotest.(check (option int)) "meta survives" (Some 3) j.Verify.meta_total;
      Alcotest.(check int) "only the torn record is lost" 2
        (List.length j.Verify.completed_cells))

(* Corruption is not confined to the tail: a bit-flipped or
   half-flushed record mid-file must not take the rest of the journal
   with it.  [load] skips any malformed line, reporting its 1-based
   number, and drops blank lines silently. *)
let test_journal_skips_malformed_mid_file () =
  with_temp_journal (fun path ->
      let module Json = Nncs_obs.Json in
      let oc = open_out path in
      output_string oc "{\"t\":\"meta\",\"total\":2}\n";
      output_string oc "{\"t\":\"cell\",\"index\":0}\n";
      output_string oc "{\"t\":\"cell\",\"ind\x00ex\n";
      output_string oc "\n";
      output_string oc "{\"t\":\"cell\",\"index\":1}\n";
      close_out oc;
      let reported = ref [] in
      let records =
        Journal.load ~on_malformed:(fun ~line _ -> reported := line :: !reported)
          path
      in
      Alcotest.(check int) "good records survive" 3 (List.length records);
      Alcotest.(check (list int)) "the bad line reported by number" [ 3 ]
        (List.rev !reported);
      (match List.rev records with
      | last :: _ ->
          Alcotest.(check (option int))
            "records after the corruption are kept"
            (Some 1)
            (Option.map Json.to_int (Json.member "index" last))
      | [] -> Alcotest.fail "journal came back empty"))

(* Shutdown races a worker still journaling: [close] must serialize with
   in-flight [write]s (no exception may cross the verdict boundary) and
   post-close writes must be silent no-ops.  One domain hammers writes
   while this one closes mid-stream; every line that did land must still
   be complete JSON. *)
let test_journal_close_write_race () =
  with_temp_journal (fun path ->
      let module Json = Nncs_obs.Json in
      let w = Journal.create path in
      let landed = Atomic.make 0 in
      let writer =
        Domain.spawn (fun () ->
            try
              for i = 0 to 4999 do
                Journal.write w (Json.Obj [ ("i", Json.Num (float_of_int i)) ]);
                Atomic.incr landed
              done;
              true
            with _ -> false)
      in
      (* let some writes land, then slam the journal shut under it *)
      while Atomic.get landed < 32 do
        Domain.cpu_relax ()
      done;
      Journal.close w;
      let survived = Domain.join writer in
      check "no write raised across the close" true survived;
      Journal.close w (* idempotent *);
      Journal.write w (Json.Obj [ ("i", Json.Num (-1.0)) ]);
      let bad = ref 0 in
      let records = Journal.load ~on_malformed:(fun ~line:_ _ -> incr bad) path in
      Alcotest.(check int) "no torn lines" 0 !bad;
      check "pre-close writes persisted" true (List.length records >= 32);
      check "post-close write was a no-op" true
        (List.for_all
           (fun j -> Option.map Json.to_int (Json.member "i" j) <> Some (-1))
           records))

let () =
  Alcotest.run "resilience"
    [
      ( "guards",
        [
          Alcotest.test_case "numeric guards" `Quick test_numeric_guards;
          Alcotest.test_case "firewall" `Quick test_firewall;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "ode steps" `Quick test_budget_ode_steps;
          Alcotest.test_case "symbolic states" `Quick test_budget_symstates;
          Alcotest.test_case "stops refinement" `Quick
            test_budget_stops_refinement;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "token semantics" `Quick test_cancel_token;
          Alcotest.test_case "gates budget" `Quick test_cancel_gates_budget;
          Alcotest.test_case "pre-tripped cell" `Quick
            test_cancel_pre_tripped_cell;
          Alcotest.test_case "observed within one cell" `Quick
            test_cancel_observed_within_one_cell;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "halved step recovers" `Quick
            test_ladder_halved_step_recovers;
          Alcotest.test_case "interval fallback" `Quick
            test_ladder_interval_fallback;
          Alcotest.test_case "exhausted is unknown" `Quick
            test_ladder_exhausted_is_unknown;
          Alcotest.test_case "degrade off" `Quick test_no_degrade_single_attempt;
          Alcotest.test_case "refinement recovers failed leaf" `Quick
            test_refinement_recovers_failed_leaf;
          Alcotest.test_case "NaN dynamics" `Quick test_nan_dynamics_is_numeric;
        ] );
      ( "partition",
        [
          Alcotest.test_case "poisoned cell isolated" `Quick
            test_partition_isolates_poisoned_cell;
          Alcotest.test_case "worker crash requeued" `Quick
            test_worker_crash_requeues;
        ] );
      ( "journal",
        [
          Alcotest.test_case "failure json round-trip" `Quick
            test_failure_json_roundtrip;
          Alcotest.test_case "reach run early abort" `Quick
            test_reach_run_error_contact;
          Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "resume skips completed" `Quick
            test_journal_resume_skips_completed;
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_journal_tolerates_truncated_tail;
          Alcotest.test_case "malformed mid-file line skipped" `Quick
            test_journal_skips_malformed_mid_file;
          Alcotest.test_case "close/write race" `Quick
            test_journal_close_write_race;
        ] );
    ]
