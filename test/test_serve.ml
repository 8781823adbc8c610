(* The verification service: protocol codecs round-trip and reject
   malformed requests; a served job answers identically to a direct
   uncached [Verify.verify_partition]; a repeated job is answered from
   the verdict memo without re-running; a poisoned job yields an error
   event and never kills the server; the memo journal survives a
   crash-torn tail; and the full JSONL session loop handles garbage
   lines, stats probes and shutdown. *)

module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module T = Nncs_nnabs.Transformer
module Cache = Nncs_nnabs.Cache
module E = Nncs_ode.Expr
module J = Nncs_obs.Json
module Fault = Nncs_resilience.Fault
module Command = Nncs.Command
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Symstate = Nncs.Symstate
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module P = Nncs_serve.Protocol
module Memo = Nncs_serve.Memo
module Server = Nncs_serve.Server

module Metrics = Nncs_obs.Metrics

let check = Alcotest.(check bool)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ----- protocol codecs ----- *)

let sample_cells =
  [
    Symstate.make (B.of_bounds [| (1.0, 1.5); (-0.25, 0.25) |]) 0;
    Symstate.make (B.of_bounds [| (1.5, 2.0); (-0.25, 0.25) |]) 1;
  ]

let boxes_equal a b =
  B.dim a = B.dim b
  && List.for_all
       (fun d ->
         let ia = B.get a d and ib = B.get b d in
         I.lo ia = I.lo ib && I.hi ia = I.hi ib)
       (List.init (B.dim a) Fun.id)

let reparse req =
  (* through the printed wire form, exactly as a client round-trips *)
  P.request_of_json (J.of_string (J.to_string (P.request_to_json req)))

let test_request_roundtrip () =
  let config =
    {
      P.default_config with
      Verify.reach =
        {
          P.default_config.Verify.reach with
          Nncs.Reach.scheme = Nncs_ode.Simulate.Lohner;
        };
      max_depth = 3;
      workers = 2;
      strategy = Verify.Most_influential { candidates = [ 0; 1 ]; take = 1 };
      limits =
        {
          Nncs_resilience.Budget.deadline_s = Some 2.5;
          max_ode_steps = Some 10_000;
          max_symstates = None;
        };
    }
  in
  let job =
    {
      P.id = "q1";
      cells = P.Explicit sample_cells;
      domain = T.Interval;
      nn_splits = 4;
      config;
      use_memo = false;
    }
  in
  (match reparse (P.Job job) with
  | Ok (P.Job j) ->
      Alcotest.(check string) "id" "q1" j.P.id;
      check "domain" true (j.P.domain = T.Interval);
      Alcotest.(check int) "nn_splits" 4 j.P.nn_splits;
      check "memo flag" true (j.P.use_memo = false);
      check "scheme" true
        (j.P.config.Verify.reach.Nncs.Reach.scheme = Nncs_ode.Simulate.Lohner);
      Alcotest.(check int) "max_depth" 3 j.P.config.Verify.max_depth;
      Alcotest.(check int) "workers" 2 j.P.config.Verify.workers;
      check "strategy" true
        (j.P.config.Verify.strategy
        = Verify.Most_influential { candidates = [ 0; 1 ]; take = 1 });
      check "limits" true
        (j.P.config.Verify.limits.Nncs_resilience.Budget.deadline_s = Some 2.5
        && j.P.config.Verify.limits.Nncs_resilience.Budget.max_ode_steps
           = Some 10_000);
      (match j.P.cells with
      | P.Explicit l ->
          Alcotest.(check int) "cell count" 2 (List.length l);
          List.iter2
            (fun (a : Symstate.t) (b : Symstate.t) ->
              check "cell box round-trips" true
                (boxes_equal a.Symstate.box b.Symstate.box);
              Alcotest.(check int) "cell cmd" a.Symstate.cmd b.Symstate.cmd)
            sample_cells l
      | P.Partition _ -> Alcotest.fail "explicit cells became a partition")
  | Ok _ -> Alcotest.fail "job parsed as a different request"
  | Error e -> Alcotest.fail e);
  let partition_job =
    {
      P.id = "q2";
      cells = P.Partition { arcs = 12; headings = 4; arc_indices = [ 3; 7 ] };
      domain = T.Symbolic;
      nn_splits = 0;
      config = P.default_config;
      use_memo = true;
    }
  in
  (match reparse (P.Job partition_job) with
  | Ok (P.Job j) ->
      check "partition round-trips" true
        (j.P.cells
        = P.Partition { arcs = 12; headings = 4; arc_indices = [ 3; 7 ] })
  | Ok _ | Error _ -> Alcotest.fail "partition job did not round-trip");
  (match
     reparse
       (P.Lookup
          { id = "l1"; box = B.of_bounds [| (0.5, 1.0); (2.0, 3.0) |]; cmd = 3 })
   with
  | Ok (P.Lookup { id; box; cmd }) ->
      Alcotest.(check string) "lookup id" "l1" id;
      Alcotest.(check int) "lookup cmd" 3 cmd;
      check "lookup box round-trips" true
        (boxes_equal box (B.of_bounds [| (0.5, 1.0); (2.0, 3.0) |]))
  | Ok _ | Error _ -> Alcotest.fail "lookup did not round-trip");
  check "stats round-trips" true (reparse P.Stats = Ok P.Stats);
  check "shutdown round-trips" true (reparse P.Shutdown = Ok P.Shutdown)

let test_request_rejects () =
  let parse s = P.request_of_json (J.of_string s) in
  let rejects label s =
    match parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": malformed request accepted")
  in
  rejects "no type" {|{"id":"x"}|};
  rejects "unknown type" {|{"t":"frobnicate"}|};
  rejects "job without id" {|{"t":"job","partition":{"arcs":1,"headings":1}}|};
  rejects "job without cells" {|{"t":"job","id":"x"}|};
  rejects "both cells and partition"
    {|{"t":"job","id":"x","cells":[],"partition":{"arcs":1,"headings":1}}|};
  let error_of s = match parse s with Error e -> e | Ok _ -> "accepted" in
  Alcotest.(check string)
    "bad domain" {|field "domain" must be interval | symbolic | affine|}
    (error_of
       {|{"t":"job","id":"x","partition":{"arcs":1,"headings":1},"domain":"zonotope"}|});
  Alcotest.(check string)
    "bad scheme" {|field "scheme" must be direct | lohner|}
    (error_of
       {|{"t":"job","id":"x","partition":{"arcs":1,"headings":1},"scheme":"rk4"}|});
  rejects "take without dims"
    {|{"t":"job","id":"x","partition":{"arcs":1,"headings":1},"split_take":1}|};
  rejects "malformed box"
    {|{"t":"job","id":"x","cells":[{"box":[[0.0]],"cmd":0}]}|}

(* "scheduler" was a job field while there were two schedulers; lines
   from older clients still carry it and must parse to the same job *)
let test_retired_scheduler_field () =
  let job extra =
    Printf.sprintf
      {|{"t":"job","id":"x","partition":{"arcs":4,"headings":1},"workers":2%s}|}
      extra
  in
  let reprint s =
    match P.request_of_json (J.of_string s) with
    | Ok req -> J.to_string (P.request_to_json req)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let plain = reprint (job "") in
  Alcotest.(check string) "cells ignored" plain (reprint (job {|,"scheduler":"cells"|}));
  Alcotest.(check string) "leaves ignored" plain
    (reprint (job {|,"scheduler":"leaves"|}))

let test_event_roundtrip () =
  let events =
    [
      P.Accepted { id = "a"; fingerprint = "00ff" };
      P.Progress { id = "a"; cells_done = 3; total = 8 };
      P.Verdict
        {
          id = "a";
          fingerprint = "00ff";
          source = P.Run;
          coverage = 87.5;
          proved_cells = 7;
          unknown_cells = 1;
          total_cells = 8;
          elapsed_s = 0.25;
        };
      P.Verdict
        {
          id = "b";
          fingerprint = "00ff";
          source = P.Memo;
          coverage = 87.5;
          proved_cells = 7;
          unknown_cells = 1;
          total_cells = 8;
          elapsed_s = 0.0;
        };
      P.Lookup_result { id = "l1"; status = P.Lookup_unsafe { k = 4 } };
      P.Lookup_result { id = "l2"; status = P.Lookup_safe };
      P.Lookup_result { id = "l3"; status = P.Lookup_out_of_domain };
      P.Lookup_result { id = "l4"; status = P.Lookup_unavailable };
      P.Job_error { id = ""; reason = "unparseable line" };
      P.Stats_report (J.Obj [ ("jobs", J.Num 2.0) ]);
      P.Bye;
    ]
  in
  List.iter
    (fun e ->
      match P.event_of_json (J.of_string (J.to_string (P.event_to_json e))) with
      | Ok e' -> check "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail msg)
    events;
  (* the server no longer emits "coalesced": an old line naming it is
     refused, not read as another source *)
  check "retired coalesced source refused" true
    (P.event_of_json
       (J.of_string
          {|{"t":"verdict","id":"c","fingerprint":"00ff","source":"coalesced","coverage":87.5,"proved_cells":7,"unknown_cells":1,"total_cells":8,"elapsed_s":0.25}|})
    = Error {|unknown verdict source "coalesced"|})

(* ----- the served pipeline on the homing loop of test_verify ----- *)

let homing_system ?nn_splits () =
  let commands = Command.make [| [| -1.0 |]; [| -0.5 |] |] in
  let network =
    Net.make ~input_dim:1
      [|
        {
          Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
          biases = [| 1.0; -1.0 |];
          activation = Act.Linear;
        };
      |]
  in
  let controller =
    Controller.make ~period:0.5 ~commands ~networks:[| network |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
      ?nn_splits ()
  in
  System.make ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
    ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

let homing_cells arcs =
  Partition.with_command 0
    (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| arcs |])

let make_server ?memo_path ?memo_capacity ?job_deadline_s () =
  Server.create
    {
      Server.default_config with
      Server.dispatchers = 1;
      cache = Some { Cache.default_config with Cache.capacity = 1024; shards = 4 };
      memo_path;
      memo_capacity;
      job_deadline_s;
    }
    ~make_system:(fun ~domain:_ ~nn_splits:_ -> homing_system ())
    ~make_cells:(fun ~arcs ~headings:_ ~arc_indices ->
      let all = homing_cells arcs in
      match arc_indices with
      | [] -> all
      | idxs -> List.filteri (fun i _ -> List.mem i idxs) all)

let homing_job ?(id = "q") ?(use_memo = true) () =
  {
    P.id;
    cells = P.Explicit (homing_cells 8);
    domain = T.Symbolic;
    nn_splits = 0;
    config = P.default_config;
    use_memo;
  }

let collect server job =
  let events = ref [] in
  Server.submit server ~emit:(fun e -> events := e :: !events) job;
  List.rev !events

let leaf_verdicts (r : Verify.report) =
  List.map
    (fun (c : Verify.cell_report) ->
      ( c.Verify.index,
        List.map
          (fun (l : Verify.leaf) -> (l.Verify.depth, l.Verify.proved))
          c.Verify.leaves ))
    r.Verify.cells

(* the [Verdict] payload, extracted (inline records cannot escape) *)
type verdict = {
  vid : string;
  vfp : string;
  vsrc : P.source;
  vcov : float;
  vproved : int;
  vtotal : int;
}

let verdict_payload = function
  | P.Verdict { id; fingerprint; source; coverage; proved_cells; total_cells; _ }
    ->
      Some
        {
          vid = id;
          vfp = fingerprint;
          vsrc = source;
          vcov = coverage;
          vproved = proved_cells;
          vtotal = total_cells;
        }
  | _ -> None

let find_verdict events =
  match List.filter_map verdict_payload events with
  | [ v ] -> v
  | _ -> Alcotest.fail "expected exactly one verdict event"

let test_served_verdict_matches_direct () =
  let server = make_server () in
  let job = homing_job ~id:"first" () in
  let events = collect server job in
  let v = find_verdict events in
  check "first query ran the pipeline" true (v.vsrc = P.Run);
  (match List.hd events with
  | P.Accepted { id; fingerprint } ->
      Alcotest.(check string) "accepted echoes the id" "first" id;
      Alcotest.(check string)
        "accepted and verdict agree on the fingerprint" fingerprint
        v.vfp
  | _ -> Alcotest.fail "first event must be accepted");
  check "run jobs report progress" true
    (List.exists (function P.Progress _ -> true | _ -> false) events);
  (* the served report must be the direct, uncached one *)
  let direct =
    Verify.verify_partition ~config:job.P.config (homing_system ())
      (homing_cells 8)
  in
  Alcotest.(check (float 0.0))
    "served coverage = direct coverage" direct.Verify.coverage v.vcov;
  Alcotest.(check int) "total cells" direct.Verify.total_cells v.vtotal;
  Alcotest.(check int)
    "proved cells" direct.Verify.proved_cells v.vproved;
  match Server.lookup server v.vfp with
  | None -> Alcotest.fail "verdict not memoized"
  | Some stored ->
      check "memoized leaf verdicts = direct leaf verdicts" true
        (leaf_verdicts stored = leaf_verdicts direct)

let jobs_counted server =
  match J.member "jobs" (Server.stats_json server) with
  | Some n -> J.to_int n
  | None -> Alcotest.fail "stats_json lacks a jobs field"

(* "batch_leaves" was a job field while leaves could share F# kernel
   calls; lines from older clients still carry it and must parse to the
   same job, with the same fingerprint *)
let test_retired_batch_leaves_field () =
  let job extra =
    let line =
      Printf.sprintf
        {|{"t":"job","id":"x","partition":{"arcs":4,"headings":1}%s}|} extra
    in
    match P.request_of_json (J.of_string line) with
    | Ok (P.Job j) -> j
    | Ok _ -> Alcotest.failf "%s: not a job" line
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  let plain = job "" and retired = job {|,"batch_leaves":8|} in
  check "same job" true (plain = retired);
  let accepted j =
    match collect (make_server ()) j with
    | P.Accepted { fingerprint; _ } :: _ -> fingerprint
    | _ -> Alcotest.fail "first event must be accepted"
  in
  Alcotest.(check string) "same accepted fingerprint" (accepted plain)
    (accepted retired)

let test_repeat_answered_from_memo () =
  let server = make_server () in
  (* the jobs metric is process-wide: count relative to the baseline *)
  let jobs0 = jobs_counted server in
  let v1 = find_verdict (collect server (homing_job ~id:"a" ())) in
  let events2 = collect server (homing_job ~id:"b" ()) in
  let v2 = find_verdict events2 in
  check "first from the pipeline" true (v1.vsrc = P.Run);
  check "identical repeat from the memo" true (v2.vsrc = P.Memo);
  Alcotest.(check string)
    "same problem, same fingerprint" v1.vfp v2.vfp;
  Alcotest.(check (float 0.0))
    "same coverage either way" v1.vcov v2.vcov;
  check "memo answers emit no progress" true
    (not (List.exists (function P.Progress _ -> true | _ -> false) events2));
  (* memo opt-out: same job with memo:false runs again *)
  let v3 = find_verdict (collect server (homing_job ~id:"c" ~use_memo:false ())) in
  check "memo:false re-runs the pipeline" true (v3.vsrc = P.Run);
  Alcotest.(check (float 0.0))
    "and still agrees" v1.vcov v3.vcov;
  Alcotest.(check int) "stats count the jobs" 3 (jobs_counted server - jobs0)

(* regression: the memo key must include the budget limits.  A
   budget-truncated report stored first must not be served for the same
   problem without the budget (Verify.fingerprint alone omits
   config.limits). *)
let test_budget_distinct_in_memo () =
  let server = make_server () in
  let limited_job id =
    {
      (homing_job ~id ()) with
      P.config =
        {
          P.default_config with
          Verify.limits =
            {
              Nncs_resilience.Budget.unlimited with
              Nncs_resilience.Budget.max_ode_steps = Some 1;
            };
        };
    }
  in
  let v_lim = find_verdict (collect server (limited_job "tight")) in
  check "budget-limited first run hits the pipeline" true (v_lim.vsrc = P.Run);
  (* the same problem, unlimited: must re-run, not collide *)
  let v_full = find_verdict (collect server (homing_job ~id:"full" ())) in
  check "unlimited job not served the truncated report" true
    (v_full.vsrc = P.Run);
  check "budget-only difference yields distinct fingerprints" true
    (v_lim.vfp <> v_full.vfp);
  let direct =
    Verify.verify_partition ~config:P.default_config (homing_system ())
      (homing_cells 8)
  in
  Alcotest.(check (float 0.0))
    "unlimited verdict = direct unlimited run" direct.Verify.coverage
    v_full.vcov;
  (* an identical budget-limited repeat does share its memo entry *)
  let v_lim2 = find_verdict (collect server (limited_job "tight2")) in
  check "same budget answered from the memo" true (v_lim2.vsrc = P.Memo);
  Alcotest.(check string)
    "same budget, same fingerprint" v_lim.vfp v_lim2.vfp

let test_poisoned_job_firewalled () =
  let server = make_server () in
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm ~site:"serve.job" ~key:"bad" (fun () ->
          Failure "injected fault");
      let events = collect server (homing_job ~id:"bad" ()) in
      (match events with
      | [ P.Job_error { id; reason = _ } ] ->
          Alcotest.(check string) "error tagged with the job id" "bad" id
      | _ -> Alcotest.fail "poisoned job must yield exactly one error event"));
  (* the server survives: the next job runs normally *)
  let v = find_verdict (collect server (homing_job ~id:"good" ())) in
  check "next job unaffected" true (v.vsrc = P.Run)

let test_empty_partition_rejected () =
  let server = make_server () in
  let job =
    { (homing_job ~id:"empty" ()) with P.cells = P.Explicit [] }
  in
  match collect server job with
  | [ P.Job_error { id = "empty"; _ } ] -> ()
  | _ -> Alcotest.fail "empty cell list must yield an error event"

(* ----- cooperative cancellation ----- *)

(* cancel a running job from its first progress event: the acknowledged
   job receives no further terminal event from its run, the truncated
   report never reaches the memo, and an identical retry re-runs *)
let test_cancel_running_job () =
  let server = make_server () in
  let events = ref [] in
  let ticket = ref None in
  let acked = ref false in
  let emit e =
    events := e :: !events;
    match e with
    | P.Progress _ when not !acked -> (
        match !ticket with
        | Some tk -> acked := Server.cancel_ticket server tk ~reason:"client"
        | None -> Alcotest.fail "progress before on_start")
    | _ -> ()
  in
  Server.submit server ~emit
    ~on_start:(fun tk -> ticket := Some tk)
    (homing_job ~id:"doomed" ());
  let events = List.rev !events in
  check "mid-run cancel acknowledged" true !acked;
  (match !ticket with
  | Some tk ->
      check "second cancel of the same job nacked" false
        (Server.cancel_ticket server tk ~reason:"again")
  | None -> Alcotest.fail "on_start never fired");
  check "acknowledged job gets no terminal event" true
    (not
       (List.exists
          (function
            | P.Verdict _ | P.Cancelled _ | P.Job_error _ -> true | _ -> false)
          events));
  let fp =
    match List.hd events with
    | P.Accepted { fingerprint; _ } -> fingerprint
    | _ -> Alcotest.fail "first event must be accepted"
  in
  check "cancellation-truncated report not memoized" true
    (Server.lookup server fp = None);
  let v = find_verdict (collect server (homing_job ~id:"retry" ())) in
  check "identical job re-runs after a cancelled attempt" true (v.vsrc = P.Run);
  let direct =
    Verify.verify_partition ~config:P.default_config (homing_system ())
      (homing_cells 8)
  in
  Alcotest.(check (float 0.0))
    "and answers the full verdict" direct.Verify.coverage v.vcov

let wait_until ?(timeout_s = 10.0) pred label =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.fail ("timed out waiting for " ^ label)
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let stat_int server field =
  match J.member field (Server.stats_json server) with
  | Some n -> J.to_int n
  | None -> Alcotest.fail ("stats_json lacks " ^ field)

(* a fatal exception that escapes a run (the firewall re-raises
   [Out_of_memory]) reaches the caller as before, but the job's ticket
   is settled on the way out: [stats] no longer counts it as running *)
let test_fatal_run_settles_ticket () =
  let server = make_server () in
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm ~site:"ode.simulate" ~times:1 (fun () -> Out_of_memory);
      match collect server (homing_job ~id:"oom" ()) with
      | _ -> Alcotest.fail "Out_of_memory must reach the caller"
      | exception Out_of_memory -> ());
  Alcotest.(check int) "no running job after the fatal run" 0
    (stat_int server "running_jobs");
  let v = find_verdict (collect server (homing_job ~id:"after" ())) in
  check "the next job runs" true (v.vsrc = P.Run)

(* park a job inside its first progress event until [gate] flips, so an
   identical job submitted meanwhile deterministically overlaps its run
   instead of racing it or hitting the memo *)
let spawn_gated_job server ~id ~record ~gate ~parked ~ticket =
  Domain.spawn (fun () ->
      Server.submit server
        ~emit:(fun e ->
          record id e;
          match e with
          | P.Progress _ ->
              Atomic.set parked true;
              while not (Atomic.get gate) do
                Unix.sleepf 0.001
              done
          | _ -> ())
        ~on_start:(fun tk -> Atomic.set ticket (Some tk))
        (homing_job ~id ()))

(* an identical job submitted while the first one runs is not folded
   into it: it runs on its own and answers the same verdict, and
   cancelling the first job afterwards touches neither that verdict
   nor its memo entry *)
let test_identical_jobs_run_apart () =
  let server = make_server () in
  let gate = Atomic.make false and parked = Atomic.make false in
  let ticket = Atomic.make None in
  let lock = Mutex.create () in
  let tagged = ref [] in
  let record tag e =
    Mutex.lock lock;
    tagged := (tag, e) :: !tagged;
    Mutex.unlock lock
  in
  let events_of tag =
    Mutex.lock lock;
    let evs = List.rev !tagged in
    Mutex.unlock lock;
    List.filter_map (fun (t, e) -> if t = tag then Some e else None) evs
  in
  let first =
    spawn_gated_job server ~id:"first" ~record ~gate ~parked ~ticket
  in
  wait_until (fun () -> Atomic.get parked) "the first job's first progress";
  Alcotest.(check int) "one running job while the first is parked" 1
    (stat_int server "running_jobs");
  let second =
    Domain.spawn (fun () ->
        Server.submit server ~emit:(record "second") (homing_job ~id:"second" ()))
  in
  Domain.join second;
  let v =
    match List.filter_map verdict_payload (events_of "second") with
    | [ v ] -> v
    | _ -> Alcotest.fail "the second job must return with its own verdict"
  in
  check "the second job ran on its own" true (v.vsrc = P.Run);
  Alcotest.(check int) "still one running job" 1
    (stat_int server "running_jobs");
  (match events_of "first" with
  | P.Accepted { fingerprint; _ } :: _ ->
      Alcotest.(check string) "identical jobs share a fingerprint" fingerprint
        v.vfp
  | _ -> Alcotest.fail "first event must be accepted");
  (match Atomic.get ticket with
  | None -> Alcotest.fail "on_start never fired"
  | Some tk ->
      check "cancel of the parked job acknowledged" true
        (Server.cancel_ticket server tk ~reason:"client left"));
  Atomic.set gate true;
  Domain.join first;
  check "the cancelled job gets no terminal event" true
    (List.for_all
       (function P.Accepted _ | P.Progress _ -> true | _ -> false)
       (events_of "first"));
  Alcotest.(check int) "no running job after" 0 (stat_int server "running_jobs");
  let direct =
    Verify.verify_partition ~config:P.default_config (homing_system ())
      (homing_cells 8)
  in
  Alcotest.(check (float 0.0))
    "the second job's verdict is the direct one" direct.Verify.coverage v.vcov;
  Alcotest.(check int) "proved cells" direct.Verify.proved_cells v.vproved;
  match Server.lookup server v.vfp with
  | None -> Alcotest.fail "the second job's report never reached the memo"
  | Some stored ->
      check "memoized leaf verdicts = direct leaf verdicts" true
        (leaf_verdicts stored = leaf_verdicts direct)

(* ----- memo journal: persistence across restart, torn tail ----- *)

let test_memo_journal_torn_tail () =
  let path = Filename.temp_file "nncs_memo" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let report =
        Verify.verify_partition ~config:P.default_config (homing_system ())
          (homing_cells 4)
      in
      let memo = Memo.create ~path () in
      Memo.store memo "deadbeef00000001" report;
      Memo.close memo;
      (* a complete record whose report is corrupt deeper than the JSON
         layer: inverted box bounds raise [Invalid_argument] from
         [B.of_bounds], not [Parse_error] — replay must skip it too *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc
        ({|{"t":"verdict_memo","fingerprint":"c0ffee0000000002",|}
       ^ {|"report":{"t":"report","coverage":0,"elapsed":0,|}
       ^ {|"proved_cells":0,"unknown_cells":1,"total_cells":1,|}
       ^ {|"cells":[{"t":"cell","index":0,"proved_fraction":0,"elapsed":0,|}
       ^ {|"leaves":[{"box":[[1.0,0.0]],"cmd":0,"depth":0,"proved":false,|}
       ^ {|"result":{"verdict":"horizon"},"rungs":[],"elapsed":0}]}]}}|}
       ^ "\n");
      (* and a crash mid-append: a torn, unterminated JSON prefix *)
      output_string oc "{\"t\":\"verdict_memo\",\"fingerprint\":\"feed";
      close_out oc;
      let reloaded = Memo.create ~path () in
      Fun.protect
        ~finally:(fun () -> Memo.close reloaded)
        (fun () ->
          Alcotest.(check int)
            "torn tail skipped, good entry replayed" 1 (Memo.size reloaded);
          match Memo.peek reloaded "deadbeef00000001" with
          | None -> Alcotest.fail "journaled verdict lost on reload"
          | Some r ->
              check "replayed report identical" true
                (leaf_verdicts r = leaf_verdicts report
                && r.Verify.coverage = report.Verify.coverage)))

(* ----- bounded memo: LRU eviction, compaction, duplicate stores ----- *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let small_report () =
  Verify.verify_partition ~config:P.default_config (homing_system ())
    (homing_cells 2)

let test_memo_lru_eviction () =
  let report = small_report () in
  let memo = Memo.create ~capacity:2 () in
  Memo.store memo "fp1" report;
  Memo.store memo "fp2" report;
  (* a find promotes: fp2 becomes the eviction victim, not fp1 *)
  ignore (Memo.find memo "fp1");
  Memo.store memo "fp3" report;
  Alcotest.(check int) "size bounded by capacity" 2 (Memo.size memo);
  Alcotest.(check int) "eviction counted" 1 (Memo.eviction_count memo);
  check "LRU entry evicted" true (Memo.peek memo "fp2" = None);
  check "recently used entry kept" true (Option.is_some (Memo.peek memo "fp1"));
  check "new entry kept" true (Option.is_some (Memo.peek memo "fp3"));
  Memo.close memo

let compactions () = Metrics.value (Metrics.counter "serve.memo_compactions")

let test_memo_journal_compaction () =
  let path = Filename.temp_file "nncs_memo" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let report = small_report () in
      let c0 = compactions () in
      let memo = Memo.create ~path ~capacity:1 () in
      List.iter
        (fun i -> Memo.store memo (Printf.sprintf "fp%d" i) report)
        [ 1; 2; 3; 4; 5; 6 ];
      (* five evictions against one live entry: the dead lines must
         cross the compaction threshold while the memo is still open *)
      check "eviction churn triggers live compaction" true
        (compactions () - c0 >= 1);
      Memo.close memo;
      Alcotest.(check int)
        "journal rewritten to exactly the live entries" 1 (count_lines path);
      let reloaded = Memo.create ~path ~capacity:1 () in
      Fun.protect
        ~finally:(fun () -> Memo.close reloaded)
        (fun () ->
          Alcotest.(check int) "live entry replayed" 1 (Memo.size reloaded);
          check "newest entry survived" true
            (Option.is_some (Memo.peek reloaded "fp6"))))

let test_memo_duplicate_store_skipped () =
  let path = Filename.temp_file "nncs_memo" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let report = small_report () in
      let c0 = compactions () in
      let memo = Memo.create ~path () in
      Memo.store memo "dup" report;
      Memo.store memo "dup" report;
      Memo.store memo "dup" report;
      Memo.close memo;
      (* a compaction would mask re-appended duplicates; assert both
         that none ran and that the file holds a single record *)
      check "dead-line-free journal never compacted" true (compactions () = c0);
      Alcotest.(check int)
        "duplicate stores not re-journaled" 1 (count_lines path))

(* ----- the JSONL session loop ----- *)

let run_session ?(dispatchers = 2) ?max_queue ?max_line_bytes ?backreach lines
    =
  let in_path = Filename.temp_file "nncs_serve_in" ".jsonl" in
  let out_path = Filename.temp_file "nncs_serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ in_path; out_path ])
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let server =
        Server.create
          {
            Server.default_config with
            Server.dispatchers;
            max_queue;
            max_line_bytes =
              Option.value max_line_bytes
                ~default:Server.default_config.Server.max_line_bytes;
            backreach;
          }
          ~make_system:(fun ~domain:_ ~nn_splits -> homing_system ~nn_splits ())
          ~make_cells:(fun ~arcs ~headings:_ ~arc_indices:_ ->
            homing_cells arcs)
      in
      let ic = open_in in_path and oc = open_out out_path in
      let outcome = Server.run server ic oc in
      close_in ic;
      close_out oc;
      Server.close server;
      let events = ref [] in
      let ic = In_channel.open_text out_path in
      (try
         while true do
           let line = input_line ic in
           match P.event_of_json (J.of_string line) with
           | Ok e -> events := e :: !events
           | Error msg -> Alcotest.fail ("unparseable event line: " ^ msg)
         done
       with End_of_file -> ());
      In_channel.close ic;
      (outcome, List.rev !events))

let test_session_loop () =
  let outcome, events =
    run_session
      [
        {|{"t":"job","id":"s1","partition":{"arcs":4,"headings":1}}|};
        {|this line is not JSON|};
        {|{"t":"job","id":"s2","partition":{"arcs":4,"headings":1}}|};
        {|{"t":"stats"}|};
        {|{"t":"shutdown"}|};
      ]
  in
  check "shutdown ends the session" true (outcome = `Shutdown);
  let verdict_of id =
    match
      List.filter (fun v -> v.vid = id) (List.filter_map verdict_payload events)
    with
    | [ v ] -> v
    | _ -> Alcotest.fail ("expected exactly one verdict for " ^ id)
  in
  let v1 = verdict_of "s1" and v2 = verdict_of "s2" in
  Alcotest.(check string)
    "identical jobs share a fingerprint" v1.vfp v2.vfp;
  Alcotest.(check (float 0.0))
    "identical jobs share a coverage" v1.vcov v2.vcov;
  check "garbage line yields an error with an empty id" true
    (List.exists
       (function P.Job_error { id = ""; _ } -> true | _ -> false)
       events);
  check "stats answered in-session" true
    (List.exists (function P.Stats_report _ -> true | _ -> false) events);
  (match List.rev events with
  | P.Bye :: _ -> ()
  | _ -> Alcotest.fail "bye must be the last event");
  (* end-of-input without shutdown: the session ends with [`Eof] *)
  let outcome, events =
    run_session ~dispatchers:1 [ {|{"t":"stats"}|} ]
  in
  check "eof ends the session" true (outcome = `Eof);
  check "eof session still says bye" true
    (List.exists (function P.Bye -> true | _ -> false) events)

(* regression: "nn_splits" reaches Controller.make, and each F# query
   runs its 2^nn_splits sub-boxes in one call that no deadline
   interrupts, so an unbounded value wedged a dispatcher; the bound
   turns it into one error event *)
let test_session_nn_splits_bounded () =
  let _, events =
    run_session ~dispatchers:1
      [
        {|{"t":"job","id":"wide","partition":{"arcs":2,"headings":1},"nn_splits":40}|};
        {|{"t":"job","id":"next","partition":{"arcs":2,"headings":1}}|};
        {|{"t":"shutdown"}|};
      ]
  in
  let about_wide =
    List.filter
      (function
        | P.Accepted { id; _ } | P.Progress { id; _ } | P.Verdict { id; _ }
        | P.Cancelled { id; _ } | P.Job_error { id; _ } -> id = "wide"
        | _ -> false)
      events
  in
  (match about_wide with
  | [ P.Job_error _ ] -> ()
  | _ -> Alcotest.fail "nn_splits 40 must yield exactly one error event");
  check "the next job is answered" true
    (List.exists (fun v -> v.vid = "next") (List.filter_map verdict_payload events))

(* regression: "max_depth" reaches Verify.verify_partition, whose
   frontier allocated a bucket per depth up front, so a huge value raised
   [Out_of_memory]: fatal to the firewall, it killed the dispatcher.  The
   homing cells prove at depth 0, so the job is answered at any depth. *)
let test_session_max_depth_unbounded () =
  let _, events =
    run_session ~dispatchers:1
      [
        {|{"t":"job","id":"deep","partition":{"arcs":2,"headings":1},"split_dims":[0],"max_depth":1099511627776}|};
        {|{"t":"job","id":"next","partition":{"arcs":2,"headings":1}}|};
        {|{"t":"shutdown"}|};
      ]
  in
  let verdicts = List.filter_map verdict_payload events in
  (match List.filter (fun v -> v.vid = "deep") verdicts with
  | [ v ] -> Alcotest.(check (float 0.0)) "deep job proved" 100.0 v.vcov
  | _ -> Alcotest.fail "max_depth 2^40 must yield exactly one verdict");
  check "no error event" false
    (List.exists (function P.Job_error _ -> true | _ -> false) events);
  check "the next job is answered" true
    (List.exists (fun v -> v.vid = "next") verdicts)

let session_server () =
  Server.create
    { Server.default_config with Server.dispatchers = 1 }
    ~make_system:(fun ~domain:_ ~nn_splits:_ -> homing_system ())
    ~make_cells:(fun ~arcs ~headings:_ ~arc_indices:_ -> homing_cells arcs)

(* regression: a client that stops reading mid-session (writes raise
   [Sys_error EPIPE] once SIGPIPE is ignored) must not kill a
   dispatcher domain or the session loop — the session still drains,
   joins and returns its outcome *)
let test_broken_client_output () =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old)
    (fun () ->
      let in_path = Filename.temp_file "nncs_serve_in" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove in_path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out in_path in
          List.iter
            (fun l -> output_string oc (l ^ "\n"))
            [
              {|{"t":"job","id":"b1","partition":{"arcs":2,"headings":1}}|};
              {|{"t":"shutdown"}|};
            ];
          close_out oc;
          let r, w = Unix.pipe () in
          Unix.close r;
          let broken = Unix.out_channel_of_descr w in
          let ic = open_in in_path in
          let server = session_server () in
          let outcome = Server.run server ic broken in
          close_in ic;
          close_out_noerr broken;
          Server.close server;
          check "session survives the broken client" true
            (outcome = `Shutdown)))

(* regression: a read error (e.g. ECONNRESET on a socket) must end the
   session like end-of-input — drain, join, bye — not propagate *)
let test_reader_error_ends_session () =
  let out_path = Filename.temp_file "nncs_serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let r, w = Unix.pipe () in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      Unix.close r;
      (* input_line on the dead descriptor raises Sys_error, not
         End_of_file *)
      let oc = open_out out_path in
      let server = session_server () in
      let outcome = Server.run server ic oc in
      close_out oc;
      Server.close server;
      check "read error ends the session as eof" true (outcome = `Eof);
      let events = ref [] in
      let ic = In_channel.open_text out_path in
      (try
         while true do
           let line = input_line ic in
           match P.event_of_json (J.of_string line) with
           | Ok e -> events := e :: !events
           | Error msg -> Alcotest.fail ("unparseable event line: " ^ msg)
         done
       with End_of_file -> ());
      In_channel.close ic;
      check "dispatchers joined and bye emitted" true
        (List.exists (function P.Bye -> true | _ -> false) !events))

(* cancel requests against every id class in one session.  Whether the
   cancel line catches c1 queued, running, or already finished is a
   scheduling race — all three are legal — so the assertions are the
   race-free invariants: exactly one terminal event for the id, and
   empty-id nacks for the repeat and for the unknown id *)
let test_session_cancel_paths () =
  let outcome, events =
    run_session ~dispatchers:1
      [
        {|{"t":"job","id":"c1","partition":{"arcs":4,"headings":1}}|};
        {|{"t":"cancel","id":"c1"}|};
        {|{"t":"cancel","id":"c1"}|};
        {|{"t":"cancel","id":"ghost"}|};
        {|{"t":"shutdown"}|};
      ]
  in
  check "shutdown honoured" true (outcome = `Shutdown);
  let terminals =
    List.filter
      (function
        | P.Verdict { id = "c1"; _ }
        | P.Cancelled { id = "c1"; _ }
        | P.Job_error { id = "c1"; _ } ->
            true
        | _ -> false)
      events
  in
  Alcotest.(check int)
    "exactly one terminal event for the cancelled id" 1 (List.length terminals);
  let nack needle =
    List.exists
      (function
        | P.Job_error { id = ""; reason } -> contains reason needle
        | _ -> false)
      events
  in
  check "repeat cancel nacked as already finished" true
    (nack {|cancel "c1": job already finished|});
  check "unknown id nacked" true (nack {|cancel "ghost": unknown job id|});
  match List.rev events with
  | P.Bye :: _ -> ()
  | _ -> Alcotest.fail "bye must be the last event"

(* a duplicate id while the first job is still in flight: rejected with
   an empty-id error so the original keeps its own terminal event *)
let test_session_duplicate_id_rejected () =
  Fun.protect ~finally:Fault.reset (fun () ->
      (* park the only dispatcher inside the first job so the duplicate
         line is deterministically read while the id is in flight *)
      Fault.arm ~site:"serve.job" ~key:"dup" (fun () ->
          Unix.sleepf 0.2;
          Failure "injected crash");
      let outcome, events =
        run_session ~dispatchers:1
          [
            {|{"t":"job","id":"dup","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"dup","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"shutdown"}|};
          ]
      in
      check "session shuts down" true (outcome = `Shutdown);
      let dup_errors =
        List.filter_map
          (function
            | P.Job_error { id = "dup"; reason } -> Some reason | _ -> None)
          events
      in
      Alcotest.(check int)
        "the original job keeps its single terminal event" 1
        (List.length dup_errors);
      check "duplicate rejected with an empty id" true
        (List.exists
           (function
             | P.Job_error { id = ""; reason } ->
                 contains reason {|duplicate job id "dup"|}
             | _ -> false)
           events))

(* admission control: one dispatcher parked in a slow job, a queue of
   one.  Scheduling decides which of the trailing jobs grabs the queue
   slot, so assert the shed/served split rather than specific ids *)
let test_session_overload_shed () =
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm ~site:"serve.job" ~key:"slow" (fun () ->
          Unix.sleepf 0.3;
          Failure "injected slow crash");
      let outcome, events =
        run_session ~dispatchers:1 ~max_queue:1
          [
            {|{"t":"job","id":"slow","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"q2","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"q3","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"q4","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"shutdown"}|};
          ]
      in
      check "overloaded session still shuts down" true (outcome = `Shutdown);
      (match
         List.filter_map
           (function
             | P.Job_error { id = "slow"; reason } -> Some reason | _ -> None)
           events
       with
      | [ _ ] -> ()
      | _ -> Alcotest.fail "poisoned job must error exactly once");
      let shed =
        List.filter
          (function
            | P.Job_error { id; reason } ->
                List.mem id [ "q2"; "q3"; "q4" ] && contains reason "overloaded"
            | _ -> false)
          events
      in
      let served =
        List.filter
          (fun v -> List.mem v.vid [ "q2"; "q3"; "q4" ])
          (List.filter_map verdict_payload events)
      in
      check "at least two jobs shed" true (List.length shed >= 2);
      Alcotest.(check int)
        "every trailing job either shed or served" 3
        (List.length shed + List.length served))

(* a fatal crash kills the only dispatcher and a second one hits the
   session's recovery drain: the drain goes on past it, so the job
   queued behind both still runs and the session still ends *)
let test_session_drain_survives_crash () =
  Fun.protect ~finally:Fault.reset (fun () ->
      List.iter
        (fun key -> Fault.arm ~site:"serve.job" ~key (fun () -> Out_of_memory))
        [ "boom1"; "boom2" ];
      let outcome, events =
        run_session ~dispatchers:1
          [
            {|{"t":"job","id":"boom1","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"boom2","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"job","id":"after","partition":{"arcs":2,"headings":1}}|};
            {|{"t":"shutdown"}|};
          ]
      in
      check "session shuts down" true (outcome = `Shutdown);
      List.iter
        (fun id ->
          check (id ^ " reported as a dispatcher crash") true
            (List.exists
               (function
                 | P.Job_error { id = i; reason } ->
                     i = id && contains reason "dispatcher crashed"
                 | _ -> false)
               events))
        [ "boom1"; "boom2" ];
      check "the job queued behind both crashes runs" true
        (List.exists
           (fun v -> v.vid = "after")
           (List.filter_map verdict_payload events)))

let test_session_line_cap () =
  let outcome, events =
    run_session ~dispatchers:1 ~max_line_bytes:64
      [
        String.make 200 'x';
        {|{"t":"job","id":"lc","partition":{"arcs":2,"headings":1}}|};
        {|{"t":"shutdown"}|};
      ]
  in
  check "oversized line survived" true (outcome = `Shutdown);
  check "oversized line reported" true
    (List.exists
       (function
         | P.Job_error { id = ""; reason } ->
             contains reason "exceeds 64 bytes"
         | _ -> false)
       events);
  match
    List.filter (fun v -> v.vid = "lc") (List.filter_map verdict_payload events)
  with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "the job after the oversized line must still run"

(* ----- the backreach lookup fast path ----- *)

let homing_backreach_table () =
  let module Backreach = Nncs_backreach.Backreach in
  Backreach.build
    {
      (Backreach.default_config
         ~domain:(B.of_bounds [| (0.0, 4.5) |])
         ~grid:[| 9 |])
      with
      Backreach.reach = { Nncs.Reach.default_config with keep_sets = false };
    }
    (homing_system ())

let test_session_lookup_fast_path () =
  let module Backreach = Nncs_backreach.Backreach in
  let table = homing_backreach_table () in
  let m_lookups = Metrics.counter "serve.lookups" in
  let lookups0 = Metrics.value m_lookups in
  let outcome, events =
    run_session ~dispatchers:1 ~backreach:table
      [
        (* the same hot probe twice: both must be answered from the
           table, neither may found a job *)
        {|{"t":"lookup","id":"hot","box":[[4.25,4.5]],"cmd":0}|};
        {|{"t":"lookup","id":"hot2","box":[[4.25,4.5]],"cmd":0}|};
        {|{"t":"lookup","id":"cold","box":[[0.05,0.2]],"cmd":0}|};
        {|{"t":"lookup","id":"gone","box":[[9.0,9.5]],"cmd":0}|};
        {|{"t":"job","id":"s1","partition":{"arcs":4,"headings":1}}|};
        {|{"t":"stats"}|};
        {|{"t":"shutdown"}|};
      ]
  in
  check "shutdown ends the session" true (outcome = `Shutdown);
  let status_of id =
    match
      List.filter_map
        (function
          | P.Lookup_result { id = id'; status } when id' = id -> Some status
          | _ -> None)
        events
    with
    | [ s ] -> s
    | _ -> Alcotest.fail ("expected exactly one lookup_result for " ^ id)
  in
  (* the cell overlapping E (x > 4.0) is a contact; with both commands
     strictly negative nothing below ever climbs back up; the last probe
     leaves the [0, 4.5] table domain *)
  check "contact probe is unsafe" true
    (match status_of "hot" with P.Lookup_unsafe _ -> true | _ -> false);
  check "repeated probe answers identically" true
    (status_of "hot" = status_of "hot2");
  check "low probe is safe" true (status_of "cold" = P.Lookup_safe);
  check "escaped probe is out of domain" true
    (status_of "gone" = P.Lookup_out_of_domain);
  (* the fast path never enters the run path: the only job events of the
     session belong to s1 — four lookups produced no accepted/progress
     and no extra verdicts *)
  Alcotest.(check int)
    "one accepted event (the real job)" 1
    (List.length
       (List.filter (function P.Accepted _ -> true | _ -> false) events));
  Alcotest.(check int)
    "one verdict event (the real job)" 1
    (List.length (List.filter_map verdict_payload events));
  check "the real job still runs" true
    ((find_verdict events).vid = "s1");
  Alcotest.(check int)
    "every lookup counted by serve.lookups" 4
    (Metrics.value m_lookups - lookups0);
  (* stats advertises the table *)
  check "stats reports the table" true
    (List.exists
       (function
         | P.Stats_report (J.Obj fields) ->
             List.assoc_opt "backreach_table" fields = Some (J.Bool true)
         | _ -> false)
       events)

let test_session_lookup_unavailable () =
  let outcome, events =
    run_session ~dispatchers:1
      [
        {|{"t":"lookup","id":"l0","box":[[1.0,2.0]],"cmd":0}|};
        {|{"t":"shutdown"}|};
      ]
  in
  check "shutdown ends the session" true (outcome = `Shutdown);
  check "tableless server answers unavailable" true
    (List.exists
       (function
         | P.Lookup_result { id = "l0"; status = P.Lookup_unavailable } -> true
         | _ -> false)
       events)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects;
          Alcotest.test_case "retired scheduler field ignored" `Quick
            test_retired_scheduler_field;
          Alcotest.test_case "retired batch_leaves field ignored" `Quick
            test_retired_batch_leaves_field;
          Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "served verdict matches direct run" `Quick
            test_served_verdict_matches_direct;
          Alcotest.test_case "repeat answered from memo" `Quick
            test_repeat_answered_from_memo;
          Alcotest.test_case "budget keys the memo" `Quick
            test_budget_distinct_in_memo;
          Alcotest.test_case "poisoned job firewalled" `Quick
            test_poisoned_job_firewalled;
          Alcotest.test_case "fatal run settles its ticket" `Quick
            test_fatal_run_settles_ticket;
          Alcotest.test_case "empty partition rejected" `Quick
            test_empty_partition_rejected;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "running job cancelled" `Quick
            test_cancel_running_job;
          Alcotest.test_case "identical jobs run apart" `Quick
            test_identical_jobs_run_apart;
        ] );
      ( "memo",
        [
          Alcotest.test_case "journal survives a torn tail" `Quick
            test_memo_journal_torn_tail;
          Alcotest.test_case "lru eviction" `Quick test_memo_lru_eviction;
          Alcotest.test_case "journal compaction" `Quick
            test_memo_journal_compaction;
          Alcotest.test_case "duplicate store skipped" `Quick
            test_memo_duplicate_store_skipped;
        ] );
      ( "session",
        [
          Alcotest.test_case "jsonl session loop" `Quick test_session_loop;
          Alcotest.test_case "broken client output survived" `Quick
            test_broken_client_output;
          Alcotest.test_case "reader error ends session" `Quick
            test_reader_error_ends_session;
          Alcotest.test_case "cancel id classes" `Quick
            test_session_cancel_paths;
          Alcotest.test_case "duplicate id rejected" `Quick
            test_session_duplicate_id_rejected;
          Alcotest.test_case "overload shed" `Quick test_session_overload_shed;
          Alcotest.test_case "drain survives a crash" `Quick
            test_session_drain_survives_crash;
          Alcotest.test_case "line cap" `Quick test_session_line_cap;
          Alcotest.test_case "backreach lookup fast path" `Quick
            test_session_lookup_fast_path;
          Alcotest.test_case "lookup without a table" `Quick
            test_session_lookup_unavailable;
          Alcotest.test_case "nn_splits bounded" `Quick
            test_session_nn_splits_bounded;
          Alcotest.test_case "max_depth unbounded" `Quick
            test_session_max_depth_unbounded;
        ] );
    ]
