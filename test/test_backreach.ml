(* The backreachability oracle (lib/backreach): quantized backward
   fixed point, journal/resume, table persistence, and the forward
   cross-check.

   The deterministic systems below are engineered so quantization is
   LOSSLESS: 1-D plants with constant drifts that are integer multiples
   of the cell width, one integration sub-step per period (the step size
   is then exactly representable), and cell edges that are multiples of
   0.25 — every endpoint lands on a grid edge up to outward-rounding
   ulps, and the Picard enclosure of a constant derivative contracts on
   the first iterate.  The interval library rounds every operation
   outward, so "exact" values carry ulp-wide slack: endpoint enclosures
   overlap the neighbouring cell by a hair and flow boxes overrun their
   exact hull.  All spec bounds below are therefore placed OFF the grid
   (margins of 0.1-0.125, ten orders of magnitude above the slack) so
   every containment/intersection decision is rounding-robust; under
   that discipline the forward and backward oracles must agree exactly,
   which is what the qcheck property at the bottom exercises on random
   tiny systems. *)

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
module Reach = Nncs.Reach
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module Backreach = Nncs_backreach.Backreach
module Json = Nncs_obs.Json

let check = Alcotest.(check bool)

(* one exact integration sub-step per period; gamma large enough that
   the forward analysis never joins states (joins would break the
   forward/backward symmetry the lossless construction relies on) *)
let reach1 =
  { Reach.default_config with Reach.integration_steps = 1; gamma = 1000 }

let verify_config =
  {
    Verify.default_config with
    Verify.reach = reach1;
    strategy = Verify.All_dims [ 0 ];
    max_depth = 0;
  }

let linear_net rows biases =
  let n = Array.length rows in
  let layer =
    {
      Net.weights = Mat.init n 1 (fun i _ -> rows.(i));
      biases;
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:1 [| layer |]

let make_controller ?(pre_abs = Controller.identity_pre_abs) ~commands ~net ()
    =
  Controller.make ~period:0.5 ~commands ~networks:[| net |]
    ~select:(fun _ -> 0)
    ~pre:Controller.identity_pre ~pre_abs ~post:Controller.argmin_post
    ~post_abs:Controller.argmin_post_abs ()

let plant1 = Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |]

(* the homing loop of test_core: u = -1 above x=1, -0.5 below; all
   drifts negative, so only the cells already overlapping E are unsafe *)
let homing_commands = Command.make [| [| -1.0 |]; [| -0.5 |] |]
let homing_net () = linear_net [| -1.0; 1.0 |] [| 1.0; -1.0 |]

let homing_system ?(horizon = 20) () =
  System.make ~plant:plant1
    ~controller:
      (make_controller ~commands:homing_commands ~net:(homing_net ()) ())
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.1)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:horizon

let homing_config ?(workers = 1) () =
  {
    (Backreach.default_config
       ~domain:(B.of_bounds [| (0.0, 4.5) |])
       ~grid:[| 9 |])
    with
    Backreach.reach = reach1;
    workers;
  }

(* a single up-drift command: every state marches toward E = {x > 2},
   one cell per sweep — exercises k > 0 chains *)
let drift_commands = Command.make [| [| 0.5 |] |]

let drift_system () =
  System.make ~plant:plant1
    ~controller:
      (make_controller ~commands:drift_commands
         ~net:(linear_net [| 1.0 |] [| 0.0 |])
         ())
    ~erroneous:(Spec.coord_gt ~name:"err" ~dim:0 ~bound:2.0)
    ~target:(Spec.coord_lt ~name:"t" ~dim:0 ~bound:(-1.0))
    ~horizon_steps:20

let drift_config () =
  {
    (Backreach.default_config
       ~domain:(B.of_bounds [| (0.0, 2.5) |])
       ~grid:[| 5 |])
    with
    Backreach.reach = reach1;
  }

let with_temp_file f =
  let path = Filename.temp_file "backreach" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let q t lo hi cmd = Backreach.query t ~box:(B.of_bounds [| (lo, hi) |]) ~cmd

let check_k msg t lo hi cmd expect =
  match q t lo hi cmd with
  | Backreach.Unsafe { k } -> Alcotest.(check int) msg expect k
  | Backreach.Safe -> Alcotest.failf "%s: Safe, expected Unsafe k=%d" msg expect
  | Backreach.Out_of_domain ->
      Alcotest.failf "%s: Out_of_domain, expected Unsafe k=%d" msg expect

(* ----- table construction ----- *)

let test_homing_table () =
  let t = Backreach.build ~progress:(fun ~done_states:_ ~total:_ -> ())
      (homing_config ~workers:2 ()) (homing_system ())
  in
  Alcotest.(check int) "9 cells x 2 commands" 18 (Backreach.num_states t);
  (* only the E-overlapping cell is unsafe: every drift is negative *)
  Alcotest.(check int) "unsafe = last cell, both commands" 2
    (Backreach.num_unsafe t);
  Alcotest.(check int) "no backward chain" 0 (Backreach.sweeps t);
  Alcotest.(check int) "nothing firewalled" 0 (Backreach.failed_states t);
  check_k "inside E, fast" t 4.2 4.4 0 0;
  check_k "inside E, slow" t 4.2 4.4 1 0;
  check "mid-domain is safe" true (q t 1.0 2.0 0 = Backreach.Safe);
  check "safe under both commands" true (q t 0.1 3.9 1 = Backreach.Safe);
  check "beyond the domain" true (q t 5.0 6.0 0 = Backreach.Out_of_domain);
  check "straddling the domain edge" true
    (q t (-1.0) 0.1 0 = Backreach.Out_of_domain);
  check "invalid command" true (q t 1.0 2.0 7 = Backreach.Out_of_domain);
  check "dimension mismatch" true
    (Backreach.query t ~box:(B.of_bounds [| (1.0, 2.0); (0.0, 1.0) |]) ~cmd:0
    = Backreach.Out_of_domain)

let test_drift_chain () =
  let t = Backreach.build (drift_config ()) (drift_system ()) in
  Alcotest.(check int) "5 states" 5 (Backreach.num_states t);
  (* every cell reaches E: the contact cell and its one-period flow
     neighbour at k = 0, then one more cell per sweep *)
  Alcotest.(check int) "all unsafe" 5 (Backreach.num_unsafe t);
  Alcotest.(check int) "three sweeps" 3 (Backreach.sweeps t);
  check_k "cell 4 overlaps E" t 2.05 2.1 0 0;
  check_k "cell 3 touches E within one period" t 1.55 1.6 0 0;
  check_k "cell 2" t 1.05 1.1 0 1;
  check_k "cell 1" t 0.55 0.6 0 2;
  check_k "cell 0" t 0.05 0.1 0 3;
  check_k "a box spanning cells answers the min k" t 0.05 1.6 0 0

(* ----- journal + resume ----- *)

let test_journal_resume () =
  with_temp_file (fun path ->
      let cfg = drift_config () and sys = drift_system () in
      let t = Backreach.build ~journal:path cfg sys in
      (* the build journal is loadable and answers identically *)
      (match Backreach.load path with
      | Error e -> Alcotest.failf "load of build journal failed: %s" e
      | Ok t2 ->
          Alcotest.(check int) "journal round-trip: unsafe"
            (Backreach.num_unsafe t) (Backreach.num_unsafe t2);
          Alcotest.(check int) "journal round-trip: sweeps"
            (Backreach.sweeps t) (Backreach.sweeps t2);
          check_k "journal round-trip: k" t2 0.05 0.1 0 3);
      (* chop the tail: lose the fixed point and two transition records *)
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
      in
      let keep = List.filteri (fun i _ -> i < 4) lines in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) keep);
      (match Backreach.load path with
      | Ok _ -> Alcotest.fail "truncated build journal must not load"
      | Error e -> check "truncation reported" true (e <> ""));
      (* resume completes the table without recomputing journaled states *)
      let recomputed = ref 0 in
      let t3 =
        Backreach.build ~journal:path ~resume:true
          ~progress:(fun ~done_states:_ ~total:_ -> incr recomputed)
          cfg sys
      in
      Alcotest.(check int) "resume agrees" (Backreach.num_unsafe t)
        (Backreach.num_unsafe t3);
      check_k "resume: k chain intact" t3 0.05 0.1 0 3;
      (* progress counts every state, but the journal already held 3
         transition records: the resumed journal must not duplicate them *)
      let trans =
        List.filter
          (fun j ->
            match Json.member "t" j with
            | Some (Json.Str "trans") -> true
            | _ -> false)
          (Nncs_resilience.Journal.load path)
      in
      Alcotest.(check int) "no duplicated transition records" 5
        (List.length trans))

let test_resume_fingerprint_mismatch () =
  with_temp_file (fun path ->
      ignore (Backreach.build ~journal:path (drift_config ()) (drift_system ()));
      check "resume under a different system refuses" true
        (try
           ignore
             (Backreach.build ~journal:path ~resume:true (homing_config ())
                (homing_system ()));
           false
         with Invalid_argument _ -> true))

(* ----- compact table artifact ----- *)

(* Stored tables are keyed by the fingerprint: the hex and the table
   lines below were written by the code before the hash and box codec
   moved into [Nncs.Codec], and must keep loading and answering. *)
let pinned_table =
  [
    {|{"t":"backreach-meta","v":1,"fingerprint":"fac7bd014bdb4401","grid":[9],"domain":[[0,4.5]],"commands":2,"escape_unsafe":false,"states":18}|};
    {|{"t":"unsafe","cell":8,"cmd":0,"k":0,"box":[[4,4.5]]}|};
    {|{"t":"unsafe","cell":8,"cmd":1,"k":0,"box":[[4,4.5]]}|};
    {|{"t":"table-end","unsafe":2}|};
  ]

let test_fingerprint_pinned () =
  let fp = Backreach.fingerprint (homing_config ()) (homing_system ()) in
  Alcotest.(check string) "homing config" "fac7bd014bdb4401" fp;
  with_temp_file (fun path ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) pinned_table;
      close_out oc;
      match Backreach.load path with
      | Error e -> Alcotest.failf "stored table refused: %s" e
      | Ok t ->
          Alcotest.(check string) "stored fingerprint" fp
            (Backreach.table_fingerprint t);
          Alcotest.(check int) "unsafe states" 2 (Backreach.num_unsafe t);
          check_k "inside E" t 4.2 4.4 0 0;
          check "mid-domain is safe" true (q t 1.0 2.0 0 = Backreach.Safe))

let test_save_load_roundtrip () =
  with_temp_file (fun path ->
      let t = Backreach.build (drift_config ()) (drift_system ()) in
      Backreach.save_table t path;
      (match Backreach.load path with
      | Error e -> Alcotest.failf "table load failed: %s" e
      | Ok t2 ->
          Alcotest.(check int) "entries" (Backreach.num_unsafe t)
            (Backreach.num_unsafe t2);
          Alcotest.(check string) "fingerprint survives"
            (Backreach.table_fingerprint t)
            (Backreach.table_fingerprint t2);
          check_k "k survives" t2 0.55 0.6 0 2;
          check "safe stays safe" true
            (Backreach.query t2
               ~box:(B.of_bounds [| (0.0, 2.5) |])
               ~cmd:0
            <> Backreach.Out_of_domain));
      (* a torn table would silently answer Safe for lost entries: the
         trailer check must refuse it *)
      let contents = In_channel.with_open_text path In_channel.input_all in
      let cut = String.length contents - 60 in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 cut));
      match Backreach.load path with
      | Ok _ -> Alcotest.fail "torn table must not load"
      | Error e -> check "torn table reported" true (e <> ""))

(* ----- forward cross-check ----- *)

let forward_report ?(cmd = 0) ~config sys domain cells =
  let states =
    Partition.with_command cmd (Partition.grid domain ~cells:[| cells |])
  in
  Verify.verify_partition ~config sys states

let test_cross_check_agreement () =
  (* homing: forward proves 8 cells safe and reaches E from the last;
     the sound table must agree on every one *)
  let sys = homing_system () in
  let t = Backreach.build (homing_config ()) sys in
  let report =
    forward_report ~config:verify_config sys (B.of_bounds [| (0.0, 4.5) |]) 9
  in
  let cc = Backreach.check_forward t report in
  Alcotest.(check int) "no disagreements" 0 (List.length cc.Backreach.findings);
  Alcotest.(check int) "safe cells compared" 8 cc.Backreach.checked_safe;
  Alcotest.(check int) "unsafe cells compared" 1 cc.Backreach.checked_unsafe;
  Alcotest.(check int) "nothing skipped" 0 cc.Backreach.skipped;
  (* drift: forward reaches E from every cell; table members throughout *)
  let sys = drift_system () in
  let t = Backreach.build (drift_config ()) sys in
  let report =
    forward_report ~config:verify_config sys (B.of_bounds [| (0.0, 2.5) |]) 5
  in
  let cc = Backreach.check_forward t report in
  Alcotest.(check int) "drift: no disagreements" 0
    (List.length cc.Backreach.findings);
  Alcotest.(check int) "drift: all unsafe compared" 5 cc.Backreach.checked_unsafe

(* Two commands, up (+0.5) and down (-0.5); the honest network picks
   "up" on the whole domain, so every quantized state can reach
   E = {x > 2.1}.  The BROKEN controller abstraction evaluates the
   network on a constant point instead of Pre#(box) — it always answers
   "down", and the forward analysis happily proves every non-contact
   cell safe.  The cross-check against the honestly-built table must
   flag exactly those cells. *)
let broken_commands = Command.make [| [| 0.5 |]; [| -0.5 |] |]
let updown_net () = linear_net [| -1.0; 1.0 |] [| 0.0; 0.0 |]

let updown_system ~pre_abs () =
  System.make ~plant:plant1
    ~controller:
      (make_controller ~pre_abs ~commands:broken_commands ~net:(updown_net ())
         ())
    ~erroneous:(Spec.coord_gt ~name:"err" ~dim:0 ~bound:2.1)
    ~target:(Spec.coord_lt ~name:"t" ~dim:0 ~bound:(-1.0))
    ~horizon_steps:20

let updown_config () =
  {
    (Backreach.default_config
       ~domain:(B.of_bounds [| (0.0, 2.5) |])
       ~grid:[| 5 |])
    with
    Backreach.reach = reach1;
  }

let test_broken_transformer_flagged () =
  let sound = updown_system ~pre_abs:Controller.identity_pre_abs () in
  let broken =
    updown_system ~pre_abs:(fun _ -> B.of_point [| -1.0 |]) ()
  in
  let t = Backreach.build (updown_config ()) sound in
  (* sanity: sound forward agrees with the sound table (initial command
     "down" — under the honest abstraction the controller still climbs
     back up and reaches E from every cell) *)
  let sound_report =
    forward_report ~cmd:1 ~config:verify_config sound
      (B.of_bounds [| (0.0, 2.5) |])
      5
  in
  let cc = Backreach.check_forward t sound_report in
  Alcotest.(check int) "sound vs sound: no disagreements" 0
    (List.length cc.Backreach.findings);
  (* the broken abstraction proves cells 0-3 safe; the table knows every
     covering quantized state reaches E *)
  let broken_report =
    forward_report ~cmd:1 ~config:verify_config broken
      (B.of_bounds [| (0.0, 2.5) |])
      5
  in
  let cc = Backreach.check_forward t broken_report in
  Alcotest.(check int) "broken: four cells flagged" 4
    (List.length cc.Backreach.findings);
  List.iter
    (fun (f : Backreach.finding) ->
      (match f.Backreach.f_kind with
      | Backreach.Safe_in_backreach _ -> ()
      | Backreach.Unsafe_not_in_backreach _ ->
          Alcotest.fail "expected Safe_in_backreach findings");
      check "finding carries the forward command" true (f.Backreach.f_cmd = 1))
    cc.Backreach.findings;
  (* the finding JSON names the disagreement *)
  match cc.Backreach.findings with
  | f :: _ ->
      check "json tagged oracle_disagreement" true
        (Json.member "t" (Backreach.finding_to_json f)
        = Some (Json.Str "oracle_disagreement"))
  | [] -> Alcotest.fail "expected findings"

(* ----- qcheck: forward/backward agreement on random tiny systems ----- *)

(* Random lossless systems: n cells of width 0.25 on [0, n/4], one or
   two constant drifts that are integer multiples of the cell width,
   random affine scores.  Constraints keeping the construction sound and
   rounding-robust (see the header comment): spec thresholds sit at
   mid-cell offsets (k*cw - 0.125) so no containment test ever compares
   against a grid value; the E threshold is low enough that any state
   escaping the domain to the right is itself already in contact; and
   T > 0 so a left escape is fully inside the target.  The forward run
   uses a small gamma: states are cell boxes up to ulps, so the closest
   same-command pair is near-identical and Algorithm 2's joins stay
   lossless while bounding the branch-everywhere controllers the random
   scores occasionally produce.

   What is asserted.  The soundness theorem — a forward error-reaching
   cell is always in the table (no [Unsafe_not_in_backreach] finding) —
   must hold for EVERY generated system.  Exact agreement additionally
   holds when all drifts are strictly negative: then an endpoint
   enclosure never lands above its start cell, so the ±1-ulp phantom
   neighbours from outward rounding cannot climb.  With a zero or
   positive drift an endpoint edge sits exactly on the grid boundary
   below a higher cell, the ulp overlap covers it, and the backward
   closure conservatively gains up to one cell per sweep over the exact
   quantization — a forward-Safe cell next to the contact region is then
   legitimately (conservatively) flagged, so [Safe_in_backreach]
   findings are permitted for that subclass. *)
let reach_q = { reach1 with Reach.gamma = 32 }
let verify_config_q = { verify_config with Verify.reach = reach_q }

let prop_forward_backward_agree =
  QCheck.Test.make ~count:60 ~name:"forward/backward verdicts agree"
    QCheck.(
      quad (int_range 2 6)
        (list_of_size (Gen.int_range 1 2) (int_range (-2) 2))
        (pair (int_range 1 6) (int_range 1 6))
        (pair (int_range (-2) 2) (int_range (-2) 2)))
    (fun (n, drifts, (eb0, tb0), (w1, b1)) ->
      QCheck.assume (drifts <> []);
      let cw = 0.25 in
      let max_up =
        List.fold_left (fun a m -> if m > a then m else a) 0 drifts
      in
      QCheck.assume (n - max_up >= 1);
      (* the max 1 guards also hold the invariants against shrunk inputs
         that escape the generator's stated ranges *)
      let eb = max 1 (min eb0 (n - max_up)) in
      let tb = max 1 (min tb0 eb) in
      let ncmds = List.length drifts in
      let commands =
        Command.make
          (Array.of_list (List.map (fun m -> [| float_of_int m *. 0.5 |]) drifts))
      in
      (* scores: row 0 is w1*x + b1, row 1 (if present) its negation —
         boxes overlap on part of the domain, so Post# genuinely
         branches *)
      let rows =
        Array.init ncmds (fun i ->
            if i = 0 then float_of_int w1 else float_of_int (-w1))
      in
      let biases =
        Array.init ncmds (fun i ->
            if i = 0 then float_of_int b1 else float_of_int (-b1))
      in
      let sys =
        System.make ~plant:plant1
          ~controller:
            (make_controller ~commands ~net:(linear_net rows biases) ())
          ~erroneous:
            (Spec.coord_gt ~name:"err" ~dim:0
               ~bound:((float_of_int eb *. cw) -. 0.125))
          ~target:
            (Spec.coord_lt ~name:"t" ~dim:0
               ~bound:((float_of_int tb *. cw) -. 0.125))
          ~horizon_steps:(3 * n)
      in
      let domain = B.of_bounds [| (0.0, float_of_int n *. cw) |] in
      let cfg =
        {
          (Backreach.default_config ~domain ~grid:[| n |]) with
          Backreach.reach = reach1;
        }
      in
      let t = Backreach.build cfg sys in
      let report = forward_report ~config:verify_config_q sys domain n in
      let cc = Backreach.check_forward t report in
      let unsound =
        List.exists
          (fun (f : Backreach.finding) ->
            match f.Backreach.f_kind with
            | Backreach.Unsafe_not_in_backreach _ -> true
            | Backreach.Safe_in_backreach _ -> false)
          cc.Backreach.findings
      in
      let all_down = List.for_all (fun m -> m < 0) drifts in
      (not unsound)
      && ((not all_down) || cc.Backreach.findings = [])
      && cc.Backreach.checked_safe + cc.Backreach.checked_unsafe
         + cc.Backreach.skipped
         = n)

let () =
  Alcotest.run "backreach"
    [
      ( "table",
        [
          Alcotest.test_case "homing: contact only" `Quick test_homing_table;
          Alcotest.test_case "drift: k chain" `Quick test_drift_chain;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "journal + resume" `Quick test_journal_resume;
          Alcotest.test_case "resume fingerprint mismatch" `Quick
            test_resume_fingerprint_mismatch;
          Alcotest.test_case "table round-trip + torn tail" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "fingerprint and table pinned" `Quick
            test_fingerprint_pinned;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "sound analyses agree" `Quick
            test_cross_check_agreement;
          Alcotest.test_case "broken transformer flagged" `Quick
            test_broken_transformer_flagged;
          QCheck_alcotest.to_alcotest prop_forward_backward_agree;
        ] );
    ]
