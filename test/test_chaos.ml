(* Chaos soak of the serve layer: one resident server driven through
   several JSONL sessions whose request streams mix valid jobs,
   duplicate fingerprints and duplicate ids, cancels of queued / running
   / finished / unknown ids, fault-injected job crashes, garbage lines,
   blank lines, stats probes, and sessions that disconnect mid-stream
   (end of input without a shutdown request).

   The stream is generated from a seeded RNG ([CHAOS_SEED], default
   0xC0FFEE) so a failure reproduces; [CHAOS_OPS] scales the soak
   (default 240 request lines, floored at the 200 the harness asserts).

   Assertions are the race-free invariants of the protocol:
   - every session drains cleanly: all output lines parse as events,
     exactly one [bye], last, and the outcome matches how the input
     ended;
   - per (session, id): at most one terminal event per submitted
     incarnation, and at least one once the id was accepted;
   - every [verdict] — run, memo or coalesced — agrees exactly with a
     direct [Verify.verify_partition] of the same job spec, and the
     memoized report behind its fingerprint is leaf-for-leaf identical
     to the direct run. *)

module B = Nncs_interval.Box
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module T = Nncs_nnabs.Transformer
module E = Nncs_ode.Expr
module J = Nncs_obs.Json
module Fault = Nncs_resilience.Fault
module Command = Nncs.Command
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module P = Nncs_serve.Protocol
module Server = Nncs_serve.Server
module Backreach = Nncs_backreach.Backreach

let check = Alcotest.(check bool)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let seed = env_int "CHAOS_SEED" 0xC0FFEE
let total_ops = max 200 (env_int "CHAOS_OPS" 240)
let ops_per_session = 40

(* the homing loop of test_serve, the cheapest closed loop that still
   exercises the full pipeline *)

let homing_system () =
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
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()
  in
  System.make ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
    ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

let homing_cells arcs =
  Partition.with_command 0
    (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| arcs |])

(* the job-spec pool: distinct partitions, a memo opt-out that re-runs
   every time, and one spec on two worker domains *)
type spec = { s_arcs : int; s_use_memo : bool; s_workers : int }

let specs =
  [|
    { s_arcs = 1; s_use_memo = true; s_workers = 1 };
    { s_arcs = 2; s_use_memo = true; s_workers = 1 };
    { s_arcs = 3; s_use_memo = true; s_workers = 2 };
    { s_arcs = 4; s_use_memo = true; s_workers = 1 };
    { s_arcs = 2; s_use_memo = false; s_workers = 1 };
  |]

let spec_config s = { P.default_config with Verify.workers = s.s_workers }

let job_line ~id spec_idx =
  let s = specs.(spec_idx) in
  J.to_string
    (P.request_to_json
       (P.Job
          {
            P.id;
            cells = P.Partition { arcs = s.s_arcs; headings = 1; arc_indices = [] };
            domain = T.Symbolic;
            nn_splits = 0;
            config = spec_config s;
            use_memo = s.s_use_memo;
          }))

let cancel_line id =
  Printf.sprintf {|{"t":"cancel","id":%s}|} (J.to_string (J.Str id))

(* the backreach table behind the lookup fast path, over the same
   homing loop; probes mix in-table, safe, out-of-domain boxes and an
   out-of-range command *)
let chaos_table =
  lazy
    (Backreach.build
       {
         (Backreach.default_config
            ~domain:(B.of_bounds [| (0.0, 4.5) |])
            ~grid:[| 9 |])
         with
         Backreach.reach = { Nncs.Reach.default_config with keep_sets = false };
       }
       (homing_system ()))

let lookup_probes =
  [|
    ((4.25, 4.5), 0);
    ((4.25, 4.5), 1);
    ((0.05, 0.2), 0);
    ((1.0, 3.0), 1);
    ((9.0, 9.5), 0);
    ((1.0, 2.0), 7);
  |]

let expected_lookup_status probe_idx =
  let (lo, hi), cmd = lookup_probes.(probe_idx) in
  match
    Backreach.query (Lazy.force chaos_table)
      ~box:(B.of_bounds [| (lo, hi) |])
      ~cmd
  with
  | Backreach.Unsafe { k } -> P.Lookup_unsafe { k }
  | Backreach.Safe -> P.Lookup_safe
  | Backreach.Out_of_domain -> P.Lookup_out_of_domain

let lookup_line ~id probe_idx =
  let (lo, hi), cmd = lookup_probes.(probe_idx) in
  J.to_string
    (P.request_to_json
       (P.Lookup { id; box = B.of_bounds [| (lo, hi) |]; cmd }))

(* direct, unserved reference runs, one per spec *)
let direct_reports : (int, Verify.report) Hashtbl.t = Hashtbl.create 8

let direct_for spec_idx =
  match Hashtbl.find_opt direct_reports spec_idx with
  | Some r -> r
  | None ->
      let s = specs.(spec_idx) in
      let r =
        Verify.verify_partition ~config:(spec_config s) (homing_system ())
          (homing_cells s.s_arcs)
      in
      Hashtbl.add direct_reports spec_idx r;
      r

let leaf_verdicts (r : Verify.report) =
  List.map
    (fun (c : Verify.cell_report) ->
      ( c.Verify.index,
        List.map
          (fun (l : Verify.leaf) -> (l.Verify.depth, l.Verify.proved))
          c.Verify.leaves ))
    r.Verify.cells

(* ----- the generated script ----- *)

type op_line = {
  text : string;
  kind : [ `Job of string * int | `Lookup of string * int | `Other ];
}
(* [`Job (id, spec_idx)]: a well-formed job request line;
   [`Lookup (id, probe_idx)]: a backreach probe *)

type session_script = {
  lines : op_line list;
  clean_shutdown : bool;  (* shutdown request vs mid-stream disconnect *)
}

let garbage rng =
  match Random.State.int rng 4 with
  | 0 -> "this line is not JSON"
  | 1 -> {|{"t":"job"}|} (* valid JSON, invalid request *)
  | 2 ->
      String.init
        (16 + Random.State.int rng 48)
        (fun _ -> Char.chr (33 + Random.State.int rng 94))
  | _ -> {|{"t":"frobnicate","id":"zzz"}|}

let gen_session rng ~session ~ops ~boom_ids =
  let lines = ref [] in
  let submitted = ref [] in
  (* reusable (non-crashing) ids, newest first *)
  let fresh = ref 0 in
  let next_id () =
    incr fresh;
    Printf.sprintf "s%d-j%d" session !fresh
  in
  let push l = lines := l :: !lines in
  for _ = 1 to ops do
    let r = Random.State.int rng 100 in
    if r < 55 then begin
      let id = next_id () in
      let spec = Random.State.int rng (Array.length specs) in
      submitted := (id, spec) :: !submitted;
      push { text = job_line ~id spec; kind = `Job (id, spec) }
    end
    else if r < 62 then begin
      (* duplicate id, same spec as its original submission, so the id
         keeps a single spec whether it is rejected or re-run *)
      match !submitted with
      | [] -> push { text = {|{"t":"stats"}|}; kind = `Other }
      | subs ->
          let id, spec = List.nth subs (Random.State.int rng (List.length subs)) in
          push { text = job_line ~id spec; kind = `Job (id, spec) }
    end
    else if r < 70 then begin
      (* a fault-armed job: crashes inside the server's firewall.  Kept
         out of [submitted] so a duplicate never re-runs a one-shot id *)
      let id = Printf.sprintf "boom%d-%d" session !fresh in
      incr fresh;
      boom_ids := id :: !boom_ids;
      let spec = Random.State.int rng (Array.length specs) in
      push { text = job_line ~id spec; kind = `Job (id, spec) }
    end
    else if r < 85 then begin
      (* a cancel: usually of a known id (queued / running / finished,
         whatever the race picks), sometimes of an unknown one *)
      let id =
        if !submitted <> [] && Random.State.int rng 10 < 7 then
          fst
            (List.nth !submitted (Random.State.int rng (List.length !submitted)))
        else Printf.sprintf "nope%d" (Random.State.int rng 1000)
      in
      push { text = cancel_line id; kind = `Other }
    end
    else if r < 90 then push { text = garbage rng; kind = `Other }
    else if r < 94 then begin
      (* a backreach lookup, interleaved among the jobs: answered
         inline off the table, never entering the run path *)
      let id = Printf.sprintf "s%d-l%d" session !fresh in
      incr fresh;
      let probe = Random.State.int rng (Array.length lookup_probes) in
      push { text = lookup_line ~id probe; kind = `Lookup (id, probe) }
    end
    else if r < 97 then push { text = {|{"t":"stats"}|}; kind = `Other }
    else push { text = ""; kind = `Other }
  done;
  let clean_shutdown = Random.State.bool rng in
  let lines = List.rev !lines in
  let lines =
    if clean_shutdown then
      lines @ [ { text = {|{"t":"shutdown"}|}; kind = `Other } ]
    else lines
  in
  { lines; clean_shutdown }

(* ----- one session through the server ----- *)

let run_script server script =
  let in_path = Filename.temp_file "nncs_chaos_in" ".jsonl" in
  let out_path = Filename.temp_file "nncs_chaos_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ in_path; out_path ])
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc (l.text ^ "\n")) script.lines;
      close_out oc;
      let ic = open_in in_path and oc = open_out out_path in
      let outcome = Server.run server ic oc in
      close_in ic;
      close_out oc;
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

let check_session server ~session script outcome events =
  let ctx fmt =
    Printf.ksprintf (fun s -> Printf.sprintf "session %d: %s" session s) fmt
  in
  check
    (ctx "outcome matches how the input ended")
    true
    (outcome = if script.clean_shutdown then `Shutdown else `Eof);
  (match List.rev events with
  | P.Bye :: rest ->
      check (ctx "exactly one bye") true
        (not (List.exists (function P.Bye -> true | _ -> false) rest))
  | _ -> Alcotest.fail (ctx "bye must be the last event"));
  (* per-id accounting: how many times each id was submitted, and which
     spec it stands for (first submission wins; duplicates reuse it) *)
  let submissions : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let id_spec : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun l ->
      match l.kind with
      | `Job (id, spec) ->
          Hashtbl.replace submissions id
            (1 + Option.value ~default:0 (Hashtbl.find_opt submissions id));
          if not (Hashtbl.mem id_spec id) then Hashtbl.add id_spec id spec
      | `Lookup _ | `Other -> ())
    script.lines;
  let count pred = List.length (List.filter pred events) in
  (* every lookup: exactly one [lookup_result], carrying exactly the
     status a direct [Backreach.query] of the same probe answers, and
     never any job event — the fast path must not enter the run path *)
  List.iter
    (fun l ->
      match l.kind with
      | `Lookup (id, probe) ->
          let replies =
            List.filter_map
              (function
                | P.Lookup_result { id = i; status } when i = id -> Some status
                | _ -> None)
              events
          in
          check
            (ctx "lookup %s: exactly one reply" id)
            true
            (List.length replies = 1);
          check
            (ctx "lookup %s: reply matches a direct table query" id)
            true
            (replies = [ expected_lookup_status probe ]);
          check
            (ctx "lookup %s: never accepted as a job" id)
            true
            (count (function P.Accepted { id = i; _ } -> i = id | _ -> false)
            = 0)
      | `Job _ | `Other -> ())
    script.lines;
  Hashtbl.iter
    (fun id n_submitted ->
      let terminals =
        count (function
          | P.Verdict { id = i; _ }
          | P.Cancelled { id = i; _ }
          | P.Job_error { id = i; _ } ->
              i = id
          | _ -> false)
      in
      let accepted =
        count (function P.Accepted { id = i; _ } -> i = id | _ -> false)
      in
      check
        (ctx "id %s: at most one terminal per incarnation (%d <= %d)" id
           terminals n_submitted)
        true (terminals <= n_submitted);
      check
        (ctx "id %s: accepted implies a terminal" id)
        true
        (accepted = 0 || terminals >= 1))
    submissions;
  (* every verdict — whatever its source — agrees exactly with the
     direct run of its spec, and so does the memoized report behind its
     fingerprint *)
  List.iter
    (function
      | P.Verdict
          {
            id;
            fingerprint;
            coverage;
            proved_cells;
            unknown_cells;
            total_cells;
            _;
          } -> (
          let spec_idx =
            match Hashtbl.find_opt id_spec id with
            | Some s -> s
            | None -> Alcotest.fail (ctx "verdict for an unsubmitted id %s" id)
          in
          let direct = direct_for spec_idx in
          check
            (ctx "verdict %s: coverage matches the direct run" id)
            true
            (coverage = direct.Verify.coverage);
          check
            (ctx "verdict %s: cell counts match the direct run" id)
            true
            (proved_cells = direct.Verify.proved_cells
            && unknown_cells = direct.Verify.unknown_cells
            && total_cells = direct.Verify.total_cells);
          match Server.lookup server fingerprint with
          | None ->
              Alcotest.fail
                (ctx "verdict %s: fingerprint %s not memoized" id fingerprint)
          | Some stored ->
              check
                (ctx "verdict %s: memoized leaves = direct leaves" id)
                true
                (leaf_verdicts stored = leaf_verdicts direct))
      | _ -> ())
    events

let test_chaos () =
  Fun.protect ~finally:Fault.reset (fun () ->
      let rng = Random.State.make [| seed |] in
      let sessions = (total_ops + ops_per_session - 1) / ops_per_session in
      let boom_ids = ref [] in
      let scripts =
        List.init sessions (fun i ->
            gen_session rng ~session:i ~ops:ops_per_session ~boom_ids)
      in
      List.iter
        (fun id ->
          Fault.arm ~site:"serve.job" ~key:id (fun () ->
              Failure ("chaos crash " ^ id)))
        !boom_ids;
      let op_count = List.fold_left (fun n s -> n + List.length s.lines) 0 scripts in
      check "soak covers at least 200 request lines" true (op_count >= 200);
      let server =
        Server.create
          {
            Server.default_config with
            Server.dispatchers = 3;
            backreach = Some (Lazy.force chaos_table);
          }
          ~make_system:(fun ~domain:_ ~nn_splits:_ -> homing_system ())
          ~make_cells:(fun ~arcs ~headings:_ ~arc_indices:_ -> homing_cells arcs)
      in
      Fun.protect
        ~finally:(fun () -> Server.close server)
        (fun () ->
          List.iteri
            (fun i script ->
              let outcome, events = run_script server script in
              check_session server ~session:i script outcome events)
            scripts))

let () =
  Alcotest.run "chaos"
    [ ("serve", [ Alcotest.test_case "chaos soak" `Quick test_chaos ]) ]
