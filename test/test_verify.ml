(* Verify-driver parallelism and the observability subsystem: the
   parallel partition run must agree bit-for-bit with the serial one and
   report live progress; spans must nest (self time excludes children),
   counters must merge across domains, and a trace must survive a JSONL
   round-trip. *)

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
module Partition = Nncs.Partition
module Json = Nncs_obs.Json
module Metrics = Nncs_obs.Metrics
module Trace = Nncs_obs.Trace
module Span = Nncs_obs.Span

let check = Alcotest.(check bool)

(* the "homing" loop of test_core: x' = u, argmin picks -1 above x = 1 *)

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

let config workers =
  { Verify.default_config with strategy = Verify.All_dims [ 0 ]; workers }

(* ----- parallel path agrees with serial ----- *)

let test_parallel_identical () =
  let sys = homing_system () in
  let cells = grid 8 in
  let serial = Verify.verify_partition ~config:(config 1) sys cells in
  let parallel = Verify.verify_partition ~config:(config 4) sys cells in
  Alcotest.(check (float 0.0))
    "identical coverage" serial.Verify.coverage parallel.Verify.coverage;
  Alcotest.(check int)
    "identical proved_cells" serial.Verify.proved_cells
    parallel.Verify.proved_cells;
  Alcotest.(check int)
    "identical total_cells" serial.Verify.total_cells
    parallel.Verify.total_cells;
  (* reports come back in input order with matching per-cell verdicts *)
  List.iter2
    (fun (a : Verify.cell_report) (b : Verify.cell_report) ->
      Alcotest.(check int) "cell index" a.Verify.index b.Verify.index;
      Alcotest.(check (float 0.0))
        "cell proved_fraction" a.Verify.proved_fraction b.Verify.proved_fraction)
    serial.Verify.cells parallel.Verify.cells

let test_parallel_progress_live () =
  let sys = homing_system () in
  let cells = grid 8 in
  let seen = ref [] in
  let mutex = Mutex.create () in
  let progress d t =
    Mutex.lock mutex;
    seen := (d, t) :: !seen;
    Mutex.unlock mutex
  in
  ignore (Verify.verify_partition ~config:(config 4) ~progress sys cells);
  let total = List.length cells in
  Alcotest.(check int) "one callback per cell" total (List.length !seen);
  check "every total is the cell count" true
    (List.for_all (fun (_, t) -> t = total) !seen);
  (* the atomic counter hands each invocation a distinct 1..total value *)
  Alcotest.(check (list int))
    "distinct live counts"
    (List.init total (fun i -> i + 1))
    (List.sort compare (List.map fst !seen))

let test_parallel_poisoned_cell () =
  (* a worker raising mid-cell must not disturb its siblings: the
     parallel run with one poisoned cell agrees with the clean serial
     run everywhere else, and the poisoned cell degrades to Unknown *)
  let sys = homing_system () in
  let cells = grid 8 in
  let baseline = Verify.verify_partition ~config:(config 1) sys cells in
  Fun.protect ~finally:Nncs_resilience.Fault.reset (fun () ->
      Nncs_resilience.Fault.arm ~site:"verify.leaf" ~key:"3" (fun () ->
          Stdlib.Failure "boom");
      let poisoned = Verify.verify_partition ~config:(config 4) sys cells in
      Alcotest.(check int)
        "one unknown cell" 1 poisoned.Verify.unknown_cells;
      List.iter2
        (fun (a : Verify.cell_report) (b : Verify.cell_report) ->
          Alcotest.(check int) "cell order" a.Verify.index b.Verify.index;
          if b.Verify.index = 3 then
            check "poisoned cell is Worker_crashed" true
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

(* ----- obs: span nesting ----- *)

let test_span_nesting () =
  Trace.enable ();
  let outer = Span.enter ~attrs:[ ("k", Trace.Int 1) ] "outer" in
  let inner = Span.enter "inner" in
  Unix.sleepf 0.01;
  Span.exit inner;
  Span.exit ~attrs:[ ("done", Trace.Bool true) ] outer;
  Trace.disable ();
  let events = Trace.events () in
  let find name = List.find (fun e -> e.Trace.name = name) events in
  let o = find "outer" and i = find "inner" in
  Alcotest.(check int) "outer depth" 0 o.Trace.depth;
  Alcotest.(check int) "inner depth" 1 i.Trace.depth;
  check "child within parent" true
    (i.Trace.ts >= o.Trace.ts
    && i.Trace.ts +. i.Trace.dur <= o.Trace.ts +. o.Trace.dur +. 1e-9);
  check "outer self excludes child" true
    (o.Trace.self <= o.Trace.dur -. i.Trace.dur +. 1e-9);
  check "exit attrs appended" true
    (List.mem_assoc "done" o.Trace.attrs && List.mem_assoc "k" o.Trace.attrs);
  check "disabled spans are free" true
    (Span.enter "ignored" == Span.null);
  Trace.clear ()

let test_span_exception_safe () =
  Trace.enable ();
  (try Span.with_ "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.disable ();
  check "span closed on raise" true
    (List.exists (fun e -> e.Trace.name = "raising") (Trace.events ()));
  Trace.clear ()

(* ----- obs: counters and spans merge across domains ----- *)

let test_domain_merge () =
  let c = Metrics.counter "test.domain_merge" in
  let h = Metrics.histogram "test.domain_merge_hist" in
  Trace.enable ();
  let work w () =
    Span.with_ "worker-span" ~attrs:[ ("w", Trace.Int w) ] (fun () ->
        for _ = 1 to 1000 do
          Metrics.incr c
        done;
        Metrics.observe h (float_of_int w))
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 2) in
  Domain.join d1;
  Domain.join d2;
  Trace.disable ();
  Alcotest.(check int) "counter merged" 2000 (Metrics.value c);
  let stats = Metrics.hist_value h in
  Alcotest.(check int) "hist count" 2 stats.Metrics.count;
  Alcotest.(check (float 1e-9)) "hist sum" 3.0 stats.Metrics.sum;
  let spans =
    List.filter (fun e -> e.Trace.name = "worker-span") (Trace.events ())
  in
  Alcotest.(check int) "both domains' spans merged" 2 (List.length spans);
  check "distinct domain ids" true
    (match spans with
    | [ a; b ] -> a.Trace.dom <> b.Trace.dom
    | _ -> false);
  Trace.clear ()

(* ----- obs: JSONL round-trip ----- *)

let test_jsonl_roundtrip () =
  Trace.enable ();
  Span.with_ "alpha" ~attrs:[ ("n", Trace.Int 3); ("tag", Trace.Str "x\"y") ]
    (fun () -> Span.with_ "beta" (fun () -> ()));
  Trace.disable ();
  let path = Filename.temp_file "nncs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_file ~extra:(Metrics.jsonl_lines ()) path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed = List.rev_map Json.of_string !lines in
      check "meta line present" true
        (List.exists (fun j -> Json.member "t" j = Some (Json.Str "meta")) parsed);
      let spans =
        List.filter_map
          (fun j ->
            if Json.member "t" j = Some (Json.Str "span") then
              Some (Trace.event_of_json j)
            else None)
          parsed
      in
      let originals = Trace.events () in
      Alcotest.(check int)
        "all span events written" (List.length originals) (List.length spans);
      List.iter2
        (fun (a : Trace.event) (b : Trace.event) ->
          Alcotest.(check string) "name" a.Trace.name b.Trace.name;
          Alcotest.(check int) "depth" a.Trace.depth b.Trace.depth;
          check "ts round-trips" true (Float.abs (a.Trace.ts -. b.Trace.ts) < 1e-12);
          check "attrs round-trip" true (a.Trace.attrs = b.Trace.attrs))
        (List.sort compare originals)
        (List.sort compare spans));
  Trace.clear ()

let test_json_values () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\\\"\n\t");
        ("n", Json.Num 1.5);
        ("i", Json.Num 42.0);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj [ ("k", Json.Num (-3.0)) ]);
      ]
  in
  check "print/parse round-trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check int) "ints stay integral" 42
    (Json.to_int (Option.get (Json.member "i" (Json.of_string (Json.to_string v)))));
  check "rejects garbage" true
    (try
       ignore (Json.of_string "{\"a\": }");
       false
     with Json.Parse_error _ -> true);
  check "rejects trailing" true
    (try
       ignore (Json.of_string "1 2");
       false
     with Json.Parse_error _ -> true)

let () =
  Alcotest.run "verify+obs"
    [
      ( "verify",
        [
          Alcotest.test_case "parallel identical to serial" `Quick
            test_parallel_identical;
          Alcotest.test_case "live progress with workers" `Quick
            test_parallel_progress_live;
          Alcotest.test_case "poisoned cell isolated in parallel" `Quick
            test_parallel_poisoned_cell;
        ] );
      ( "obs",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span closed on raise" `Quick
            test_span_exception_safe;
          Alcotest.test_case "cross-domain merge" `Quick test_domain_merge;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "json printer/parser" `Quick test_json_values;
        ] );
    ]
