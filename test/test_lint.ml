(* Self-tests for the nncs_lint static analyzer: one fixture per rule
   family, suppression coverage, scope rules, shadowing, [Driver.run]
   over a directory and the repo gate.  Fixtures are real .ml files under
   lint_fixtures/ but are linted under fake repo paths so the scope
   logic (R1 only in soundness-critical dirs, R3 only under lib/) is
   exercised. *)

module L = Nncs_lint
module F = L.Finding

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_fixture name = read_file (Filename.concat "lint_fixtures" name)

(* lint fixture [name] as if it lived at [path] in the repo *)
let lint_as name path = L.Driver.lint_source ~path (read_fixture name)

let rule_counts findings =
  List.fold_left
    (fun acc f ->
      let id = F.rule_id f.F.rule in
      let cur = try List.assoc id acc with Not_found -> 0 in
      (id, cur + 1) :: List.remove_assoc id acc)
    [] findings
  |> List.sort compare

let check_counts msg expected findings =
  Alcotest.(check (list (pair string int))) msg expected (rule_counts findings)

let bindings_of rule findings =
  List.filter_map
    (fun f -> if f.F.rule = rule then Some f.F.binding else None)
    findings
  |> List.sort_uniq compare

(* ----- rule families ----- *)

let test_r1 () =
  let fs = lint_as "r1_bare_float.ml" "lib/interval/r1_bare_float.ml" in
  check_counts "r1 fixture" [ ("r1-bare-float", 4) ] fs;
  Alcotest.(check (list string))
    "flagged bindings"
    [ "float_module"; "libm_call"; "widen" ]
    (bindings_of F.R1_bare_float fs);
  List.iter
    (fun f ->
      Alcotest.(check string) "severity" "P1" (F.severity_id (F.severity f.F.rule)))
    fs

let test_r1_scope () =
  (* the same file outside the soundness-critical dirs yields nothing *)
  let fs = lint_as "r1_bare_float.ml" "lib/obs/r1_bare_float.ml" in
  check_counts "r1 out of scope" [] fs

let test_r1_shadowing () =
  let fs = lint_as "r1_bare_float.ml" "lib/interval/r1_bare_float.ml" in
  Alcotest.(check bool)
    "locally-defined cos is not libm" false
    (List.exists (fun f -> f.F.binding = "uses_local_cos") fs)

let test_r2 () =
  let fs = lint_as "r2_float_compare.ml" "bin/r2_float_compare.ml" in
  check_counts "r2 fixture" [ ("r2-float-compare", 4) ] fs;
  List.iter
    (fun f ->
      Alcotest.(check string) "severity" "P2" (F.severity_id (F.severity f.F.rule)))
    fs

let test_r3 () =
  let fs = lint_as "r3_mutable.ml" "lib/obs/r3_mutable.ml" in
  check_counts "r3 fixture"
    [ ("r3-mutex-unsafe", 1); ("r3-top-mutable", 2) ]
    fs;
  Alcotest.(check (list string))
    "mutable bindings" [ "bad_cache"; "bad_table" ]
    (bindings_of F.R3_top_mutable fs);
  Alcotest.(check (list string))
    "unsafe lock in" [ "bad_section" ]
    (bindings_of F.R3_mutex_unsafe fs)

let test_r4 () =
  let fs = lint_as "r4_poly_compare.ml" "bin/r4_poly_compare.ml" in
  check_counts "r4 fixture" [ ("r4-poly-compare", 3) ] fs

let test_r5_guarded () =
  let fs = lint_as "r5_guarded.ml" "lib/serve/r5_guarded.ml" in
  check_counts "r5 guarded" [ ("r5-guarded-by", 1) ] fs;
  Alcotest.(check (list string))
    "only the unlocked access" [ "bad_peek" ]
    (bindings_of F.R5_guarded_by fs);
  List.iter
    (fun f ->
      Alcotest.(check string) "severity" "P1" (F.severity_id (F.severity f.F.rule)))
    fs

let test_r5_lock_order () =
  let fs = lint_as "r5_lock_order.ml" "lib/serve/r5_lock_order.ml" in
  check_counts "r5 lock order" [ ("r5-lock-order", 1) ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "P1" "P1" (F.severity_id (F.severity f.F.rule));
  Alcotest.(check bool)
    "cycle key names both locks" true
    (String.starts_with ~prefix:"cycle:" f.F.detail
    && String.length f.F.detail > String.length "cycle:")

let test_r6 () =
  let fs = lint_as "r6_atomic.ml" "lib/serve/r6_atomic.ml" in
  check_counts "r6 fixture"
    [
      ("r6-atomic-publish", 1); ("r6-atomic-rmw", 1); ("r6-faa-discard", 1);
    ]
    fs;
  Alcotest.(check (list string))
    "lost update flagged in" [ "bad_bump" ]
    (bindings_of F.R6_atomic_rmw fs);
  let sev rule =
    List.find_map
      (fun f ->
        if f.F.rule = rule then Some (F.severity_id (F.severity f.F.rule))
        else None)
      fs
  in
  Alcotest.(check (option string)) "rmw is P1" (Some "P1") (sev F.R6_atomic_rmw);
  Alcotest.(check (option string))
    "publish is P2" (Some "P2") (sev F.R6_atomic_publish)

let test_conc_scope () =
  (* the same hazards outside lib/ and bin/ are out of concurrency
     scope *)
  let fs = lint_as "r6_atomic.ml" "tools/r6_atomic.ml" in
  check_counts "r6 out of scope" [] fs

let test_suppression () =
  let fs = lint_as "suppressed.ml" "lib/interval/suppressed.ml" in
  check_counts "all suppressed" [] fs

let test_floating_allow () =
  (* a floating [@@@lint.allow "r1 ..."] waives R1 from its line to the
     end of the file, and nothing else: the whole-file waiver *)
  let source =
    "let before x = x +. 1.0\n\
     [@@@lint.allow \"r1 test: the rest of the file bounds its own rounding\"]\n\
     let after x = x +. 1.0\n\
     let same x = x = 0.5\n\
     let counter = ref 0\n"
  in
  let fs = L.Driver.lint_source ~path:"lib/core/waived.ml" source in
  check_counts "R1 before the waiver, R2 and R3 after it"
    [ ("r1-bare-float", 1); ("r2-float-compare", 1); ("r3-top-mutable", 1) ]
    fs;
  Alcotest.(check (list string))
    "R1 only before the waiver" [ "before" ]
    (bindings_of F.R1_bare_float fs)

let test_conc_suppression () =
  (* [@lint.allow "r6..."] and family prefixes silence the new rules *)
  let source =
    "let c = Atomic.make 0\n\
     let bump () = (Atomic.set c (Atomic.get c + 1))\n\
     [@@lint.allow \"r6-atomic-rmw test: single-writer protocol\"]\n"
  in
  let fs = L.Driver.lint_source ~path:"lib/serve/allow_rmw.ml" source in
  check_counts "rmw allowed" [] fs

let test_parse_failure () =
  let fs = L.Driver.lint_source ~path:"lib/core/broken.ml" "let let = in" in
  check_counts "parse failure" [ ("parse-failure", 1) ] fs

let test_type_failure () =
  (* well-formed syntax that does not typecheck is a P1 type-failure,
     not a silent skip *)
  let fs =
    L.Driver.lint_source ~path:"lib/core/untyped.ml" "let f x = x + 0.5\n"
  in
  check_counts "type failure" [ ("type-failure", 1) ] fs

(* ----- acceptance criterion: a deliberately-introduced bare [+.] in
   lib/interval is flagged as a P1 ----- *)

let test_deliberate_regression () =
  let source = "let widen_ulp iv = Interval.hi iv +. 1e-9\n" in
  let fs = L.Driver.lint_source ~path:"lib/interval/patch.ml" source in
  check_counts "bare +. flagged" [ ("r1-bare-float", 1) ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "P1" "P1" (F.severity_id (F.severity f.F.rule));
  Alcotest.(check string) "op" "+." f.F.detail;
  Alcotest.(check (pair string int))
    "at the patched line" ("lib/interval/patch.ml", 1) (f.F.file, f.F.line)

(* ----- Driver.run over a directory ----- *)

let test_run_over_directory () =
  (* [run] on a directory lints every .ml under it, in name order, as
     one tree: exactly what [lint_sources] gives for the same files *)
  let fixtures =
    Sys.readdir "lint_fixtures" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort compare
    |> List.map (Filename.concat "lint_fixtures")
  in
  let r = L.Driver.run [ "lint_fixtures" ] in
  Alcotest.(check (list string)) "every fixture covered" fixtures r.L.Driver.files;
  Alcotest.(check (list string))
    "same findings as the sources linted as one tree"
    (List.map F.to_string
       (L.Driver.lint_sources (List.map (fun f -> (f, read_file f)) fixtures)))
    (List.map F.to_string r.L.Driver.findings)

(* ----- the real tree: the linter gate itself ----- *)

let test_repo_is_clean () =
  (* the test runs from _build/default/test, so the copied sources sit
     at ../lib and ../bin; lint them as ONE tree under their
     repo-relative names so scope rules and the cross-module analyses
     (guard declarations, lock-order graph) apply exactly as in CI.
     Skip silently if the layout is unexpected (e.g. installed
     tests). *)
  let roots =
    List.filter
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ Filename.concat ".." "lib"; Filename.concat ".." "bin" ]
  in
  if roots <> [] then begin
    let files = L.Driver.collect_ml_files roots in
    let sources =
      List.map
        (fun file ->
          (* drop "../" *)
          (String.sub file 3 (String.length file - 3), read_file file))
        files
    in
    let fs = L.Driver.lint_sources sources in
    (* nncs_lint fails on any finding: every rule family (R1-R6) must
       come back clean, not just the P1 subset *)
    Alcotest.(check (list string))
      "no findings in lib/ and bin/" []
      (List.map F.to_string fs)
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "r1 bare float" `Quick test_r1;
          Alcotest.test_case "r1 scope" `Quick test_r1_scope;
          Alcotest.test_case "r1 shadowing" `Quick test_r1_shadowing;
          Alcotest.test_case "r2 float compare" `Quick test_r2;
          Alcotest.test_case "r3 mutable + mutex" `Quick test_r3;
          Alcotest.test_case "r4 poly compare" `Quick test_r4;
          Alcotest.test_case "r5 guarded by" `Quick test_r5_guarded;
          Alcotest.test_case "r5 lock order" `Quick test_r5_lock_order;
          Alcotest.test_case "r6 atomic protocols" `Quick test_r6;
          Alcotest.test_case "concurrency scope" `Quick test_conc_scope;
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "floating allow" `Quick test_floating_allow;
          Alcotest.test_case "concurrency suppression" `Quick
            test_conc_suppression;
          Alcotest.test_case "parse failure" `Quick test_parse_failure;
          Alcotest.test_case "type failure" `Quick test_type_failure;
        ] );
      ( "driver",
        [
          Alcotest.test_case "run over a directory" `Quick
            test_run_over_directory;
        ] );
      ( "gate",
        [
          Alcotest.test_case "deliberate regression" `Quick
            test_deliberate_regression;
          Alcotest.test_case "repo lib/ and bin/ are clean" `Quick
            test_repo_is_clean;
        ] );
    ]
