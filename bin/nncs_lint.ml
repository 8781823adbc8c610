(* nncs_lint — the repo's soundness & concurrency static analysis.

   Usage:
     nncs_lint [PATHS...]              lint (default: lib bin)
     nncs_lint --json report.jsonl     also write one JSON line per
                                       finding, then a summary line
     nncs_lint --quiet                 only print the summary

   A finding is accepted only in the source, by an attribute that gives
   its reason ([@lint.allow "rule reason"], [@lint.fp_exact "reason"],
   [@@lint.guarded_by "lock"]).

   Exit codes: 0 no findings; 1 any finding, P1 or P2; 2 usage or I/O
   error.

   The linter typechecks every file against the cmis under _build, so
   run `dune build` before linting a fresh checkout. *)

module L = Nncs_lint
module Json = Nncs_obs.Json

let usage = "nncs_lint [--json FILE] [--quiet] [paths]  (default paths: lib bin)"

let () =
  let json_path = ref "" in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--json",
        Arg.Set_string json_path,
        "FILE write a JSONL report (findings + summary)" );
      ("--quiet", Arg.Set quiet, " only print the summary");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let roots = if !paths = [] then [ "lib"; "bin" ] else List.rev !paths in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "nncs_lint: no such path %s (run from the repo root)\n"
          r;
        exit 2
      end)
    roots;
  let t0 = Nncs_obs.Clock.monotonic_s () in
  let run = L.Driver.run roots in
  let wall_s = Nncs_obs.Clock.monotonic_s () -. t0 in
  let findings = run.L.Driver.findings in
  let count sev =
    List.length
      (List.filter (fun f -> L.Finding.severity f.L.Finding.rule = sev) findings)
  in
  let p1 = count L.Finding.P1 and p2 = count L.Finding.P2 in
  let files = List.length run.L.Driver.files in
  if not !quiet then
    List.iter (fun f -> print_endline (L.Finding.to_string f)) findings;
  if !json_path <> "" then
    Out_channel.with_open_text !json_path (fun oc ->
        let line j =
          output_string oc (Json.to_string j);
          output_char oc '\n'
        in
        List.iter (fun f -> line (L.Finding.to_json f)) findings;
        line
          (Json.Obj
             [
               ("t", Json.Str "summary");
               ("tool", Json.Str "nncs_lint");
               ("p1", Json.Num (float_of_int p1));
               ("p2", Json.Num (float_of_int p2));
               ("total", Json.Num (float_of_int (List.length findings)));
               ("files", Json.Num (float_of_int files));
               ("wall_s", Json.Num wall_s);
             ]));
  Printf.printf "nncs_lint: %d findings (%d P1, %d P2) in %.2fs over %d files\n"
    (List.length findings) p1 p2 wall_s files;
  if findings <> [] then exit 1
