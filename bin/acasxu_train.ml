(* Command-line trainer: builds the lookup-table policy by dynamic
   programming and clones it into the 5 per-advisory ReLU networks,
   caching everything under the data directory. *)

module T = Nncs_acasxu.Training
module P = Nncs_acasxu.Policy
module D = Nncs_acasxu.Defs

let run dir hidden samples epochs seed force quiet =
  if force then
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (T.policy_path ~dir
      :: List.init 5 (fun prev -> T.network_path ~dir ~prev));
  let spec = { T.default_spec with hidden; samples; epochs; seed } in
  let t0 = Nncs_obs.Clock.monotonic_s () in
  let policy, networks = T.load_or_train ~spec ~dir () in
  if not quiet then begin
    Printf.printf "policy + networks ready in %.1f s (dir: %s)\n"
      (Nncs_obs.Clock.elapsed_s ~since:t0)
      dir;
    Array.iteri
      (fun prev net ->
        (* report argmin agreement on a fresh validation sample *)
        let rng = Nncs_linalg.Rng.create (9000 + prev) in
        let data = T.build_dataset ~rng policy ~prev ~n:4000 in
        Printf.printf "  %-3s %s  argmin agreement %.3f\n"
          (D.name (D.of_index prev))
          (Format.asprintf "%a" Nncs_nn.Network.pp_summary net)
          (Nncs_nn.Dataset.classification_accuracy net data))
      networks
  end;
  0

open Cmdliner

let dir =
  Arg.(value & opt string "data" & info [ "dir" ] ~doc:"Cache directory.")

let hidden =
  Arg.(
    value
    & opt (list int) T.default_spec.T.hidden
    & info [ "hidden" ] ~doc:"Hidden layer sizes (comma separated).")

let samples =
  Arg.(
    value
    & opt int T.default_spec.T.samples
    & info [ "samples" ] ~doc:"Training samples per network.")

let epochs =
  Arg.(value & opt int T.default_spec.T.epochs & info [ "epochs" ] ~doc:"Epochs.")

let seed = Arg.(value & opt int T.default_spec.T.seed & info [ "seed" ] ~doc:"Seed.")

let force =
  Arg.(value & flag & info [ "force" ] ~doc:"Retrain even if cached files exist.")

let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No report.")

let cmd =
  Cmd.v
    (Cmd.info "acasxu_train" ~doc:"Train the ACAS Xu controller networks")
    Term.(const run $ dir $ hidden $ samples $ epochs $ seed $ force $ quiet)

let () = exit (Cmd.eval' cmd)
