module Clock = Nncs_obs.Clock

type verdict = Proved | Falsified of float array | Unknown

type config = {
  verify : Nncs.Verify.config;
  falsify : Falsify.config;
  metric : float array -> float;
}

type cell_result = {
  cell : Nncs.Symstate.t;
  verdict : verdict;
  proved_fraction : float;
  elapsed : float;
}

type report = {
  results : cell_result list;
  proved : int;
  falsified : int;
  unknown : int;
  elapsed : float;
}

let classify config sys cell =
  let t0 = Clock.monotonic_s () in
  let report = Nncs.Verify.verify_partition ~config:config.verify sys [ cell ] in
  let vr = List.hd report.Nncs.Verify.cells in
  let proved_fraction = vr.Nncs.Verify.proved_fraction in
  let verdict =
    if proved_fraction >= 1.0 -. 1e-12 then Proved
    else begin
      (* hunt for a concrete counterexample in the unproved leaves only
         (searching proved sub-cells would be wasted budget) *)
      let unproved =
        List.filter_map
          (fun (l : Nncs.Verify.leaf) ->
            if l.Nncs.Verify.proved then None else Some l.Nncs.Verify.state)
          vr.Nncs.Verify.leaves
      in
      let rec hunt = function
        | [] -> Unknown
        | leaf_cell :: rest -> (
            let fr =
              Falsify.falsify ~config:config.falsify sys ~cell:leaf_cell
                ~metric:config.metric
            in
            match fr.Falsify.witness with
            | Some (init, _) -> Falsified init
            | None -> hunt rest)
      in
      hunt unproved
    end
  in
  { cell; verdict; proved_fraction; elapsed = Clock.elapsed_s ~since:t0 }

let triage config sys cells =
  let t0 = Clock.monotonic_s () in
  let results = List.map (classify config sys) cells in
  let count p = List.length (List.filter p results) in
  {
    results;
    proved = count (fun r -> r.verdict = Proved);
    falsified =
      count (fun r -> match r.verdict with Falsified _ -> true | _ -> false);
    unknown = count (fun r -> r.verdict = Unknown);
    elapsed = Clock.elapsed_s ~since:t0;
  }
