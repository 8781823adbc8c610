[@@@lint.allow
  "r1 robustness radii are diagnostics (search heuristics), not \
   enclosure bounds"]

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Net = Nncs_nn.Network

type decision = Argmin | Argmax
type verdict = Robust | Counterexample of float array | Unknown

let classify decision scores =
  let better =
    match decision with
    | Argmin -> ( < ) (* strict: ties resolve to the smaller index *)
    | Argmax -> ( > )
  in
  let best = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if better scores.(i) scores.(!best) then best := i
  done;
  !best

(* can any point of the output box change the decision away from [label]? *)
let decided decision label out =
  let p = B.dim out in
  let stable = ref true in
  for j = 0 to p - 1 do
    if j <> label then begin
      let challenger_wins =
        match decision with
        | Argmin ->
            (* j could beat label if j's lower bound does not exceed
               label's upper bound *)
            I.lo (B.get out j) <= I.hi (B.get out label)
        | Argmax -> I.hi (B.get out j) >= I.lo (B.get out label)
      in
      if challenger_wins then stable := false
    end
  done;
  !stable

let check ?(domain = Transformer.Symbolic) ?(max_splits = 6) ~decision net
    ~input ~epsilon =
  if epsilon < 0.0 then invalid_arg "Robustness.check: negative epsilon";
  let label = classify decision (Net.eval net input) in
  let ball =
    B.of_intervals
      (Array.map (fun v -> I.make (v -. epsilon) (v +. epsilon)) input)
  in
  (* quick concrete counterexample hunt at the ball corners (bounded) *)
  let corner_counterexample box =
    if B.dim box > 12 then None
    else
      List.find_opt
        (fun c -> classify decision (Net.eval net c) <> label)
        (B.corners box)
  in
  let exception Found of float array in
  (* branch and bound: prove each sub-box or split it *)
  let rec go budget box =
    let out = Transformer.propagate domain net box in
    if decided decision label out then true
    else
      match corner_counterexample box with
      | Some c -> raise (Found c)
      | None ->
          if budget = 0 then false
          else
            let l, r = B.bisect_widest box in
            go (budget - 1) l && go (budget - 1) r
  in
  try if go max_splits ball then Robust else Unknown
  with Found c -> Counterexample c
