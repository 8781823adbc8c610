module B = Nncs_interval.Box

type domain = Interval | Symbolic | Affine

let domain_of_string = function
  | "interval" -> Interval
  | "symbolic" -> Symbolic
  | "affine" -> Affine
  | s -> invalid_arg (Printf.sprintf "Transformer.domain_of_string: unknown %S" s)

let domain_to_string = function
  | Interval -> "interval"
  | Symbolic -> "symbolic"
  | Affine -> "affine"

(* Every entry point is a batch: [Symbolic] runs its lanes through one
   kernel call, the other domains map their only transformer.  The
   single-box forms are batches of one. *)
let propagate_batch domain net boxes =
  match domain with
  | Interval -> Array.map (Interval_prop.propagate net) boxes
  | Symbolic -> Symbolic_prop.propagate_batch net boxes
  | Affine -> Array.map (Affine_prop.propagate net) boxes

let propagate domain net box = (propagate_batch domain net [| box |]).(0)

(* The [2^depth] boxes of [depth] rounds of widest-dimension bisection,
   left halves first. *)
let bisection_leaves depth box =
  let rec go depth box acc =
    if depth = 0 then box :: acc
    else
      let l, r = B.bisect_widest box in
      go (depth - 1) l (go (depth - 1) r acc)
  in
  go depth box []

(* Expand every box into its bisection leaves, propagate all of them as
   one batch, then rebuild each box's hull tree in the order of the
   bisection recursion: left subtree hulled with right subtree, level by
   level. *)
let propagate_split_batch domain ~splits net boxes =
  if splits < 0 then
    invalid_arg "Transformer.propagate_split_batch: negative splits";
  if splits = 0 then propagate_batch domain net boxes
  else
    let per_box = 1 lsl splits in
    let outs =
      propagate_batch domain net
        (Array.of_list
           (List.concat_map (bisection_leaves splits) (Array.to_list boxes)))
    in
    let rec hull_tree depth first =
      if depth = 0 then outs.(first)
      else
        let half = 1 lsl (depth - 1) in
        B.hull (hull_tree (depth - 1) first) (hull_tree (depth - 1) (first + half))
    in
    Array.mapi (fun b _ -> hull_tree splits (b * per_box)) boxes

let propagate_split domain ~splits net box =
  (propagate_split_batch domain ~splits net [| box |]).(0)

let meet_all domains net box =
  match domains with
  | [] -> invalid_arg "Transformer.meet_all: no domains"
  | d :: rest ->
      List.fold_left
        (fun acc d ->
          match B.meet acc (propagate d net box) with
          | Some m -> m
          | None -> acc)
        (propagate d net box) rest
