module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Net = Nncs_nn.Network
module T = Nncs_nnabs.Transformer

type t = {
  period : float;
  commands : Command.set;
  networks : Net.t array;
  select : int -> int;
  pre : float array -> float array;
  pre_abs : B.t -> B.t;
  post : float array -> int;
  post_abs : B.t -> int list;
  domain : T.domain;
  nn_splits : int;
}

(* Each F# query bisects its box into 2^nn_splits sub-boxes, all of
   which go through the kernel in one call that no budget or deadline
   can interrupt: at most 256 of them. *)
let max_nn_splits = 8

let make ~period ~commands ~networks ~select ~pre ~pre_abs ~post ~post_abs
    ?(domain = T.Symbolic) ?(nn_splits = 0) () =
  if period <= 0.0 then invalid_arg "Controller.make: non-positive period";
  if Array.length networks = 0 then invalid_arg "Controller.make: no networks";
  if nn_splits < 0 then invalid_arg "Controller.make: negative nn_splits";
  if nn_splits > max_nn_splits then
    invalid_arg
      (Printf.sprintf "Controller.make: nn_splits %d above %d" nn_splits
         max_nn_splits);
  for c = 0 to Command.size commands - 1 do
    let n = select c in
    if n < 0 || n >= Array.length networks then
      invalid_arg
        (Printf.sprintf
           "Controller.make: select maps command %d to invalid network %d" c n)
  done;
  { period; commands; networks; select; pre; pre_abs; post; post_abs; domain; nn_splits }

let concrete_step ctrl ~state ~prev_cmd =
  let net = ctrl.networks.(ctrl.select prev_cmd) in
  let x = ctrl.pre state in
  let y = Net.eval net x in
  let cmd = ctrl.post y in
  if cmd < 0 || cmd >= Command.size ctrl.commands then
    invalid_arg "Controller.concrete_step: post returned an invalid command";
  cmd

let domain_tag = function T.Interval -> 0 | T.Symbolic -> 1 | T.Affine -> 2

(* With a cache, entries are only shareable between queries that would
   run the exact same abstraction: the key carries the network's
   process-unique uid (never a controller-local index — the domain cache
   outlives any one controller, and an index would conflate different
   systems' networks), plus domain and split depth in the tag.  The
   query's 2^nn_splits bisection lanes go through one kernel call. *)
let abstract_scores ?cache ctrl ~box ~prev_cmd =
  let net = ctrl.networks.(ctrl.select prev_cmd) in
  let run x = T.propagate_split ctrl.domain ~splits:ctrl.nn_splits net x in
  let x = ctrl.pre_abs box in
  match cache with
  | None -> run x
  | Some c ->
      let tag = (ctrl.nn_splits * 3) + domain_tag ctrl.domain in
      Nncs_nnabs.Cache.find_or_compute c ~net_id:(Net.uid net) ~cmd:prev_cmd
        ~tag x run

let abstract_step ?cache ctrl ~box ~prev_cmd =
  let cmds = ctrl.post_abs (abstract_scores ?cache ctrl ~box ~prev_cmd) in
  if cmds = [] then
    invalid_arg "Controller.abstract_step: post_abs returned no command";
  List.iter
    (fun c ->
      if c < 0 || c >= Command.size ctrl.commands then
        invalid_arg "Controller.abstract_step: invalid command index")
    cmds;
  cmds

(* A NaN score makes every [<]/[>] comparison below false, so the scan
   would silently fall through to index 0 — poisoned network output
   becoming a confidently wrong command.  Non-finite scores (NaN or an
   overflowed evaluation) are a failure to surface, not a choice to
   make. *)
let check_finite_scores name scores =
  Array.iteri
    (fun i s ->
      if not (Float.is_finite s) then
        invalid_arg
          (Printf.sprintf "Controller.%s: non-finite score %h at index %d" name
             s i))
    scores

let argmin_post scores =
  if Array.length scores = 0 then invalid_arg "Controller.argmin_post: empty";
  check_finite_scores "argmin_post" scores;
  let best = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if scores.(i) < scores.(!best) then best := i
  done;
  !best

(* Command i is possibly the argmin iff there is a point of the box where
   score i is <= every other score; over-approximated by comparing i's
   lower bound against the others' upper bounds. *)
let argmin_post_abs box =
  let p = B.dim box in
  let reachable = ref [] in
  for i = p - 1 downto 0 do
    let lo_i = I.lo (B.get box i) in
    let dominated = ref false in
    for j = 0 to p - 1 do
      if j <> i && I.hi (B.get box j) < lo_i then dominated := true
    done;
    if not !dominated then reachable := i :: !reachable
  done;
  !reachable

let argmax_post scores =
  if Array.length scores = 0 then invalid_arg "Controller.argmax_post: empty";
  check_finite_scores "argmax_post" scores;
  let best = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if scores.(i) > scores.(!best) then best := i
  done;
  !best

let argmax_post_abs box =
  let p = B.dim box in
  let reachable = ref [] in
  for i = p - 1 downto 0 do
    let hi_i = I.hi (B.get box i) in
    let dominated = ref false in
    for j = 0 to p - 1 do
      if j <> i && I.lo (B.get box j) > hi_i then dominated := true
    done;
    if not !dominated then reachable := i :: !reachable
  done;
  !reachable

let identity_pre s = s
let identity_pre_abs b = b
