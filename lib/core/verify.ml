module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics
module Json = Nncs_obs.Json
module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module Budget = Nncs_resilience.Budget
module Failure_ = Nncs_resilience.Failure
module Firewall = Nncs_resilience.Firewall
module Fault = Nncs_resilience.Fault

let m_cells = Metrics.counter "verify.cells"
let m_leaves = Metrics.counter "verify.leaves"
let m_proved_leaves = Metrics.counter "verify.proved_leaves"

(* resilience instruments: one counter per degradation-ladder rung plus
   the terminal outcomes (see DESIGN.md "Resilience") *)
let m_retry_halved = Metrics.counter "resilience.retry_halved_step"
let m_fallback_interval = Metrics.counter "resilience.fallback_interval"
let m_unknown_leaves = Metrics.counter "resilience.unknown_leaves"
let m_worker_crashes = Metrics.counter "resilience.worker_crashes"

(* leaf-frontier instruments (see DESIGN.md "Leaf scheduler") *)
let m_steals = Metrics.counter "verify.steals"
let m_requeued_leaves = Metrics.counter "resilience.requeued_leaves"
let m_replayed_leaves = Metrics.counter "verify.replayed_leaves"
let h_frontier = Metrics.histogram "verify.frontier_size"

(* batched-F# instruments (see DESIGN.md "Batched F#"): one batch = one
   grouped kernel call answering the parked queries of co-scheduled
   leaves *)
let m_batches = Metrics.counter "verify.fsharp_batches"
let m_batched_queries = Metrics.counter "verify.fsharp_batched_queries"

type split_strategy =
  | All_dims of int list
  | Most_influential of { candidates : int list; take : int }

(* inert: every value runs the leaf frontier (see verify.mli) *)
type scheduler = Cells | Leaves

type config = {
  reach : Reach.config;
  strategy : split_strategy;
  max_depth : int;
  workers : int;
  limits : Budget.limits;
  degrade : bool;
  scheduler : scheduler;
  batch_leaves : int;
}

let default_config =
  {
    reach = { Reach.default_config with keep_sets = false };
    strategy = All_dims [ 0; 1; 2 ];
    max_depth = 2;
    workers = 1;
    limits = Budget.unlimited;
    degrade = true;
    scheduler = Leaves;
    batch_leaves = 1;
  }

(* Influence of a dimension on the controller decision: bisect the cell
   along it and measure how wide the abstract score box F#(Pre#(half))
   stays — the dimension whose bisection tightens the scores the most is
   the most influential (a one-step lookahead of the paper's suggested
   heuristic).

   The probes deliberately bypass the abstraction cache: with a
   quantization grid coarser than a half-box, both halves of a
   bisection (or a half and its parent) collapse onto the same widened
   key, every candidate scores identically and the ordering degenerates
   to an arbitrary one.  Exact uncached scores keep the heuristic
   discriminating; the probed boxes are transient half-cells that would
   rarely be re-queried anyway. *)
let influence_order sys (cell : Symstate.t) candidates =
  let ctrl = sys.System.controller in
  let score dim =
    let l, r = Nncs_interval.Box.bisect cell.Symstate.box dim in
    let width_of half =
      Nncs_interval.Box.max_width
        (Controller.abstract_scores ctrl ~box:half ~prev_cmd:cell.Symstate.cmd)
    in
    (0.5 *. (width_of l +. width_of r))
    [@lint.fp_exact "split-ordering heuristic: any dimension order is sound"]
  in
  let scored = List.map (fun d -> (d, score d)) candidates in
  (* [Float.compare] with NaN pushed to the back: polymorphic [compare]
     (and Float.compare alone) orders NaN *below* every number, so a
     NaN score — e.g. the width of a degenerate half-box at infinity —
     would silently win the "most influential" slot and waste the
     bisection on a useless dimension *)
  let cmp (_, a) (_, b) =
    match (Float.is_nan a, Float.is_nan b) with
    | true, true -> 0
    | true, false -> 1
    | false, true -> -1
    | false, false -> Float.compare a b
  in
  List.map fst (List.sort cmp scored)

let dims_to_split config sys cell =
  match config.strategy with
  | All_dims dims -> dims
  | Most_influential { candidates; take } ->
      let take = max 1 (min take (List.length candidates)) in
      List.filteri (fun i _ -> i < take) (influence_order sys cell candidates)

type leaf_result =
  | Completed of Reach.outcome
  | Failed of Failure_.t

type leaf = {
  state : Symstate.t;
  depth : int;
  proved : bool;
  result : leaf_result;
  rungs : string list;
  elapsed : float;
}

type cell_report = {
  index : int;
  leaves : leaf list;
  proved_fraction : float;
  elapsed : float;
}

type report = {
  cells : cell_report list;
  coverage : float;
  elapsed : float;
  proved_cells : int;
  unknown_cells : int;
  total_cells : int;
}

let now = Nncs_obs.Clock.monotonic_s

let leaf_failure l = match l.result with Failed f -> Some f | Completed _ -> None

let cell_has_failure c = List.exists (fun l -> leaf_failure l <> None) c.leaves

(* ----- the graceful-degradation ladder -----

   One reach attempt per rung, all drawing on the same per-cell budget:
     1. "base"            — the configured reach
     2. "halved_step"     — double the integration sub-steps (halved
                            Lohner/Taylor step, smaller a-priori boxes)
     3. "interval_domain" — swap the controller abstraction down to the
                            cheap interval transformer
   Budget exhaustion and cancellation short-circuit: retrying with
   *more* work cannot help a cell that ran out of time or steps, and a
   cancelled cell must stop, not retry. *)

let rung_base = "base"
let rung_halved = "halved_step"
let rung_interval = "interval_domain"

(* [abstract] is the controller-abstraction override threaded down to
   {!Reach.analyze}; the batched leaf scheduler passes the
   query-parking hook, the scalar paths pass nothing.  It follows the
   ladder's domain swap because Reach hands it the current controller. *)
let attempt ?abstract reach_config budget sys st =
  Reach.run ~config:reach_config ~budget ?abstract sys (Symset.of_list [ st ])

let run_ladder ?abstract config budget sys st =
  let base = config.reach in
  match attempt ?abstract base budget sys st with
  | Ok r -> (Ok r, [ rung_base ])
  | Error ((Failure_.Budget_exceeded _ | Failure_.Cancelled _) as f) ->
      (Error f, [ rung_base ])
  | Error _ -> (
      Metrics.incr m_retry_halved;
      let halved =
        { base with Reach.integration_steps = 2 * base.Reach.integration_steps }
      in
      match attempt ?abstract halved budget sys st with
      | Ok r -> (Ok r, [ rung_base; rung_halved ])
      | Error ((Failure_.Budget_exceeded _ | Failure_.Cancelled _) as f) ->
          (Error f, [ rung_base; rung_halved ])
      | Error f2 ->
          let ctrl = sys.System.controller in
          if ctrl.Controller.domain = Nncs_nnabs.Transformer.Interval then
            (Error f2, [ rung_base; rung_halved ])
          else begin
            Metrics.incr m_fallback_interval;
            let sys' =
              {
                sys with
                System.controller =
                  { ctrl with Controller.domain = Nncs_nnabs.Transformer.Interval };
              }
            in
            match attempt ?abstract halved budget sys' st with
            | Ok r -> (Ok r, [ rung_base; rung_halved; rung_interval ])
            | Error f3 -> (Error f3, [ rung_base; rung_halved; rung_interval ])
          end)

let run_leaf ?abstract config budget sys st =
  let t0 = now () in
  let verdict, rungs =
    if config.degrade then run_ladder ?abstract config budget sys st
    else
      match attempt ?abstract config.reach budget sys st with
      | Ok r -> (Ok r, [ rung_base ])
      | Error f -> (Error f, [ rung_base ])
  in
  (verdict, rungs, Nncs_obs.Clock.elapsed_s ~since:t0)

let strategy_arity = function
  | All_dims dims -> List.length dims
  | Most_influential { take; candidates } ->
      max 1 (min take (List.length candidates))

let unknown_leaf ?(rungs = []) ?(elapsed = 0.0) ~depth st f =
  Metrics.incr m_unknown_leaves;
  { state = st; depth; proved = false; result = Failed f; rungs; elapsed }

let coverage_of_cells cells =
  match cells with
  | [] -> 100.0
  | _ ->
      (100.0
      *. List.fold_left (fun acc c -> acc +. c.proved_fraction) 0.0 cells
      /. float_of_int (List.length cells))
      [@lint.fp_exact "coverage percentage for reports only"]

(* ----- the leaf frontier -----

   One shared, depth-prioritized deque of *leaves*: every cell's root
   starts on it, and when a leaf fails to prove and is split, its
   children go back onto the global frontier that every worker domain
   pulls from, so the deep refinement of one hard cell fans out across
   all cores instead of serializing on the domain that happened to pick
   the cell up.

   Priority: deepest first (a hard cell's subtree completes, bounding
   both the frontier size and the time to its journal record), then any
   leaf whose per-cell budget has already expired (it terminates in
   microseconds and clears its cell's bookkeeping), then the lowest
   (cell, path).  With one worker that is exactly the depth-first
   recursion of Section 7.1: cells in index order, each refinement
   tree in pre-order, so progress, journal records and step-budget
   verdicts follow the sequential order.

   Determinism: a leaf is identified by its path (the child indices
   from the cell's root); splitting is a deterministic function of the
   leaf's state, so the set of terminal leaves is independent of the
   execution order, and sorting each cell's completed leaves by path
   reproduces exactly the depth-first leaf order at any worker count.
   See DESIGN.md "Leaf scheduler". *)

type task = {
  t_cell : int;
  t_path : int list;  (* child indices from the root; root = [] *)
  t_state : Symstate.t;
  t_depth : int;
  t_done : bool Atomic.t;  (* claim flag: completion is idempotent *)
}

let compare_paths = List.compare Int.compare

(* depth-first order: cell index, then path *)
let compare_tasks a b =
  match Int.compare a.t_cell b.t_cell with
  | 0 -> compare_paths a.t_path b.t_path
  | c -> c

module Frontier = struct
  type t = {
    mutex : Mutex.t;
    buckets : task list array;  (* index = depth *)
    mutable size : int;
  }

  let create depths =
    { mutex = Mutex.create (); buckets = Array.make (max 1 depths) []; size = 0 }

  let with_lock f fn =
    Mutex.lock f.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock f.mutex) fn

  let push f task =
    with_lock f (fun () ->
        let d = min task.t_depth (Array.length f.buckets - 1) in
        f.buckets.(d) <- task :: f.buckets.(d);
        f.size <- f.size + 1)

  (* [pop_where] restricts the pick to tasks satisfying [pred] while
     keeping the exact priority policy (deepest bucket, expired-first,
     then lowest (cell, path)) — the batched scheduler drains extra
     tasks that are compatible with the one just popped (same
     network). *)
  let pop_where ~expired ~pred f =
    with_lock f (fun () ->
        let rec deepest d =
          if d < 0 then None
          else
            match List.filter pred f.buckets.(d) with
            | [] -> deepest (d - 1)
            | ts -> Some (d, ts)
        in
        match deepest (Array.length f.buckets - 1) with
        | None -> None
        | Some (d, ts) ->
            let lowest ts =
              List.fold_left
                (fun best t -> if compare_tasks t best < 0 then t else best)
                (List.hd ts) ts
            in
            let pick =
              lowest (match List.filter expired ts with [] -> ts | ex -> ex)
            in
            f.buckets.(d) <- List.filter (fun t -> t != pick) f.buckets.(d);
            f.size <- f.size - 1;
            Metrics.observe h_frontier (float_of_int f.size);
            Some pick)

  let pop ~expired f = pop_where ~expired ~pred:(fun _ -> true) f
end

(* ----- batched F# via lockstep fibers (config.batch_leaves > 1) -----

   With [--batch-leaves=K], a worker drains up to K compatible frontier
   tasks per pull and runs their reachability analyses as effect-based
   fibers in lockstep: each leaf parks at every controller-abstraction
   query ([Fsharp_scores]), the driver gathers the parked queries of all
   co-scheduled leaves, answers them with one blocked kernel call
   ({!Controller.abstract_scores_batch}), and resumes the fibers in
   index order.

   Verdict preservation: every query is answered with the bitwise value
   the scalar path would compute (the batched kernel keeps each lane's
   float-op order), each fiber's own sequence of queries and answers is
   therefore identical to its scalar execution, and reassembly is the
   unchanged path-sorted DFS — so verdicts, leaf sets and journal
   records are byte-identical to [batch_leaves = 1] at any worker
   count.  Per-leaf firewalls survive batching: a group call that fails
   is retried query by query on the scalar path, and only the culpable
   fiber is discontinued with its exception (caught by that leaf's
   ladder or firewall exactly as in the scalar path). *)

type fsharp_query = { q_ctrl : Controller.t; q_box : B.t; q_cmd : int }
type _ Effect.t += Fsharp_scores : fsharp_query -> B.t Effect.t

(* The Reach [?abstract] override run inside each fiber: park at the
   score query, then reuse the scalar post-processing and validation. *)
let batched_abstract ctrl ~box ~prev_cmd =
  let y =
    Effect.perform (Fsharp_scores { q_ctrl = ctrl; q_box = box; q_cmd = prev_cmd })
  in
  Controller.commands_of_scores ctrl y

let domain_ord = function
  | Nncs_nnabs.Transformer.Interval -> 0
  | Nncs_nnabs.Transformer.Symbolic -> 1
  | Nncs_nnabs.Transformer.Affine -> 2

(* Run [bodies] as lockstep fibers; returns each body's result.  A body
   must either return or park at [Fsharp_scores] — any exception it does
   not absorb propagates out of the driver (fatal worker-death
   semantics; the caller re-queues the whole group's unfinished tasks).
   Queries are grouped by abstraction semantics — the ladder's interval
   rung swaps the controller domain mid-leaf, so co-scheduled fibers on
   different rungs must not co-batch. *)
let run_lockstep ~cache (bodies : (unit -> 'a) array) : 'a option array =
  let n = Array.length bodies in
  let results : 'a option array = Array.make n None in
  let parked :
      (fsharp_query * (B.t, unit) Effect.Deep.continuation) option array =
    Array.make n None
  in
  let handler i =
    {
      Effect.Deep.retc = (fun v -> results.(i) <- Some v);
      exnc = (fun e -> raise e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Fsharp_scores q ->
              Some
                (fun (k : (c, unit) Effect.Deep.continuation) ->
                  parked.(i) <- Some (q, k))
          | _ -> None);
    }
  in
  Array.iteri (fun i body -> Effect.Deep.match_with body () (handler i)) bodies;
  let rec drive () =
    let pending = ref [] in
    for i = n - 1 downto 0 do
      match parked.(i) with
      | Some (q, _) -> pending := (i, q) :: !pending
      | None -> ()
    done;
    match !pending with
    | [] -> ()
    | pending ->
        let answers : (B.t, exn) result option array = Array.make n None in
        let groups : (int * int, (int * fsharp_query) list) Hashtbl.t =
          Hashtbl.create 4
        in
        List.iter
          (fun ((_, q) as iq) ->
            let key = (domain_ord q.q_ctrl.Controller.domain, q.q_ctrl.Controller.nn_splits) in
            let tl = try Hashtbl.find groups key with Not_found -> [] in
            Hashtbl.replace groups key (iq :: tl))
          pending;
        let keys =
          List.sort
            (fun (a1, b1) (a2, b2) ->
              match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)
            (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
        in
        List.iter
          (fun key ->
            let iqs = List.rev (Hashtbl.find groups key) in
            let ctrl = (snd (List.hd iqs)).q_ctrl in
            let queries =
              Array.of_list (List.map (fun (_, q) -> (q.q_box, q.q_cmd)) iqs)
            in
            Metrics.incr m_batches;
            Metrics.add m_batched_queries (Array.length queries);
            match Controller.abstract_scores_batch ?cache ctrl queries with
            | ys ->
                List.iteri (fun j (i, _) -> answers.(i) <- Some (Ok ys.(j))) iqs
            | exception e when not (Firewall.fatal e) ->
                (* the per-leaf firewall across a batch: retry each query
                   alone on the scalar path so only the culpable leaf
                   fails — its siblings get their scalar-identical
                   answers *)
                List.iter
                  (fun (i, q) ->
                    answers.(i) <-
                      Some
                        (match
                           Controller.abstract_scores ?cache q.q_ctrl
                             ~box:q.q_box ~prev_cmd:q.q_cmd
                         with
                        | y -> Ok y
                        | exception e when not (Firewall.fatal e) -> Error e))
                  iqs)
          keys;
        List.iter
          (fun (i, _) ->
            match (parked.(i), answers.(i)) with
            | Some (_, k), Some ans -> (
                parked.(i) <- None;
                match ans with
                | Ok y -> Effect.Deep.continue k y
                | Error e -> Effect.Deep.discontinue k e)
            | _ -> assert false)
          pending;
        drive ()
  in
  drive ();
  results

let verify_partition ?cancel ?(config = default_config) ?progress ?on_cell
    ?on_leaf ?(completed = []) ?(partial = []) sys cells =
  if config.batch_leaves < 1 then
    invalid_arg "Verify.verify_partition: batch_leaves must be >= 1";
  if config.max_depth < 0 then
    invalid_arg "Verify.verify_partition: negative depth";
  (match config.strategy with
  | (All_dims [] | Most_influential { candidates = []; _ })
    when config.max_depth > 0 ->
      invalid_arg "Verify.verify_partition: no split dimensions"
  | All_dims _ | Most_influential _ -> ());
  let t0 = now () in
  let cells_arr = Array.of_list cells in
  let total = Array.length cells_arr in
  let results = Array.make total None in
  List.iter
    (fun (c : cell_report) ->
      if c.index >= 0 && c.index < total then results.(c.index) <- Some c)
    completed;
  let pending =
    List.filter (fun i -> results.(i) = None) (List.init total Fun.id)
  in
  (* a shared atomic counter so every worker reports each finished cell
     live (the callback then runs on the worker's domain); a cell
     finishes exactly once, when its last leaf completes, so crash
     recovery cannot push [progress] past [total] *)
  let done_count = Atomic.make (total - List.length pending) in
  let factor = float_of_int (1 lsl strategy_arity config.strategy) in
  let frontier = Frontier.create (config.max_depth + 1) in
  (* one budget per cell, shared by all of its leaves across domains
     (Budget counters are atomic; the deadline is an absolute stamp) —
     created lazily so the wall clock starts at the cell's first leaf *)
  let budgets = Array.init total (fun _ -> Atomic.make None) in
  let budget_for i =
    match Atomic.get budgets.(i) with
    | Some b -> b
    | None ->
        let b = Budget.start ?cancel config.limits in
        if Atomic.compare_and_set budgets.(i) None (Some b) then b
        else
          (match Atomic.get budgets.(i) with
          | Some b -> b
          | None -> assert false)
  in
  let expired task =
    match Atomic.get budgets.(task.t_cell) with
    | Some b -> Budget.expired b
    | None -> false
  in
  let cell_pending = Array.init total (fun _ -> Atomic.make 0) in
  let cell_owner = Array.init total (fun _ -> Atomic.make (-1)) in
  let live = Atomic.make 0 in
  let acc : (int list * leaf) list array = Array.make total [] in
  let acc_mutex = Mutex.create () in
  (* mid-cell resume: terminal leaves recorded by an interrupted run are
     replayed without recomputation; every proper prefix of a recorded
     path is a node the interrupted run decided to split, so it is
     re-split (deterministically) without re-running its reachability *)
  let recorded : (int * int list, leaf) Hashtbl.t = Hashtbl.create 64 in
  let known_split : (int * int list, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (i, leaves) ->
      if i >= 0 && i < total then
        List.iter
          (fun (path, leaf) ->
            Hashtbl.replace recorded (i, path) leaf;
            let rec prefixes pre = function
              | [] -> ()
              | k :: rest ->
                  Hashtbl.replace known_split (i, List.rev pre) ();
                  prefixes (k :: pre) rest
            in
            prefixes [] path)
          leaves)
    partial;
  let mk_task cell path depth st =
    {
      t_cell = cell;
      t_path = path;
      t_state = st;
      t_depth = depth;
      t_done = Atomic.make false;
    }
  in
  (* callbacks run only after all counters are consistent, and behind a
     crash guard: a raising journal hook must degrade observability, not
     wedge the scheduler *)
  let safely fn =
    try fn () with e when not (Firewall.fatal e) -> Metrics.incr m_worker_crashes
  in
  let finish_cell c =
    let raw =
      Mutex.lock acc_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock acc_mutex)
        (fun () -> acc.(c))
    in
    let leaves =
      List.sort (fun (p, _) (q, _) -> compare_paths p q) raw |> List.map snd
    in
    let proved_fraction =
      (List.fold_left
         (fun a l ->
           if l.proved then a +. (1.0 /. (factor ** float_of_int l.depth))
           else a)
         0.0 leaves)
      [@lint.fp_exact
        "progress accounting for reports: verdicts come from the leaf \
         proofs, not from this number"]
    in
    let elapsed =
      (List.fold_left (fun a (l : leaf) -> a +. l.elapsed) 0.0 leaves)
      [@lint.fp_exact "wall-clock telemetry (sum of per-leaf compute time)"]
    in
    let report = { index = c; leaves; proved_fraction; elapsed } in
    results.(c) <- Some report;
    Metrics.incr m_cells;
    report
  in
  let complete_terminal ?(replay = false) task leaf =
    if not (Atomic.exchange task.t_done true) then begin
      Mutex.lock acc_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock acc_mutex)
        (fun () -> acc.(task.t_cell) <- (task.t_path, leaf) :: acc.(task.t_cell));
      let rem = Atomic.fetch_and_add cell_pending.(task.t_cell) (-1) - 1 in
      let report = if rem = 0 then Some (finish_cell task.t_cell) else None in
      Atomic.decr live;
      (if not replay then
         safely (fun () ->
             match on_leaf with
             | Some f -> f task.t_cell task.t_path leaf
             | None -> ()));
      match report with
      | Some r ->
          safely (fun () ->
              match on_cell with Some f -> f r | None -> ());
          safely (fun () ->
              let d = Atomic.fetch_and_add done_count 1 + 1 in
              match progress with Some f -> f d total | None -> ())
      | None -> ()
    end
  in
  let push_children task children =
    if not (Atomic.exchange task.t_done true) then begin
      let n = List.length children in
      ignore (Atomic.fetch_and_add cell_pending.(task.t_cell) (n - 1));
      ignore (Atomic.fetch_and_add live (n - 1));
      List.iteri
        (fun k st ->
          Frontier.push frontier
            (mk_task task.t_cell (task.t_path @ [ k ]) (task.t_depth + 1) st))
        children
    end
  in
  let task_key task =
    String.concat "." (List.map string_of_int (task.t_cell :: task.t_path))
  in
  (* replay / deterministic-resplit tasks complete without running any
     reachability; [`Run] tasks carry the real leaf work *)
  let pre_process task =
    match Hashtbl.find_opt recorded (task.t_cell, task.t_path) with
    | Some leaf ->
        Metrics.incr m_replayed_leaves;
        complete_terminal ~replay:true task leaf;
        `Done
    | None ->
        if
          task.t_depth < config.max_depth
          && Hashtbl.mem known_split (task.t_cell, task.t_path)
        then begin
          (match
             Firewall.protect ~classify:Reach.classify (fun () ->
                 Symstate.split task.t_state (dims_to_split config sys task.t_state))
           with
          | Ok children -> push_children task children
          | Error f ->
              complete_terminal task
                (unknown_leaf ~depth:task.t_depth task.t_state f));
          `Done
        end
        else `Run
  in
  (* the per-leaf firewall: anything the ladder did not absorb (strategy
     evaluation, splitting, injected faults, plain bugs) degrades this
     one leaf — its siblings, and the rest of its own cell, go on.
     [abstract] is the lockstep driver's query-parking hook; the scalar
     path passes nothing. *)
  let leaf_outcome ?abstract task =
    let budget = budget_for task.t_cell in
    Firewall.protect ~classify:Reach.classify (fun () ->
        Fault.trigger ~key:(task_key task) "verify.leaf";
        let verdict, rungs, dt =
          run_leaf ?abstract config budget sys task.t_state
        in
        Metrics.incr m_leaves;
        let proved =
          match verdict with
          | Ok r -> Reach.is_proved_safe r
          | Error _ -> false
        in
        if proved then Metrics.incr m_proved_leaves;
        let out_of_budget =
          match verdict with
          | Error (Failure_.Budget_exceeded _ | Failure_.Cancelled _) -> true
          | _ -> false
        in
        (* refinement also drives "could not conclude": a failed leaf is
           split like an unproved one (smaller boxes often restore the
           enclosure) — except when the budget is gone or the job was
           cancelled, where splitting would only multiply the failures *)
        if proved || task.t_depth >= config.max_depth || out_of_budget then
          `Terminal
            (match verdict with
            | Ok r ->
                {
                  state = task.t_state;
                  depth = task.t_depth;
                  proved;
                  result = Completed r.Reach.outcome;
                  rungs;
                  elapsed = dt;
                }
            | Error f ->
                unknown_leaf ~rungs ~elapsed:dt ~depth:task.t_depth
                  task.t_state f)
        else
          `Split
            (Symstate.split task.t_state (dims_to_split config sys task.t_state)))
  in
  let apply_outcome task = function
    | Ok (`Terminal leaf) -> complete_terminal task leaf
    | Ok (`Split children) -> push_children task children
    | Error f ->
        complete_terminal task (unknown_leaf ~depth:task.t_depth task.t_state f)
  in
  let process task =
    match pre_process task with
    | `Done -> ()
    | `Run -> apply_outcome task (leaf_outcome task)
  in
  (* co-scheduled group: run the [`Run] tasks as lockstep fibers sharing
     batched F# calls; outcomes are applied in task order afterwards, so
     reassembly sees the same completions as the scalar path *)
  let cache = Option.map Nncs_nnabs.Cache.shared config.reach.Reach.abs_cache in
  let process_batch tasks =
    let run_tasks =
      List.filter
        (fun t -> match pre_process t with `Run -> true | `Done -> false)
        tasks
    in
    match run_tasks with
    | [] -> ()
    | [ task ] -> apply_outcome task (leaf_outcome task)
    | run_tasks ->
        let arr = Array.of_list run_tasks in
        let bodies =
          Array.map
            (fun task () -> leaf_outcome ~abstract:batched_abstract task)
            arr
        in
        let outcomes = run_lockstep ~cache bodies in
        Array.iteri
          (fun i task ->
            match outcomes.(i) with
            | Some outcome -> apply_outcome task outcome
            | None ->
                (* unreachable: a fiber either returns or parks, and the
                   driver drains every park before returning *)
                assert false)
          arr
  in
  let rec worker_loop ?(backoff = 2e-4) w =
    match Frontier.pop ~expired frontier with
    | None ->
        if Atomic.get live > 0 then begin
          (* leaves are ms-to-seconds of reachability: sleep-polling with
             exponential backoff (0.2 ms doubling to 20 ms) is cheaper
             and simpler than a condition variable, immune to lost
             wakeups from dying workers, and — critically on
             oversubscribed hosts — stops idle domains from stealing
             timeslices from the one computing a long leaf *)
          Unix.sleepf backoff;
          worker_loop
            ~backoff:
              ((Float.min 2e-2 (2.0 *. backoff))
              [@lint.fp_exact "idle-poll backoff: scheduling, not analysis"])
            w
        end
    | Some task ->
        (* batched mode: drain up to K-1 extra tasks whose leaves query
           the same network as the popped one — only same-network
           frontiers may share a kernel call (mixed-network co-batching
           would be unsound and is structurally impossible here) *)
        let group =
          if config.batch_leaves <= 1 then [ task ]
          else begin
            let uid t =
              let ctrl = sys.System.controller in
              Nncs_nn.Network.uid
                ctrl.Controller.networks.(ctrl.Controller.select
                                            t.t_state.Symstate.cmd)
            in
            let u0 = uid task in
            let rec drain acc r =
              if r <= 0 then List.rev acc
              else
                match
                  Frontier.pop_where ~expired
                    ~pred:(fun t -> uid t = u0)
                    frontier
                with
                | None -> List.rev acc
                | Some t -> drain (t :: acc) (r - 1)
            in
            task :: drain [] (config.batch_leaves - 1)
          end
        in
        let stolen_of task =
          let prev = Atomic.exchange cell_owner.(task.t_cell) w in
          let stolen = prev >= 0 && prev <> w in
          if stolen then Metrics.incr m_steals;
          stolen
        in
        let stolen_flags = List.map stolen_of group in
        (try
           match group with
           | [ task ] ->
               Span.with_ "verify.leaf"
                 ~attrs:
                   [
                     ("cell", Nncs_obs.Trace.Int task.t_cell);
                     ("depth", Nncs_obs.Trace.Int task.t_depth);
                     ("worker", Nncs_obs.Trace.Int w);
                     ("stolen", Nncs_obs.Trace.Bool (List.hd stolen_flags));
                   ]
                 (fun () -> process task)
           | group ->
               Span.with_ "verify.leaf_batch"
                 ~attrs:
                   [
                     ("leaves", Nncs_obs.Trace.Int (List.length group));
                     ("worker", Nncs_obs.Trace.Int w);
                   ]
                 (fun () -> process_batch group)
         with e ->
           if Firewall.fatal e then begin
             (* hand the orphans back before dying: every subtree of the
                group not yet completed is re-queued for the surviving
                workers (or for the main-domain recovery sweep) *)
             List.iter
               (fun task ->
                 if not (Atomic.get task.t_done) then begin
                   Metrics.incr m_requeued_leaves;
                   Frontier.push frontier task
                 end)
               group;
             raise e
           end
           else begin
             Metrics.incr m_worker_crashes;
             List.iter
               (fun task ->
                 complete_terminal task
                   (unknown_leaf ~depth:task.t_depth task.t_state
                      (Failure_.Worker_crashed (Printexc.to_string e))))
               group
           end);
        worker_loop w
  in
  List.iter
    (fun i ->
      Atomic.set cell_pending.(i) 1;
      Atomic.incr live;
      Frontier.push frontier (mk_task i [] 0 cells_arr.(i)))
    pending;
  if pending <> [] then
    if config.workers <= 1 then worker_loop 0
    else begin
      let domains =
        List.init config.workers (fun w ->
            Domain.spawn (fun () ->
                Span.with_ "verify.worker"
                  ~attrs:[ ("worker", Nncs_obs.Trace.Int w) ]
                  (fun () -> worker_loop w)))
      in
      List.iter
        (fun d ->
          match Domain.join d with
          | () -> ()
          | exception _ -> Metrics.incr m_worker_crashes)
        domains;
      (* recovery sweep: if every worker died, the re-queued orphans and
         their cells finish in this domain *)
      if Atomic.get live > 0 then worker_loop config.workers
    end;
  let cell_reports =
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)
  in
  {
    cells = cell_reports;
    coverage = coverage_of_cells cell_reports;
    elapsed = Nncs_obs.Clock.elapsed_s ~since:t0;
    proved_cells =
      List.length
        (List.filter
           (fun c ->
             (c.proved_fraction >= 1.0 -. 1e-12)
             [@lint.fp_exact "report bucketing threshold"])
           cell_reports);
    unknown_cells = List.length (List.filter cell_has_failure cell_reports);
    total_cells = total;
  }

(* ----- problem fingerprint -----

   A journal is only resumable against the exact partition and spec it
   was written for: the cell indices it stores are positions in the cell
   list, and the verdicts are relative to one erroneous set, horizon and
   analysis config.  The fingerprint hashes a canonical rendering of all
   of those; [Spec.t] is opaque (bare predicates), so the specs
   contribute their names plus their sampled answers on every cell —
   any spec change that could flip a stored verdict on some cell flips
   at least one probe bit with overwhelming probability. *)

let fingerprint ?(config = default_config) sys cells =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let addfl x = addf "%.17g;" x in
  let cmds = sys.System.controller.Controller.commands in
  addf "commands:%d:%d;" (Command.size cmds) (Command.dim cmds);
  for i = 0 to Command.size cmds - 1 do
    Array.iter addfl (Command.value cmds i)
  done;
  addf "horizon:%d;" sys.System.horizon_steps;
  addfl sys.System.controller.Controller.period;
  addf "erroneous:%s;target:%s;" sys.System.erroneous.Spec.name
    sys.System.target.Spec.name;
  let r = config.reach in
  addf "reach:%d:%d:%d:%s:%b;" r.Reach.integration_steps r.Reach.taylor_order
    r.Reach.gamma
    (match r.Reach.scheme with
    | Nncs_ode.Simulate.Direct -> "direct"
    | Nncs_ode.Simulate.Lohner -> "lohner")
    r.Reach.early_abort;
  addf "nn:%s:%d;"
    (match sys.System.controller.Controller.domain with
    | Nncs_nnabs.Transformer.Interval -> "interval"
    | Nncs_nnabs.Transformer.Symbolic -> "symbolic"
    | Nncs_nnabs.Transformer.Affine -> "affine")
    sys.System.controller.Controller.nn_splits;
  (match config.strategy with
  | All_dims dims ->
      addf "strategy:all";
      List.iter (addf ":%d") dims;
      addf ";"
  | Most_influential { candidates; take } ->
      addf "strategy:influence:%d" take;
      List.iter (addf ":%d") candidates;
      addf ";");
  addf "depth:%d;degrade:%b;" config.max_depth config.degrade;
  List.iteri
    (fun i (st : Symstate.t) ->
      addf "cell:%d:%d;" i st.Symstate.cmd;
      let b = st.Symstate.box in
      let n = B.dim b in
      let center = Array.make n 0.0 in
      for d = 0 to n - 1 do
        let iv = B.get b d in
        addfl (I.lo iv);
        addfl (I.hi iv);
        center.(d) <-
          (0.5 *. (I.lo iv +. I.hi iv))
          [@lint.fp_exact "fingerprint probe point: any in-cell point works"]
      done;
      addf "probe:%b:%b:%b:%b;"
        (sys.System.erroneous.Spec.intersects_box st)
        (sys.System.erroneous.Spec.contains_box st)
        (sys.System.target.Spec.contains_box st)
        (sys.System.erroneous.Spec.contains_point center st.Symstate.cmd))
    cells;
  Codec.fnv1a64 (Buffer.contents buf)

(* ----- journal serialization -----

   One JSON object per cell, self-contained enough to reconstruct the
   cell_report exactly: boxes round-trip through %.17g printing. *)

let leaf_result_to_json = function
  | Completed Reach.Proved_safe -> Json.Obj [ ("verdict", Json.Str "safe") ]
  | Completed (Reach.Reached_error { step }) ->
      Json.Obj
        [ ("verdict", Json.Str "unsafe"); ("step", Json.Num (float_of_int step)) ]
  | Completed Reach.Horizon_exhausted ->
      Json.Obj [ ("verdict", Json.Str "horizon") ]
  | Failed f ->
      Json.Obj [ ("verdict", Json.Str "unknown"); ("failure", Failure_.to_json f) ]

let leaf_result_of_json j =
  match Json.member "verdict" j with
  | Some (Json.Str "safe") -> Completed Reach.Proved_safe
  | Some (Json.Str "unsafe") -> (
      match Json.member "step" j with
      | Some s -> Completed (Reach.Reached_error { step = Json.to_int s })
      | None -> raise (Json.Parse_error "leaf: unsafe without step"))
  | Some (Json.Str "horizon") -> Completed Reach.Horizon_exhausted
  | Some (Json.Str "unknown") -> (
      match Json.member "failure" j with
      | Some f -> Failed (Failure_.of_json f)
      | None -> raise (Json.Parse_error "leaf: unknown without failure"))
  | _ -> raise (Json.Parse_error "leaf: bad verdict")

let leaf_to_json l =
  Json.Obj
    [
      ("box", Codec.box_to_json l.state.Symstate.box);
      ("cmd", Json.Num (float_of_int l.state.Symstate.cmd));
      ("depth", Json.Num (float_of_int l.depth));
      ("proved", Json.Bool l.proved);
      ("result", leaf_result_to_json l.result);
      ("rungs", Json.List (List.map (fun r -> Json.Str r) l.rungs));
      ("elapsed", Json.Num l.elapsed);
    ]

let get ?(what = "field") j k =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Json.Parse_error (Printf.sprintf "%s: missing %S" what k))

let leaf_of_json j =
  let state =
    Symstate.make (Codec.box_of_json (get ~what:"leaf" j "box"))
      (Json.to_int (get ~what:"leaf" j "cmd"))
  in
  {
    state;
    depth = Json.to_int (get ~what:"leaf" j "depth");
    proved = (match get ~what:"leaf" j "proved" with
             | Json.Bool b -> b
             | _ -> raise (Json.Parse_error "leaf: proved not a bool"));
    result = leaf_result_of_json (get ~what:"leaf" j "result");
    rungs =
      (match get ~what:"leaf" j "rungs" with
      | Json.List rs -> List.map Json.to_str rs
      | _ -> raise (Json.Parse_error "leaf: rungs not a list"));
    elapsed = Json.to_float (get ~what:"leaf" j "elapsed");
  }

let cell_report_to_json c =
  Json.Obj
    [
      ("t", Json.Str "cell");
      ("index", Json.Num (float_of_int c.index));
      ("proved_fraction", Json.Num c.proved_fraction);
      ("elapsed", Json.Num c.elapsed);
      ("leaves", Json.List (List.map leaf_to_json c.leaves));
    ]

let cell_report_of_json j =
  {
    index = Json.to_int (get ~what:"cell" j "index");
    proved_fraction = Json.to_float (get ~what:"cell" j "proved_fraction");
    elapsed = Json.to_float (get ~what:"cell" j "elapsed");
    leaves =
      (match get ~what:"cell" j "leaves" with
      | Json.List ls -> List.map leaf_of_json ls
      | _ -> raise (Json.Parse_error "cell: leaves not a list"));
  }

let journal_meta ~total ~fingerprint =
  Json.Obj
    [
      ("t", Json.Str "meta");
      ("kind", Json.Str "nncs-verify-journal");
      ("version", Json.Num 2.0);
      ("total", Json.Num (float_of_int total));
      ("fingerprint", Json.Str fingerprint);
    ]

(* a terminal leaf, journaled through [on_leaf] so [--resume] restarts
   mid-cell *)
let leaf_record_to_json ~cell ~path leaf =
  Json.Obj
    [
      ("t", Json.Str "leaf");
      ("cell", Json.Num (float_of_int cell));
      ("path", Json.List (List.map (fun k -> Json.Num (float_of_int k)) path));
      ("leaf", leaf_to_json leaf);
    ]

let leaf_record_of_json j =
  let cell = Json.to_int (get ~what:"leaf record" j "cell") in
  let path =
    match get ~what:"leaf record" j "path" with
    | Json.List ks -> List.map Json.to_int ks
    | _ -> raise (Json.Parse_error "leaf record: path not a list")
  in
  (cell, path, leaf_of_json (get ~what:"leaf record" j "leaf"))

type journal_contents = {
  meta_total : int option;
  meta_fingerprint : string option;
  completed_cells : cell_report list;
  partial_leaves : (int * (int list * leaf) list) list;
}

let load_journal path =
  let lines = Nncs_resilience.Journal.load path in
  let tag j = Json.member "t" j in
  let meta_total =
    List.find_map
      (fun j ->
        if tag j = Some (Json.Str "meta") then
          Option.map Json.to_int (Json.member "total" j)
        else None)
      lines
  in
  let meta_fingerprint =
    List.find_map
      (fun j ->
        if tag j = Some (Json.Str "meta") then
          Option.map Json.to_str (Json.member "fingerprint" j)
        else None)
      lines
  in
  let cells =
    List.filter_map
      (fun j ->
        if tag j = Some (Json.Str "cell") then Some (cell_report_of_json j)
        else None)
      lines
  in
  (* keep the last record per index: a resumed run may have re-journaled
     a cell that was in flight when its predecessor died *)
  let tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace tbl c.index c) cells;
  let completed_cells =
    Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
    |> List.sort (fun a b -> Int.compare a.index b.index)
  in
  (* leaf records for cells without a full report: last record per
     (cell, path) wins, same reasoning as above *)
  let leaf_tbl : (int * int list, leaf) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun j ->
      if tag j = Some (Json.Str "leaf") then begin
        let cell, p, leaf = leaf_record_of_json j in
        if not (Hashtbl.mem tbl cell) then
          Hashtbl.replace leaf_tbl (cell, p) leaf
      end)
    lines;
  let by_cell : (int, (int list * leaf) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (cell, p) leaf ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_cell cell) in
      Hashtbl.replace by_cell cell ((p, leaf) :: prev))
    leaf_tbl;
  let partial_leaves =
    Hashtbl.fold (fun cell ls acc -> (cell, ls) :: acc) by_cell []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  { meta_total; meta_fingerprint; completed_cells; partial_leaves }

(* ----- whole-report serialization -----

   The verdict memo of a resident verification service (Nncs_serve)
   stores and journals entire reports keyed by problem fingerprint, so a
   repeated query replays the full per-cell answer without re-running
   any analysis.  Round-trips exactly, like the per-cell records. *)

let report_to_json r =
  Json.Obj
    [
      ("t", Json.Str "report");
      ("coverage", Json.Num r.coverage);
      ("elapsed", Json.Num r.elapsed);
      ("proved_cells", Json.Num (float_of_int r.proved_cells));
      ("unknown_cells", Json.Num (float_of_int r.unknown_cells));
      ("total_cells", Json.Num (float_of_int r.total_cells));
      ("cells", Json.List (List.map cell_report_to_json r.cells));
    ]

let report_of_json j =
  {
    cells =
      (match get ~what:"report" j "cells" with
      | Json.List cs -> List.map cell_report_of_json cs
      | _ -> raise (Json.Parse_error "report: cells not a list"));
    coverage = Json.to_float (get ~what:"report" j "coverage");
    elapsed = Json.to_float (get ~what:"report" j "elapsed");
    proved_cells = Json.to_int (get ~what:"report" j "proved_cells");
    unknown_cells = Json.to_int (get ~what:"report" j "unknown_cells");
    total_cells = Json.to_int (get ~what:"report" j "total_cells");
  }

(* ----- pre-parsed jobs -----

   The unit of work of a resident verification service: a fully
   resolved analysis configuration plus the initial cells.  The
   fingerprint identifies the problem for memoization, so it is computed
   here, once, next to the run it indexes. *)

type job = { job_config : config; job_cells : Symstate.t list }

let run_job ?cancel ?progress ?on_cell sys job =
  let fp = fingerprint ~config:job.job_config sys job.job_cells in
  let report =
    verify_partition ?cancel ~config:job.job_config ?progress ?on_cell sys
      job.job_cells
  in
  (fp, report)
