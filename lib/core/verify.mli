(** The outer verification driver of Section 7.1: run the reachability
    analysis independently on every cell of the initial-state partition;
    when a cell cannot be proved safe, bisect it along the configured
    dimensions and retry, up to a maximum refinement depth; account
    coverage with the paper's formula
    [c = 100/K0 * sum_d n_d / f^d] where [f = 2^|split_dims|].

    The driver is resilient by construction (see DESIGN.md §8): every
    reach attempt runs behind {!Reach.run}'s firewall against a per-cell
    budget; a failing leaf walks a graceful-degradation ladder (halved
    integrator step, then the interval controller abstraction) before
    settling for an [Unknown] verdict with a structured
    [Nncs_resilience.Failure.t] reason — one pathological cell can no
    longer kill a partition run. *)

type split_strategy =
  | All_dims of int list
      (** bisect along every listed dimension (the paper's experiment:
          2^3 children per refinement) *)
  | Most_influential of { candidates : int list; take : int }
      (** the paper's future-work heuristic: rank the candidate
          dimensions by how much bisecting them tightens the abstract
          controller scores on the cell, and bisect only the [take] most
          influential ones (2^take children) *)

type scheduler = Cells | Leaves
(** Inert.  There is one scheduler, the leaf frontier of
    {!verify_partition}; every value runs it.  The type and the
    [scheduler] field remain only because the benchmark under
    [nncsbench/] still names them, and go with its next change. *)

type config = {
  reach : Reach.config;
  strategy : split_strategy;
  max_depth : int;  (** maximum number of refinements (paper: 2) *)
  workers : int;  (** worker domains pulling from the leaf frontier (>= 1) *)
  limits : Nncs_resilience.Budget.limits;
      (** per-cell budget, shared by all of the cell's leaves and
          degradation retries across domains (the step counter is
          atomic and the deadline is an absolute stamp); its clock
          starts at the cell's first leaf *)
  degrade : bool;
      (** walk the degradation ladder before returning Unknown (on by
          default; off = a single attempt per leaf) *)
  scheduler : scheduler;  (** inert, see {!scheduler} *)
  batch_leaves : int;
      (** the number of compatible frontier tasks a worker drains per
          pull and runs as lockstep fibers sharing batched F# kernel
          calls (see DESIGN.md "Batched F#"); 1 (the default) is the
          scalar path.  Verdicts, leaf sets and journal records are
          byte-identical at every value; like [workers] it does not
          enter the problem {!fingerprint}. *)
}

val default_config : config
(** Paper setup: reach defaults, [All_dims [0;1;2]], depth 2, one
    worker, unlimited budget, degradation on, no leaf batching. *)

type leaf_result =
  | Completed of Reach.outcome  (** the reach analysis ran to a verdict *)
  | Failed of Nncs_resilience.Failure.t
      (** every ladder rung failed: the leaf is [Unknown] with a reason *)

type leaf = {
  state : Symstate.t;  (** the (possibly refined) initial cell *)
  depth : int;
  proved : bool;
  result : leaf_result;
  rungs : string list;
      (** degradation rungs attempted, in order (["base"],
          ["halved_step"], ["interval_domain"]); empty when the failure
          struck outside the ladder *)
  elapsed : float;  (** seconds spent on this leaf's reachability *)
}

type cell_report = {
  index : int;  (** position of the cell in the input partition *)
  leaves : leaf list;
  proved_fraction : float;  (** sum over proved leaves of f^-depth *)
  elapsed : float;  (** the sum of its leaves' [elapsed] *)
}

type report = {
  cells : cell_report list;
  coverage : float;  (** percent, the paper's c *)
  elapsed : float;
  proved_cells : int;  (** cells with proved_fraction = 1 *)
  unknown_cells : int;  (** cells with at least one [Failed] leaf *)
  total_cells : int;
}

val leaf_failure : leaf -> Nncs_resilience.Failure.t option
val cell_has_failure : cell_report -> bool

val verify_partition :
  ?cancel:Nncs_resilience.Cancel.t ->
  ?config:config ->
  ?progress:(int -> int -> unit) ->
  ?on_cell:(cell_report -> unit) ->
  ?on_leaf:(int -> int list -> leaf -> unit) ->
  ?completed:cell_report list ->
  ?partial:(int * (int list * leaf) list) list ->
  System.t ->
  Symstate.t list ->
  report
(** Verify every cell of the partition.  Each cell's root starts on
    a shared leaf frontier; a leaf that cannot be proved (or fails with
    budget left: refinement as failure recovery) is split, and its
    children go back onto the frontier that [workers] domains pull
    from, so one hard cell's refinement fans out across every core.
    The frontier pops the deepest leaf first, then a leaf whose
    cell's budget has expired, then the lowest (cell index, path):
    with one worker that is exactly the depth-first recursion of
    Section 7.1 (cells in index order, each refinement tree in
    pre-order), so callbacks, journal records and step-budget verdicts
    follow that order.  Once a cell's budget is exhausted, or [cancel]
    is tripped, the cell stops refining.

    Reports are reassembled deterministically: each cell's leaves are
    sorted by path, which is the depth-first order, so verdicts,
    leaves and coverage do not depend on [workers] or [batch_leaves]
    whenever verdicts are budget-independent; per-leaf [elapsed]
    telemetry naturally varies between runs.

    Callbacks fire live from the worker that finished the work, so
    they must tolerate concurrent invocation:
    - [on_leaf cell path leaf] for every freshly computed {e terminal}
      leaf ([path] is the child-index path from the cell's root, [[]]
      for an unsplit cell) — the mid-cell journaling hook;
    - [on_cell] for each freshly computed cell report (but not the
      pre-[completed] ones) — the per-cell journaling hook;
    - [progress done total] after each finished cell.  Each cell
      finishes exactly once, so [progress] never passes [total].

    Fault isolation: a leaf whose analysis escapes every firewall is
    recorded as [Unknown (Worker_crashed _)] and its siblings go on; a
    worker domain that dies forfeits only its unfinished leaves, which
    are re-queued ([resilience.requeued_leaves]) and run by the
    surviving workers or the calling domain.

    [completed] (e.g. {!load_journal}[.completed_cells]) pre-fills
    results by [index]; those cells are skipped, not recomputed.
    [partial] ({!load_journal}[.partial_leaves]) replays terminal
    leaves of interrupted cells: recorded leaves are not recomputed
    (and not re-journaled through [on_leaf]), interior nodes on the
    way to them re-split deterministically without re-running
    reachability.

    [cancel] threads a cooperative cancellation token into every cell
    budget: once tripped, in-flight leaves unwind at their next budget
    gate (one control step), pending work degrades to
    [Failed (Cancelled _)] without being analysed, and the call returns
    a complete (all-cells-accounted) report promptly instead of running
    the partition to the end. *)

val coverage_of_cells : cell_report list -> float

val influence_order : System.t -> Symstate.t -> int list -> int list
(** The candidate dimensions sorted from most to least influential (see
    {!Most_influential}); exposed for tests and diagnostics.  The F#
    probes always run uncached: quantized cache hits would widen both
    halves of a bisection onto the same score box and erase the very
    differences the ordering measures. *)

(** {1 Journal serialization}

    One self-contained JSON object per cell; boxes round-trip through
    17-digit printing, so a resumed run reproduces the interrupted one's
    reports exactly. *)

val cell_report_to_json : cell_report -> Nncs_obs.Json.t
val cell_report_of_json : Nncs_obs.Json.t -> cell_report
val leaf_to_json : leaf -> Nncs_obs.Json.t
val leaf_of_json : Nncs_obs.Json.t -> leaf

val fingerprint : ?config:config -> System.t -> Symstate.t list -> string
(** A 16-hex-digit digest of the verification problem: the partition
    (cell boxes and commands), the command set, horizon and period, the
    spec names plus their sampled answers on every cell, and the
    analysis config (reach parameters, abstraction domain, split
    strategy, depth, degradation).  Two runs with the same fingerprint
    store compatible journals; a resume against a differing fingerprint
    must be refused — the journal's cell indices and verdicts would be
    meaningless.  [Spec.t] holds opaque predicates, so spec changes are
    detected through the per-cell probe bits rather than the predicate
    text. *)

val journal_meta : total:int -> fingerprint:string -> Nncs_obs.Json.t
(** The journal header line, recording the partition size and the
    problem {!fingerprint} so a resume against a different partition or
    spec is detected. *)

val leaf_record_to_json : cell:int -> path:int list -> leaf -> Nncs_obs.Json.t
(** A terminal leaf, journaled through the [on_leaf] hook of
    {!verify_partition} so [--resume] can restart mid-cell. *)

val leaf_record_of_json : Nncs_obs.Json.t -> int * int list * leaf

type journal_contents = {
  meta_total : int option;  (** the meta line's [total], if present *)
  meta_fingerprint : string option;
      (** the meta line's problem fingerprint (absent in v1 journals) *)
  completed_cells : cell_report list;
      (** full cell reports, deduplicated by index (last record wins),
          sorted by index *)
  partial_leaves : (int * (int list * leaf) list) list;
      (** per cell {e without} a full report: its journaled terminal
          leaves keyed by path (last record per path wins), sorted by
          cell — feed to [verify_partition ~partial] *)
}

val load_journal : string -> journal_contents
(** Parse a journal file.  Malformed lines (e.g. a crash-truncated
    partial record, possibly followed by later appends) are skipped with
    a warning on stderr — see {!Nncs_resilience.Journal.load}. *)

val report_to_json : report -> Nncs_obs.Json.t
(** The whole report as one JSON object ({!cell_report_to_json} per
    cell); round-trips exactly.  Used by the verification service's
    fingerprint-keyed verdict memo. *)

val report_of_json : Nncs_obs.Json.t -> report

(** {1 Pre-parsed jobs}

    The unit of work of a resident verification service
    ([Nncs_serve]): a fully resolved analysis configuration plus the
    initial cells. *)

type job = { job_config : config; job_cells : Symstate.t list }

val run_job :
  ?cancel:Nncs_resilience.Cancel.t ->
  ?progress:(int -> int -> unit) ->
  ?on_cell:(cell_report -> unit) ->
  System.t ->
  job ->
  string * report
(** [run_job sys job] is the problem {!fingerprint} of the job together
    with the {!verify_partition} report for it.  The fingerprint is
    computed before the run, so a caller that finds it in a memo can
    skip the run entirely; [progress] and [on_cell] are passed through
    to {!verify_partition}. *)
