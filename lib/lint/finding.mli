(** A single static-analysis finding.

    {2 Checked [\[@@lint.guarded_by\]] annotations}

    Since the typedtree rewrite the [\[@@lint.guarded_by "m"\]]
    annotation is {e checked}, not declarative.  Attaching it to a
    top-level mutable binding (or to a mutable record label) does two
    things:

    - it suppresses the {!R3_top_mutable} advisory for that binding, and
    - it registers the binding with rule {!R5_guarded_by}: every read or
      write of the binding that is not inside a region holding the named
      lock becomes a P1 finding.

    The annotation grammar is a dotted name matched against the linter's
    canonical lock keys by suffix: ["m"] matches a lock whose key ends
    in [.m] (or is exactly [m]), ["Memo.lock"] matches
    [Serve.Memo.lock], ["shard.lock"] matches the [lock] field of any
    [shard] record.  A region holds a lock after [Mutex.lock m] (until a
    matching [Mutex.unlock m] in the same sequence), inside the thunk of
    [Mutex.protect m f], and inside literal function arguments of a
    lock-wrapper function — a same-file function whose body starts with
    [Mutex.lock]/[Mutex.protect] (e.g. the repo's [with_lock]
    [with_registry] idioms).  The analysis is lexical: a closure that
    escapes its locked region is assumed to run under the lock, and
    cross-function lock context is not propagated; see DESIGN.md §15 for
    the full list of limits. *)

type rule =
  | R1_bare_float      (** bare float arithmetic in soundness-critical code *)
  | R2_float_compare   (** polymorphic =/<>/compare/min/max at float type *)
  | R3_top_mutable     (** top-level mutable state without Atomic/Mutex/DLS *)
  | R3_mutex_unsafe    (** Mutex.lock without an exception-safe unlock *)
  | R4_poly_compare    (** structural equality on abstract domain values *)
  | R5_guarded_by      (** access to a [@@lint.guarded_by] binding outside its lock *)
  | R5_lock_order      (** cyclic lock-acquisition order (deadlock risk) *)
  | R6_atomic_rmw      (** Atomic.get flowing into Atomic.set: lost-update window *)
  | R6_atomic_publish  (** Atomic.t published through a non-atomic mutable cell *)
  | R6_faa_discard     (** fetch_and_add result discarded: use incr/decr *)
  | Parse_failure      (** the linter could not parse the file *)
  | Type_failure       (** the linter could not typecheck the file *)

type severity = P1 | P2

val rule_id : rule -> string
val severity : rule -> severity
val severity_id : severity -> string

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  binding : string;
  detail : string;
  message : string;
}

val compare_loc : t -> t -> int
val to_string : t -> string
val to_json : t -> Nncs_obs.Json.t
