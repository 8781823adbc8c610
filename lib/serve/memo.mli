(** The fingerprint-keyed verdict memo: tier 1 of the verification
    service.

    Maps job fingerprints to whole verification reports, so a job
    identical to one already answered returns instantly without
    touching the reachability pipeline.  The key is the
    {!Nncs.Verify.fingerprint} digest — covering the partition, the
    command set, the spec probes, the abstraction domain and input
    splits, and the analysis config, but {e not} the worker count,
    leaf batch width, or abstraction-cache settings, which cannot change
    verdicts — extended by {!Server} with the budget limits when any
    are set, because a budget-truncated report is not a valid answer
    under a different budget.  It covers neither the network weights,
    so one memo must never outlive the network set it was computed
    against.

    Thread-safe: dispatcher domains share one memo behind a mutex.

    Optionally bounded: with a [capacity], entries are kept in an
    intrusive LRU list (the {!Nncs_nnabs.Cache} idiom) and the
    least-recently-{!find}ed entry is evicted to admit a new one, so a
    long-lived server's memo cannot grow without bound.

    Optionally backed by an append-only JSONL journal (one
    [{"t":"verdict_memo","fingerprint":F,"report":R}] line per stored
    verdict): {!create} replays an existing file — tolerating
    crash-truncated lines, which {!Nncs_resilience.Journal.load} skips
    with a warning, and individually corrupt records, which replay
    skips the same way — and appends every new verdict, so a restarted
    server answers past queries from disk.  Evictions leave dead lines
    behind; the journal is compacted — rewritten to exactly the live
    entries, oldest first so replay reconstructs the recency order —
    whenever it exceeds [compact_factor] times the live size (checked
    at replay and after each store) and once more on {!close}. *)

type t

val create :
  ?path:string -> ?capacity:int -> ?compact_factor:int -> unit -> t
(** With [path], replay the journal at [path] (if any) and keep it open
    for appending.  With [capacity] (default unbounded; must be
    positive), bound the live entry count by LRU eviction — a journal
    longer than the capacity replays to the newest [capacity] entries.
    [compact_factor] (default 4, minimum 2) sets the dead-line
    tolerance before the journal is rewritten in place. *)

val find : t -> string -> Nncs.Verify.report option
(** Memo lookup by fingerprint; counts into the [serve.memo_hits] /
    [serve.memo_misses] metrics. *)

val peek : t -> string -> Nncs.Verify.report option
(** {!find} without touching the metrics — for diagnostics and bench
    verdict comparison. *)

val store : t -> string -> Nncs.Verify.report -> unit
(** Insert (and journal) the report under its fingerprint; a fingerprint
    already present keeps its incumbent report — both were computed from
    the same problem, and the incumbent is the one concurrent readers
    may already have returned. *)

val size : t -> int

val eviction_count : t -> int
(** LRU evictions since {!create} (0 for unbounded memos). *)

val close : t -> unit
(** Compact the journal if it holds dead lines, then close it.
    Idempotent. *)
