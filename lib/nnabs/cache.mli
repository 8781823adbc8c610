(** Process-wide sharded memo table for controller-abstraction (F#)
    results.

    Across a partitioned verification run — and, in a resident
    multi-query server, across {e jobs} — the same (network, previous
    command, input box) queries recur: every control step of every cell
    re-abstracts boxes that earlier steps, other worker domains, or
    earlier jobs already saw.  This cache memoizes the output box of an
    abstract transformer keyed by (network id, command, tag, input box
    bounds).

    {b Exact keys.} The key holds the query box's bounds as they are
    (only [-0.0] is normalised to [0.0]), and a miss runs the
    transformer on the query box itself.  A hit therefore returns the
    bits an uncached call returns for an equal box, and a cached run
    reports the verdicts of an uncached one.

    {b Concurrency.} The table is thread-safe: entries are distributed
    over [config.shards] independent LRU tables, each behind its own
    mutex, chosen by a hash of the key.  The locking discipline is: at
    most one shard lock is ever held, and never across the underlying
    abstraction computation — a miss releases the lock, runs [f], and
    re-locks to insert.  Two domains missing on the same key
    concurrently may therefore both compute it; the insert keeps the
    incumbent.  Per-shard LRU is exact; the process-wide eviction order
    is only approximately LRU (each shard evicts its own oldest).

    Hit/miss/eviction totals are additionally published process-wide
    through [Nncs_obs.Metrics] under [nnabs.cache_hits] /
    [nnabs.cache_misses] / [nnabs.cache_evictions].

    {b Soundness of the key.} The cache knows nothing about network
    weights: [net_id] is trusted to identify the function being
    abstracted.  Because {!shared} keeps one table alive for the whole
    process — across analyses, worker domains and server jobs, possibly
    of entirely different systems — [net_id] MUST be a process-unique
    identity of the network (use [Nncs_nn.Network.uid], as
    [Controller.abstract_scores] does), never an index that is only
    meaningful within one controller.  Keying on a local index silently
    serves one network's abstraction boxes for another's, an unsound
    result with no warning. *)

type config = {
  capacity : int;
      (** maximum number of entries over all shards; each shard evicts
          its own oldest-used entry at [capacity / shards] *)
  quantum : float;
      (** must be [0.0]: keys are exact.  The field stays only because
          [nncsbench.ml]'s [serve_cache] record names it; ROADMAP item
          1 deletes it with [Verify.scheduler] and [batch_leaves]. *)
  shards : int;
      (** number of independently locked LRU tables (>= 1); 1 restores
          a single exactly-LRU table *)
}

val default_config : config
(** [{ capacity = 4096; quantum = 0.0; shards = 8 }]. *)

type t

val create : config -> t
(** A fresh, empty cache.  Raises [Invalid_argument] on a non-positive
    capacity or shard count, or a quantum other than [0.0]. *)

val shared : config -> t
(** The process-wide cache, created on first use and shared by every
    domain (thread-safe).  A subsequent call with a different [config]
    replaces the shared cache with a fresh one; callers running
    concurrent analyses should agree on one config. *)

val find_or_compute :
  t ->
  net_id:int ->
  cmd:int ->
  ?tag:int ->
  Nncs_interval.Box.t ->
  (Nncs_interval.Box.t -> Nncs_interval.Box.t) ->
  Nncs_interval.Box.t
(** [find_or_compute t ~net_id ~cmd ~tag box f] returns the cached
    output for the key if present, else runs [f box] (outside the shard
    lock), stores and returns the result.  If another domain stored the
    key meanwhile, its value is kept and returned.  [net_id] must uniquely identify the network
    across the table's whole lifetime — pass [Nncs_nn.Network.uid], not
    an array index (see the soundness note above).  [tag] (default 0)
    distinguishes otherwise-identical queries that must not share
    entries — e.g. different abstract domains or split depths. *)

type stats = { hits : int; misses : int; evictions : int; size : int }

val stats : t -> stats
(** This instance's totals summed over its shards (the process-wide
    sums live in [Nncs_obs.Metrics]).  Taken shard by shard, so the
    numbers are a consistent snapshot per shard but not across shards
    under concurrent use. *)

val shard_sizes : t -> int array
(** Current entry count of each shard (diagnostics: key spread). *)

val clear : t -> unit
(** Drop every entry (statistics are kept). *)
