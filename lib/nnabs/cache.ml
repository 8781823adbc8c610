module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module Metrics = Nncs_obs.Metrics

let m_hits = Metrics.counter "nnabs.cache_hits"
let m_misses = Metrics.counter "nnabs.cache_misses"
let m_evictions = Metrics.counter "nnabs.cache_evictions"

type config = { capacity : int; quantum : float; shards : int }

let default_config = { capacity = 4096; quantum = 0.0; shards = 8 }

type key = { net_id : int; cmd : int; tag : int; bounds : (float * float) array }

(* Intrusive doubly-linked LRU list threaded through the entries; the
   sentinel's [next] is the most recently used entry, its [prev] the
   next eviction victim. *)
type entry = {
  key : key;
  value : B.t;
  mutable prev : entry;
  mutable next : entry;
}

(* One shard: an independent LRU table behind its own mutex.  The shard
   of a key is a pure function of the key, so no operation ever needs
   two shard locks — the locking discipline is "at most one shard lock,
   never held across the abstraction computation". *)
type shard = {
  lock : Mutex.t;
  table : (key, entry) Hashtbl.t;
  sentinel : entry;
  capacity : int;  (* per-shard entry bound *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = { shards : shard array }

let make_sentinel () =
  let rec sentinel =
    {
      key = { net_id = -1; cmd = -1; tag = 0; bounds = [||] };
      value = B.of_intervals [| I.zero |];
      prev = sentinel;
      next = sentinel;
    }
  in
  sentinel

let create (config : config) =
  if config.capacity <= 0 then invalid_arg "Cache.create: non-positive capacity";
  if not (Float.equal config.quantum 0.0) then
    invalid_arg "Cache.create: quantum must be 0.0 (keys are exact)";
  if config.shards <= 0 then invalid_arg "Cache.create: non-positive shards";
  let per_shard =
    max 1 ((config.capacity + config.shards - 1) / config.shards)
  in
  {
    shards =
      Array.init config.shards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create (min per_shard 1024);
            sentinel = make_sentinel ();
            capacity = per_shard;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
  }

let with_lock sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front sh e =
  e.next <- sh.sentinel.next;
  e.prev <- sh.sentinel;
  sh.sentinel.next.prev <- e;
  sh.sentinel.next <- e

(* The key is the query box's bounds as they are; [+. 0.0] only
   normalises -0.0, so boxes that compare equal hash equally. *)
let key_bounds box =
  Array.init (B.dim box) (fun k ->
      let iv = B.get box k in
      (I.lo iv +. 0.0, I.hi iv +. 0.0)
      [@lint.fp_exact "+. 0.0 only normalises -0.0 for key hashing"])

let shard_for t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

(* Locked probe of one key: a hit refreshes its LRU position.  Both
   outcomes are counted, per shard and process-wide. *)
let probe sh key =
  let cached =
    with_lock sh (fun () ->
        match Hashtbl.find_opt sh.table key with
        | Some e ->
            sh.hits <- sh.hits + 1;
            unlink e;
            push_front sh e;
            Some e.value
        | None ->
            sh.misses <- sh.misses + 1;
            None)
  in
  Metrics.incr (if Option.is_some cached then m_hits else m_misses);
  cached

(* Locked insert of a freshly computed value.  The incumbent wins: when
   another domain stored the key since the probe, its value is kept (and
   refreshed) to maximise sharing.  Returns the value actually stored. *)
let insert sh key value =
  with_lock sh (fun () ->
      match Hashtbl.find_opt sh.table key with
      | Some e ->
          unlink e;
          push_front sh e;
          e.value
      | None ->
          if Hashtbl.length sh.table >= sh.capacity then begin
            let victim = sh.sentinel.prev in
            unlink victim;
            Hashtbl.remove sh.table victim.key;
            sh.evictions <- sh.evictions + 1;
            Metrics.incr m_evictions
          end;
          let e = { key; value; prev = sh.sentinel; next = sh.sentinel } in
          Hashtbl.replace sh.table key e;
          push_front sh e;
          value)

(* Probe, and on a miss run [f] on the query box OUTSIDE every shard
   lock: F# is the expensive part, and holding a lock here would
   serialize every domain whose keys land on that shard.  The price is
   that two domains missing on the same key concurrently both compute
   it — F# is deterministic, so both results are the same bits;
   [insert] keeps the incumbent, and the query is answered with the
   value actually stored. *)
let find_or_compute t ~net_id ~cmd ?(tag = 0) box f =
  let key = { net_id; cmd; tag; bounds = key_bounds box } in
  let sh = shard_for t key in
  match probe sh key with Some v -> v | None -> insert sh key (f box)

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats (t : t) =
  Array.fold_left
    (fun acc sh ->
      with_lock sh (fun () ->
          {
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            evictions = acc.evictions + sh.evictions;
            size = acc.size + Hashtbl.length sh.table;
          }))
    { hits = 0; misses = 0; evictions = 0; size = 0 }
    t.shards

let shard_sizes (t : t) =
  Array.map (fun sh -> with_lock sh (fun () -> Hashtbl.length sh.table)) t.shards

let clear t =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          Hashtbl.reset sh.table;
          sh.sentinel.next <- sh.sentinel;
          sh.sentinel.prev <- sh.sentinel))
    t.shards

(* One cache per process: every worker domain — and, in a resident
   server, every job dispatched on any domain — shares the same sharded
   table, so an F# box computed once is reusable across the whole
   process lifetime.  The slot swap is mutex-protected; the table itself
   is safe to use concurrently (per-shard locks). *)
let shared_mutex = Mutex.create ()
let shared_slot : (config * t) option ref = ref None
[@@lint.guarded_by "shared_mutex"]

let shared config =
  Mutex.lock shared_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_mutex)
    (fun () ->
      match !shared_slot with
      | Some (c, t) when c = config -> t
      | _ ->
          let t = create config in
          shared_slot := Some (config, t);
          t)
