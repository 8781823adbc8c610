module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module Metrics = Nncs_obs.Metrics

let m_hits = Metrics.counter "nnabs.cache_hits"
let m_misses = Metrics.counter "nnabs.cache_misses"
let m_evictions = Metrics.counter "nnabs.cache_evictions"

type config = { capacity : int; quantum : float; shards : int }

let default_config = { capacity = 4096; quantum = 0.005; shards = 8 }

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

type t = { config : config; shards : shard array }

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
  if not (Float.is_finite config.quantum) || config.quantum < 0.0 then
    invalid_arg "Cache.create: quantum must be finite and >= 0";
  if config.shards <= 0 then invalid_arg "Cache.create: non-positive shards";
  let per_shard =
    max 1 ((config.capacity + config.shards - 1) / config.shards)
  in
  {
    config;
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

(* Outward snap of one bound to the grid.  [floor (lo / q) * q] is
   computed in round-to-nearest, so it can land on the wrong side of
   [lo] — and once |lo| / q approaches 2^52 (or the division overflows)
   the error can exceed [q], or [q] can fall below one ulp of [s] so a
   single subtraction no longer moves it.  The correction therefore
   loops (bounded, since each step either moves [s] or proves it
   stuck), and any failure to restore containment — non-finite [s],
   stuck subtraction — falls back to the raw bound, which trivially
   satisfies the invariant at the price of an unaligned (rarely shared)
   key.  [+. 0.0] normalises -0.0 so structurally equal keys hash
   equally. *)
let max_correction_steps = 4

let snap_down q lo =
  let s = ref (Float.floor (lo /. q) *. q) in
  let n = ref 0 in
  while Float.is_finite !s && !s > lo && !n < max_correction_steps do
    let s' = !s -. q in
    if s' < !s then s := s' else n := max_correction_steps;
    incr n
  done;
  (if Float.is_finite !s && !s <= lo then !s else lo) +. 0.0
[@@lint.fp_exact
  "quantization is containment-checked: the loop verifies s <= lo and \
   falls back to the raw bound otherwise (see comment above)"]

let snap_up q hi =
  let s = ref (Float.ceil (hi /. q) *. q) in
  let n = ref 0 in
  while Float.is_finite !s && !s < hi && !n < max_correction_steps do
    let s' = !s +. q in
    if s' > !s then s := s' else n := max_correction_steps;
    incr n
  done;
  (if Float.is_finite !s && !s >= hi then !s else hi) +. 0.0
[@@lint.fp_exact "containment-checked, mirror of snap_down"]

let quantize_bounds quantum box =
  Array.init (B.dim box) (fun k ->
      let iv = B.get box k in
      let lo = I.lo iv and hi = I.hi iv in
      if quantum <= 0.0 then
        (lo +. 0.0, hi +. 0.0)
        [@lint.fp_exact "+. 0.0 only normalises -0.0 for key hashing"]
      else (snap_down quantum lo, snap_up quantum hi))

let quantize quantum box =
  if quantum <= 0.0 then box else B.of_bounds (quantize_bounds quantum box)

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

(* Probe, and on a miss run [f] on the quantized box OUTSIDE every shard
   lock: F# is the expensive part, and holding a lock here would
   serialize every domain whose keys land on that shard.  The price is
   that two domains missing on the same key concurrently both compute
   it — both results enclose F# of the same quantized box, so either is
   sound; [insert] keeps the incumbent, and the query is answered with
   the value actually stored. *)
let find_or_compute t ~net_id ~cmd ?(tag = 0) box f =
  let key = { net_id; cmd; tag; bounds = quantize_bounds t.config.quantum box } in
  let sh = shard_for t key in
  match probe sh key with
  | Some v -> v
  | None ->
      let qbox = if t.config.quantum <= 0.0 then box else B.of_bounds key.bounds in
      insert sh key (f qbox)

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

let hit_rate (t : t) =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0
  else
    (float_of_int s.hits /. float_of_int total)
    [@lint.fp_exact "telemetry ratio"]

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
