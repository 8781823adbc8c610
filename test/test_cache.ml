(* Controller-abstraction cache: keys are exact, so every answer — a
   fresh computation, a hit, or the loser of a concurrent same-key miss
   race — carries the bits of the uncached abstraction, even when
   worker domains hammer the sharded table concurrently; the LRU bound
   holds at capacity, all domains share one process-wide table, and a
   cached verification run reports the same verdicts as an uncached
   one. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Rng = Nncs_linalg.Rng
module T = Nncs_nnabs.Transformer
module Cache = Nncs_nnabs.Cache
module E = Nncs_ode.Expr
module Command = Nncs.Command
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Reach = Nncs.Reach
module Verify = Nncs.Verify
module Partition = Nncs.Partition

let check = Alcotest.(check bool)

let cache_config ~capacity ~shards = { Cache.default_config with capacity; shards }

(* bit-for-bit equality of two boxes, so -0.0 and 0.0 differ *)
let same_bits a b =
  let bits x = Int64.bits_of_float x in
  B.dim a = B.dim b
  && List.for_all
       (fun k ->
         let x = B.get a k and y = B.get b k in
         Int64.equal (bits (I.lo x)) (bits (I.lo y))
         && Int64.equal (bits (I.hi x)) (bits (I.hi y)))
       (List.init (B.dim a) Fun.id)

(* A fixed pool of query boxes around random centres: repeated draws
   from it recur as exact keys. *)
let box_pool rng ~size ~dim ~spread ~half_width =
  Array.init size (fun _ ->
      B.of_bounds
        (Array.init dim (fun _ ->
             let c = Rng.uniform rng (-.spread) spread in
             let w = half_width +. Rng.uniform rng 0.0 (half_width /. 2.0) in
             (c -. w, c +. w))))

let test_nonzero_quantum_refused () =
  check "quantum 0.005 raises Invalid_argument" true
    (match Cache.create { Cache.default_config with quantum = 0.005 } with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----- cached abstraction: the uncached bits, hit or miss ----- *)

let test_cached_propagation_sound () =
  let rng = Rng.create 29 in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 3; 10; 10; 2 ] in
  let cache = Cache.create (cache_config ~capacity:64 ~shards:4) in
  let f b = T.propagate T.Symbolic net b in
  (* repeated queries from a pool smaller than the table: later ones
     are hits, and every answer must be the uncached abstraction's
     bits *)
  let pool = box_pool rng ~size:10 ~dim:3 ~spread:0.5 ~half_width:0.01 in
  let drawn = Array.make (Array.length pool) false in
  for _ = 1 to 300 do
    let i = Rng.int rng (Array.length pool) in
    drawn.(i) <- true;
    let cached = Cache.find_or_compute cache ~net_id:0 ~cmd:0 pool.(i) f in
    check "cached result is the uncached abstraction" true
      (same_bits (f pool.(i)) cached)
  done;
  let distinct = Array.fold_left (fun a d -> if d then a + 1 else a) 0 drawn in
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss per distinct box" distinct s.Cache.misses;
  Alcotest.(check int) "every other query hits" (300 - distinct) s.Cache.hits

(* ----- LRU eviction at capacity ----- *)

let test_lru_eviction () =
  (* one shard: the LRU order is global and eviction deterministic *)
  let cache = Cache.create (cache_config ~capacity:4 ~shards:1) in
  let box = B.of_bounds [| (0.0, 1.0) |] in
  let computed = ref 0 in
  let query cmd =
    ignore
      (Cache.find_or_compute cache ~net_id:0 ~cmd box (fun b ->
           incr computed;
           b))
  in
  List.iter query [ 0; 1; 2; 3 ];
  Alcotest.(check int) "4 computations fill the table" 4 !computed;
  let s = Cache.stats cache in
  Alcotest.(check int) "size at capacity" 4 s.Cache.size;
  Alcotest.(check int) "no eviction yet" 0 s.Cache.evictions;
  query 0;
  (* key 0 is now most recent *)
  Alcotest.(check int) "hit costs no computation" 4 !computed;
  query 4;
  (* evicts the least recently used key, which is 1 *)
  let s = Cache.stats cache in
  Alcotest.(check int) "size still bounded" 4 s.Cache.size;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  query 0;
  Alcotest.(check int) "survivor 0 still cached" 5 !computed;
  query 1;
  Alcotest.(check int) "evicted key 1 recomputed" 6 !computed;
  let s = Cache.stats cache in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 6 s.Cache.misses;
  Cache.clear cache;
  Alcotest.(check int) "clear empties the table" 0 (Cache.stats cache).Cache.size;
  Alcotest.(check int) "clear keeps statistics" 2 (Cache.stats cache).Cache.hits

let test_tag_separates_entries () =
  let cache = Cache.create (cache_config ~capacity:8 ~shards:2) in
  let box = B.of_bounds [| (0.0, 1.0) |] in
  let wide = B.of_bounds [| (-9.0, 9.0) |] in
  let r0 =
    Cache.find_or_compute cache ~net_id:0 ~cmd:0 ~tag:0 box (fun b -> b)
  in
  let r1 =
    Cache.find_or_compute cache ~net_id:0 ~cmd:0 ~tag:1 box (fun _ -> wide)
  in
  check "tags do not share entries" true (not (B.subset wide r0));
  check "tag 1 computed its own value" true (B.subset wide r1)

(* Regression: the key must identify the *network*, not its index
   inside one controller.  Two systems verified back-to-back in the same
   process share the domain cache; with index-based keys the second
   one's queries would hit entries computed from the first one's
   weights — silently unsound. *)
let test_shared_cache_distinct_networks () =
  let rng = Rng.create 17 in
  let commands = Command.make [| [| 0.0 |]; [| 1.0 |] |] in
  let ctrl net =
    Controller.make ~period:1.0 ~commands ~networks:[| net |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()
  in
  let net_a = Net.create_mlp ~rng ~layer_sizes:[ 2; 8; 2 ] in
  let net_b = Net.create_mlp ~rng ~layer_sizes:[ 2; 8; 2 ] in
  let cache = Cache.create (cache_config ~capacity:64 ~shards:4) in
  let box = B.of_bounds [| (-0.2, 0.2); (-0.1, 0.3) |] in
  let scores ?cache net = Controller.abstract_scores ?cache (ctrl net) ~box ~prev_cmd:0 in
  let a = scores ~cache net_a in
  let b = scores ~cache net_b in
  check "first network's scores are its uncached abstraction" true
    (same_bits (scores net_a) a);
  check "second network's scores are its uncached abstraction" true
    (same_bits (scores net_b) b);
  check "no cross-network hit: both queries computed" true
    ((Cache.stats cache).Cache.hits = 0);
  (* a repeat of each query hits its own network's entry *)
  check "repeat of the first network is a hit with its bits" true
    (same_bits a (scores ~cache net_a));
  check "repeat of the second network is a hit with its bits" true
    (same_bits b (scores ~cache net_b));
  Alcotest.(check int) "both repeats hit" 2 (Cache.stats cache).Cache.hits

(* ----- process-wide sharing ----- *)

let test_shared_process_wide () =
  let cfg = cache_config ~capacity:8 ~shards:2 in
  let mine = Cache.shared cfg in
  check "same config, same table" true (Cache.shared cfg == mine);
  let workers =
    Array.init 3 (fun _ -> Domain.spawn (fun () -> Cache.shared cfg))
  in
  let tables = Array.map Domain.join workers in
  Array.iter
    (fun t -> check "worker sees the caller's table" true (t == mine))
    tables;
  (* a different config replaces the process table *)
  let bigger = Cache.shared { cfg with Cache.capacity = 16 } in
  check "config change gives a fresh table" true (bigger != mine);
  check "new config is sticky" true (Cache.shared { cfg with Cache.capacity = 16 } == bigger)

(* ----- concurrent domains on one sharded table ----- *)

(* [find_or_compute] through [f], noting whether this query computed:
   a query that did not is a hit. *)
let query_counting cache ~net_id box f =
  let computed = ref false in
  let v =
    Cache.find_or_compute cache ~net_id ~cmd:0 box (fun b ->
        computed := true;
        f b)
  in
  (v, not !computed)

(* Four domains hammer one small table.  Each draws from its seed
   group's fixed pool of boxes; the two domains of a group share a
   pool, so a domain's first query of a box can be answered by the
   entry its partner stored — a cross-domain hit, which the test
   requires.  Every answer must carry the uncached bits. *)
let test_concurrent_hits_sound () =
  let net = Net.create_mlp ~rng:(Rng.create 5) ~layer_sizes:[ 3; 12; 12; 2 ] in
  let cache = Cache.create (cache_config ~capacity:128 ~shards:4) in
  let f b = T.propagate T.Symbolic net b in
  let failures = Atomic.make 0 and cross_hits = Atomic.make 0 in
  let worker i () =
    let pool =
      box_pool (Rng.create (100 + (i mod 2))) ~size:24 ~dim:3 ~spread:0.4
        ~half_width:0.008
    in
    let rng = Rng.create (200 + i) in
    let seen = Array.make (Array.length pool) false in
    for _ = 1 to 200 do
      let j = Rng.int rng (Array.length pool) in
      let cached, hit = query_counting cache ~net_id:0 pool.(j) f in
      if not (same_bits (f pool.(j)) cached) then Atomic.incr failures;
      if hit && not seen.(j) then Atomic.incr cross_hits;
      seen.(j) <- true
    done
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "every concurrent answer has the uncached bits" 0
    (Atomic.get failures);
  check "domains hit each other's entries" true (Atomic.get cross_hits > 0);
  let s = Cache.stats cache in
  check "statistics account every query" true
    (s.Cache.hits + s.Cache.misses = 4 * 200);
  check "table bounded by capacity" true (s.Cache.size <= 128);
  check "shard sizes sum to the table size" true
    (Array.fold_left ( + ) 0 (Cache.shard_sizes cache) = s.Cache.size)

(* Two networks queried concurrently through one shared table, on the
   same boxes: the [net_id] ([Network.uid]) key component must keep
   their entries apart even under racy interleavings — an answer
   computed from the other network's weights would be silently
   unsound.  The two domains of one network share its entries. *)
let test_concurrent_network_isolation () =
  let rng = Rng.create 23 in
  let net_a = Net.create_mlp ~rng ~layer_sizes:[ 2; 10; 2 ] in
  let net_b = Net.create_mlp ~rng ~layer_sizes:[ 2; 10; 2 ] in
  let cache = Cache.create (cache_config ~capacity:64 ~shards:4) in
  let pool =
    box_pool (Rng.create 31) ~size:16 ~dim:2 ~spread:0.2 ~half_width:0.02
  in
  let failures = Atomic.make 0 and cross_hits = Atomic.make 0 in
  let worker net seed () =
    let f b = T.propagate T.Symbolic net b in
    let rng = Rng.create seed in
    let seen = Array.make (Array.length pool) false in
    for _ = 1 to 100 do
      let j = Rng.int rng (Array.length pool) in
      let cached, hit = query_counting cache ~net_id:(Net.uid net) pool.(j) f in
      if not (same_bits (f pool.(j)) cached) then Atomic.incr failures;
      if hit && not seen.(j) then Atomic.incr cross_hits;
      seen.(j) <- true
    done
  in
  let domains =
    [| Domain.spawn (worker net_a 1); Domain.spawn (worker net_b 2);
       Domain.spawn (worker net_a 3); Domain.spawn (worker net_b 4) |]
  in
  Array.iter Domain.join domains;
  Alcotest.(check int)
    "no cross-network contamination" 0 (Atomic.get failures);
  check "domains of one network hit each other's entries" true
    (Atomic.get cross_hits > 0);
  check "at most one entry per (network, box)" true
    ((Cache.stats cache).Cache.size <= 2 * Array.length pool)

(* ----- cached vs uncached verification verdicts ----- *)
(* the homing loop of test_verify: x' = u, argmin picks -1 above x = 1 *)

let homing_system () =
  let commands = Command.make [| [| -1.0 |]; [| -0.5 |] |] in
  let network =
    Net.make ~input_dim:1
      [|
        {
          Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
          biases = [| 1.0; -1.0 |];
          activation = Act.Linear;
        };
      |]
  in
  let controller =
    Controller.make ~period:0.5 ~commands ~networks:[| network |]
      ~select:(fun _ -> 0)
      ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ()
  in
  System.make ~plant:(Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |])
    ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps:10

let config ?abs_cache workers =
  {
    Verify.default_config with
    reach = { Reach.default_config with abs_cache };
    strategy = Verify.All_dims [ 0 ];
    workers;
  }

let leaf_verdicts (r : Verify.report) =
  List.map
    (fun (c : Verify.cell_report) ->
      ( c.Verify.index,
        List.map
          (fun (l : Verify.leaf) -> (l.Verify.depth, l.Verify.proved))
          c.Verify.leaves ))
    r.Verify.cells

let test_cached_verdicts_identical () =
  let sys = homing_system () in
  let cells =
    Partition.with_command 0
      (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| 8 |])
  in
  let abs_cache = cache_config ~capacity:1024 ~shards:4 in
  let plain = Verify.verify_partition ~config:(config 1) sys cells in
  let cached =
    Verify.verify_partition ~config:(config ~abs_cache 1) sys cells
  in
  let hits = Nncs_obs.Metrics.counter "nnabs.cache_hits" in
  let hits_cold = Nncs_obs.Metrics.value hits in
  (* workers > 1: all domains share the process-wide sharded table *)
  let parallel =
    Verify.verify_partition ~config:(config ~abs_cache 4) sys cells
  in
  (* the warm run re-asks the cold run's exact keys: a [Reach] that
     stopped consulting the cache would score no hit *)
  check "warm run hits the cache" true
    (Nncs_obs.Metrics.value hits > hits_cold);
  Alcotest.(check (float 0.0))
    "cached coverage identical" plain.Verify.coverage cached.Verify.coverage;
  Alcotest.(check (float 0.0))
    "parallel cached coverage identical" plain.Verify.coverage
    parallel.Verify.coverage;
  check "cached leaf verdicts identical" true
    (leaf_verdicts plain = leaf_verdicts cached);
  check "parallel cached leaf verdicts identical" true
    (leaf_verdicts plain = leaf_verdicts parallel)

let () =
  Alcotest.run "nnabs-cache"
    [
      ( "cache",
        [
          Alcotest.test_case "nonzero quantum refused" `Quick
            test_nonzero_quantum_refused;
          Alcotest.test_case "cached propagation sound" `Quick
            test_cached_propagation_sound;
          Alcotest.test_case "shared cache, distinct networks" `Quick
            test_shared_cache_distinct_networks;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "tags separate entries" `Quick
            test_tag_separates_entries;
          Alcotest.test_case "process-wide sharing" `Quick
            test_shared_process_wide;
          Alcotest.test_case "concurrent hits sound" `Quick
            test_concurrent_hits_sound;
          Alcotest.test_case "concurrent network isolation" `Quick
            test_concurrent_network_isolation;
          Alcotest.test_case "cached verdicts identical" `Quick
            test_cached_verdicts_identical;
        ] );
    ]
