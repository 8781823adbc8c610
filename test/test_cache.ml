(* Controller-abstraction cache: quantized lookups stay sound (hits
   return supersets of the exact abstraction) even when worker domains
   hammer the sharded table concurrently, the LRU bound holds at
   capacity, all domains share one process-wide table, and a cached
   verification run reports the same verdicts as an uncached one. *)

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

(* ----- quantization ----- *)

let random_box rng dim w =
  B.of_bounds
    (Array.init dim (fun _ ->
         let c = Rng.uniform rng (-1.0) 1.0 in
         (c -. w, c +. w)))

let test_quantize_contains () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let box = random_box rng 4 (Rng.uniform rng 0.0 0.3) in
    let q = Rng.uniform rng 1e-6 0.1 in
    let qbox = Cache.quantize q box in
    check "quantized box contains the original" true (B.subset box qbox);
    (* idempotent: grid points snap to themselves *)
    check "quantization is idempotent" true (B.subset qbox (Cache.quantize q qbox))
  done;
  let box = random_box rng 3 0.1 in
  check "quantum 0 is the identity" true (Cache.quantize 0.0 box == box)

(* Outward snapping must keep containment even where floating-point
   rounding bites: |bound| / quantum near or past 2^52, quanta below one
   ulp of the bound, and divisions that overflow to infinity (the
   implementation falls back to the raw bound there). *)
let test_quantize_extreme_magnitudes () =
  let q = 0.005 in
  List.iter
    (fun x ->
      let box = B.of_bounds [| (x, x *. 1.0000001) |] in
      check
        (Printf.sprintf "containment at %g" x)
        true
        (B.subset box (Cache.quantize q box)))
    [ 1e15; 4.5e16; 7.3e17; 1e300; Float.max_float /. 2.0 ];
  List.iter
    (fun x ->
      let box = B.of_bounds [| (x *. 1.0000001, x) |] in
      check
        (Printf.sprintf "containment at %g" x)
        true
        (B.subset box (Cache.quantize q box)))
    [ -1e15; -4.5e16; -7.3e17; -1e300; -.Float.max_float /. 2.0 ]

let prop_quantize_extreme_sound =
  QCheck.Test.make ~count:2000
    ~name:"outward quantization contains the box at any magnitude"
    QCheck.(
      pair
        (pair (float_range (-1.0) 1.0) (int_range 0 300))
        (pair (int_range (-12) 2) (float_range 0.0 0.5)))
    (fun ((m, e), (qe, w)) ->
      let scale = 10.0 ** float_of_int e in
      let lo = m *. scale in
      let hi = lo +. (w *. scale) in
      let q = 10.0 ** float_of_int qe in
      QCheck.assume (Float.is_finite lo && Float.is_finite hi && lo <= hi);
      let box = B.of_bounds [| (lo, hi) |] in
      let qbox = Cache.quantize q box in
      B.subset box qbox
      && Float.is_finite (I.lo (B.get qbox 0))
      && Float.is_finite (I.hi (B.get qbox 0)))

(* ----- soundness of cached abstraction under quantization ----- *)

let test_cached_propagation_sound () =
  let rng = Rng.create 29 in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 3; 10; 10; 2 ] in
  let cache = Cache.create { Cache.capacity = 64; quantum = 0.02; shards = 4 } in
  let f b = T.propagate T.Symbolic net b in
  (* clustered queries: many boxes snap to the same quantized key, so
     later ones are served from the cache — every answer must still
     enclose the exact (uncached) abstraction of the query box *)
  let centers =
    Array.init 10 (fun _ -> Array.init 3 (fun _ -> Rng.uniform rng (-0.5) 0.5))
  in
  for _ = 1 to 300 do
    let center = centers.(Rng.int rng (Array.length centers)) in
    let box =
      B.of_bounds
        (Array.map
           (fun c ->
             let j = Rng.uniform rng 0.0 0.004 in
             (c -. 0.01 -. j, c +. 0.01 +. j))
           center)
    in
    let cached = Cache.find_or_compute cache ~net_id:0 ~cmd:0 box f in
    check "cached result encloses the exact abstraction" true
      (B.subset (f box) cached)
  done;
  let s = Cache.stats cache in
  check "clustered queries produced hits" true (s.Cache.hits > 0);
  check "hit rate consistent" true
    (Float.abs
       (Cache.hit_rate cache
       -. (float_of_int s.Cache.hits /. float_of_int (s.Cache.hits + s.Cache.misses)))
    < 1e-12)

(* ----- LRU eviction at capacity ----- *)

let test_lru_eviction () =
  (* one shard: the LRU order is global and eviction deterministic *)
  let cache = Cache.create { Cache.capacity = 4; quantum = 0.0; shards = 1 } in
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
  let cache = Cache.create { Cache.capacity = 8; quantum = 0.0; shards = 2 } in
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
  let cache = Cache.create { Cache.capacity = 64; quantum = 0.05; shards = 4 } in
  let box = B.of_bounds [| (-0.2, 0.2); (-0.1, 0.3) |] in
  let a = Controller.abstract_scores ~cache (ctrl net_a) ~box ~prev_cmd:0 in
  let b = Controller.abstract_scores ~cache (ctrl net_b) ~box ~prev_cmd:0 in
  let qbox = Cache.quantize 0.05 box in
  check "first network's scores enclose its exact abstraction" true
    (B.subset (T.propagate T.Symbolic net_a qbox) a);
  check "second network's scores enclose its exact abstraction" true
    (B.subset (T.propagate T.Symbolic net_b qbox) b);
  check "no cross-network hit: both queries computed" true
    ((Cache.stats cache).Cache.hits = 0)

(* ----- process-wide sharing ----- *)

let test_shared_process_wide () =
  let cfg = { Cache.capacity = 8; quantum = 0.0; shards = 2 } in
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

(* Four domains hammer overlapping quantized keys on a small table: every
   answer — fresh, hit, or the loser of a concurrent same-key miss race —
   must still enclose the exact abstraction of the query box, and the
   clustered traffic must actually produce cross-domain hits. *)
let test_concurrent_hits_sound () =
  let net = Net.create_mlp ~rng:(Rng.create 5) ~layer_sizes:[ 3; 12; 12; 2 ] in
  let cache =
    Cache.create { Cache.capacity = 128; quantum = 0.02; shards = 4 }
  in
  let f b = T.propagate T.Symbolic net b in
  let failures = Atomic.make 0 in
  let worker seed () =
    let rng = Rng.create seed in
    let centers =
      Array.init 6 (fun _ -> Array.init 3 (fun _ -> Rng.uniform rng (-0.4) 0.4))
    in
    for _ = 1 to 200 do
      let center = centers.(Rng.int rng (Array.length centers)) in
      let box =
        B.of_bounds
          (Array.map
             (fun c ->
               let j = Rng.uniform rng 0.0 0.003 in
               (c -. 0.008 -. j, c +. 0.008 +. j))
             center)
      in
      let cached = Cache.find_or_compute cache ~net_id:0 ~cmd:0 box f in
      if not (B.subset (f box) cached) then Atomic.incr failures
    done
  in
  let domains =
    (* two seed groups of two domains: the domains inside a group draw
       the same six centers, guaranteeing cross-domain key overlap *)
    Array.init 4 (fun i -> Domain.spawn (worker (100 + (i mod 2))))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "every concurrent answer sound" 0 (Atomic.get failures);
  let s = Cache.stats cache in
  check "overlapping traffic produced hits" true (s.Cache.hits > 0);
  check "statistics account every query" true
    (s.Cache.hits + s.Cache.misses = 4 * 200);
  check "table bounded by capacity" true (s.Cache.size <= 128);
  check "shard sizes sum to the table size" true
    (Array.fold_left ( + ) 0 (Cache.shard_sizes cache) = s.Cache.size)

(* Two networks queried concurrently through one shared table: the
   [net_id] ([Network.uid]) key component must keep their entries apart
   even under racy interleavings — an answer computed from the other
   network's weights would be silently unsound. *)
let test_concurrent_network_isolation () =
  let rng = Rng.create 23 in
  let net_a = Net.create_mlp ~rng ~layer_sizes:[ 2; 10; 2 ] in
  let net_b = Net.create_mlp ~rng ~layer_sizes:[ 2; 10; 2 ] in
  let cache =
    Cache.create { Cache.capacity = 64; quantum = 0.05; shards = 4 }
  in
  let failures = Atomic.make 0 in
  let worker net () =
    let f b = T.propagate T.Symbolic net b in
    for i = 0 to 99 do
      let c = float_of_int (i mod 5) *. 0.05 in
      let box = B.of_bounds [| (c -. 0.02, c +. 0.02); (-0.1, 0.1) |] in
      let cached =
        Cache.find_or_compute cache ~net_id:(Net.uid net) ~cmd:0 box f
      in
      if not (B.subset (f box) cached) then Atomic.incr failures
    done
  in
  let domains =
    [| Domain.spawn (worker net_a); Domain.spawn (worker net_b);
       Domain.spawn (worker net_a); Domain.spawn (worker net_b) |]
  in
  Array.iter Domain.join domains;
  Alcotest.(check int)
    "no cross-network contamination" 0 (Atomic.get failures);
  (* identical query streams per network: hits only within a network *)
  check "within-network hits occurred" true ((Cache.stats cache).Cache.hits > 0)

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
  let abs_cache = { Cache.capacity = 1024; quantum = 0.0; shards = 4 } in
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
  (* the warm run re-asks the cold run's exact keys (quantum 0): a
     [Reach] that stopped consulting the cache would score no hit *)
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
          Alcotest.test_case "quantize contains" `Quick test_quantize_contains;
          Alcotest.test_case "quantize extreme magnitudes" `Quick
            test_quantize_extreme_magnitudes;
          QCheck_alcotest.to_alcotest prop_quantize_extreme_sound;
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
