(* Tests for the stdx utility layer: RNG determinism and uniformity,
   power-law calibration, heap ordering, hashing, statistics. *)

let test_rng_determinism () =
  let a = Stdx.Rng.create 42 and b = Stdx.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stdx.Rng.int64 a) (Stdx.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Stdx.Rng.create 1 and b = Stdx.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Stdx.Rng.int64 a = Stdx.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Stdx.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Stdx.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_float_bounds () =
  let rng = Stdx.Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Stdx.Rng.float rng 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: 10 buckets, 100k draws, each bucket
     within 5% of the expectation. *)
  let rng = Stdx.Rng.create 2024 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Stdx.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 20 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_rng_split_independent () =
  let parent = Stdx.Rng.create 5 in
  let child = Stdx.Rng.split parent in
  let c1 = Stdx.Rng.int64 child in
  let p1 = Stdx.Rng.int64 parent in
  Alcotest.(check bool) "values differ" true (c1 <> p1)

let test_rng_derive_stable () =
  (* derive is a pure function of (parent state, index): repeated
     derivations agree, and the parent's own stream is untouched. *)
  let parent = Stdx.Rng.create 42 in
  let witness = Stdx.Rng.copy parent in
  let a = Stdx.Rng.derive parent 3 and b = Stdx.Rng.derive parent 3 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same child stream" (Stdx.Rng.int64 a)
      (Stdx.Rng.int64 b)
  done;
  (* Interleave more derivations: still no effect on the parent. *)
  ignore (Stdx.Rng.derive parent 0);
  ignore (Stdx.Rng.derive parent 1000);
  for _ = 1 to 100 do
    Alcotest.(check int64) "parent not advanced" (Stdx.Rng.int64 witness)
      (Stdx.Rng.int64 parent)
  done

let test_rng_derive_order_independent () =
  (* The whole point vs [split]: the i-th child does not depend on how
     many other children were derived first. *)
  let p1 = Stdx.Rng.create 7 and p2 = Stdx.Rng.create 7 in
  ignore (Stdx.Rng.derive p2 0);
  ignore (Stdx.Rng.derive p2 1);
  ignore (Stdx.Rng.derive p2 2);
  let a = Stdx.Rng.derive p1 5 and b = Stdx.Rng.derive p2 5 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "index alone decides" (Stdx.Rng.int64 a)
      (Stdx.Rng.int64 b)
  done

let test_rng_derive_independent_streams () =
  (* Sibling children, and child vs parent, must look unrelated: over
     10k paired draws, agreement and simple lag-0 sign correlation both
     stay near chance. *)
  let checks =
    let parent = Stdx.Rng.create 2024 in
    [
      ("siblings 0/1", Stdx.Rng.derive parent 0, Stdx.Rng.derive parent 1);
      ("siblings 1/2", Stdx.Rng.derive parent 1, Stdx.Rng.derive parent 2);
      ("child vs parent", Stdx.Rng.derive parent 0, parent);
    ]
  in
  List.iter
    (fun (name, a, b) ->
      let n = 10_000 in
      let equal = ref 0 and same_sign = ref 0 in
      for _ = 1 to n do
        let x = Stdx.Rng.int64 a and y = Stdx.Rng.int64 b in
        if x = y then incr equal;
        if (x < 0L) = (y < 0L) then incr same_sign
      done;
      if !equal > 2 then Alcotest.failf "%s: %d equal draws" name !equal;
      (* Sign agreement is Binomial(10k, 1/2): 5 sigma ~ 250. *)
      if abs (!same_sign - (n / 2)) > 250 then
        Alcotest.failf "%s: sign correlation (%d/%d)" name !same_sign n)
    checks

let test_rng_derive_negative_raises () =
  let rng = Stdx.Rng.create 1 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: negative index") (fun () ->
      ignore (Stdx.Rng.derive rng (-1)))

let test_shuffle_permutation () =
  let rng = Stdx.Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Stdx.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Stdx.Rng.create 11 in
  let arr = Array.init 20 Fun.id in
  let s = Stdx.Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

let test_sample_too_many () =
  let rng = Stdx.Rng.create 11 in
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample_without_replacement: k > length")
    (fun () -> ignore (Stdx.Rng.sample_without_replacement rng 3 [| 1; 2 |]))

let test_power_law_bounds () =
  let pl = Stdx.Power_law.make ~alpha:2.0 ~lo:1 ~hi:5000 in
  let rng = Stdx.Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Stdx.Power_law.sample pl rng in
    if v < 1 || v > 5000 then Alcotest.failf "sample out of range: %d" v
  done

let test_power_law_calibration () =
  (* The paper's workload: sizes in [1,5000], mean ~33.3 packets. *)
  let target = 1_000_000.0 /. 30_000.0 in
  let pl = Stdx.Power_law.calibrate ~lo:1 ~hi:5000 ~mean:target in
  Alcotest.(check (float 0.01)) "analytic mean" target (Stdx.Power_law.mean pl);
  let rng = Stdx.Rng.create 23 in
  let n = 200_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Stdx.Power_law.sample pl rng
  done;
  let empirical = float_of_int !total /. float_of_int n in
  (* Heavy tail: generous 15% tolerance on the empirical mean. *)
  if abs_float (empirical -. target) > 0.15 *. target then
    Alcotest.failf "empirical mean %.2f too far from %.2f" empirical target

let test_power_law_skew () =
  (* Power-law: the median must sit far below the mean. *)
  let pl = Stdx.Power_law.calibrate ~lo:1 ~hi:5000 ~mean:33.3 in
  let rng = Stdx.Rng.create 29 in
  let samples = Array.init 50_000 (fun _ -> float_of_int (Stdx.Power_law.sample pl rng)) in
  let median = Stdx.Stats.percentile samples 0.5 in
  Alcotest.(check bool) "median << mean" true (median < 10.0)

let test_heap_sorts () =
  let h = Stdx.Heap.create ~cmp:compare in
  let rng = Stdx.Rng.create 31 in
  let values = List.init 500 (fun _ -> Stdx.Rng.int rng 1000) in
  List.iter (Stdx.Heap.push h) values;
  Alcotest.(check int) "length" 500 (Stdx.Heap.length h);
  let drained = List.init 500 (fun _ -> Stdx.Heap.pop_exn h) in
  Alcotest.(check (list int)) "sorted drain" (List.sort compare values) drained;
  Alcotest.(check bool) "empty" true (Stdx.Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Stdx.Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "peek empty" None (Stdx.Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Stdx.Heap.pop h);
  Stdx.Heap.push h 5;
  Stdx.Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (Stdx.Heap.peek h);
  Alcotest.(check int) "peek does not remove" 2 (Stdx.Heap.length h)

let test_heap_to_sorted_list () =
  let h = Stdx.Heap.create ~cmp:compare in
  List.iter (Stdx.Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Stdx.Heap.to_sorted_list h);
  Alcotest.(check int) "non destructive" 3 (Stdx.Heap.length h)

let test_heap_pop_releases_slot () =
  (* The backing array must not retain popped elements: pop a boxed
     value, drop our own reference, and check a weak pointer to it is
     cleared by a full GC while the heap itself stays alive. *)
  let h = Stdx.Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  let weak = Weak.create 3 in
  for i = 0 to 2 do
    let v = (i, ref i) in
    Weak.set weak i (Some v);
    Stdx.Heap.push h v
  done;
  (* Two pops leave one live element; a naive "overwrite with the old
     root" fix would still pin element 1 in the vacated slot. *)
  ignore (Stdx.Heap.pop_exn h);
  ignore (Stdx.Heap.pop_exn h);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped element 0 collected" false (Weak.check weak 0);
  Alcotest.(check bool) "popped element 1 collected" false (Weak.check weak 1);
  Alcotest.(check bool) "live element 2 retained" true (Weak.check weak 2);
  Alcotest.(check int) "heap still holds the survivor" 1 (Stdx.Heap.length h)

let qcheck_heap_property =
  QCheck.Test.make ~count:200 ~name:"heap drains any int list sorted"
    QCheck.(list int)
    (fun l ->
      let h = Stdx.Heap.create ~cmp:compare in
      List.iter (Stdx.Heap.push h) l;
      let drained = List.filter_map (fun _ -> Stdx.Heap.pop h) l in
      drained = List.sort compare l)

let qcheck_heap_interleaved =
  (* Heap-sort equivalence under interleaved push/pop: any mix of
     pushes and pops pops exactly the running minima a reference
     sorted-list model would — exercises the hole-insertion sifts from
     intermediate (not just freshly built) arrangements. *)
  QCheck.Test.make ~count:200 ~name:"heap matches sorted-list model under mixed ops"
    QCheck.(list (option int))
    (fun ops ->
      let h = Stdx.Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            Stdx.Heap.push h x;
            model := List.sort compare (x :: !model);
            true
          | None -> (
            let got = Stdx.Heap.pop h in
            match (got, !model) with
            | None, [] -> true
            | Some v, m :: rest when v = m ->
              model := rest;
              true
            | _ -> false))
        ops
      && Stdx.Heap.to_sorted_list h = !model)

(* ---- Domain_pool -------------------------------------------------- *)

let test_domain_pool_ordered () =
  (* Positional results whatever the parallelism: result.(i) = f arr.(i). *)
  let arr = Array.init 257 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) arr in
  List.iter
    (fun jobs ->
      let got = Stdx.Domain_pool.map ~jobs (fun i -> i * i) arr in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expected got)
    [ 1; 2; 8 ]

let test_domain_pool_empty_and_overprovisioned () =
  Alcotest.(check (array int)) "empty input" [||]
    (Stdx.Domain_pool.map ~jobs:8 (fun i -> i) [||]);
  (* More jobs than cells must neither hang nor duplicate work. *)
  Alcotest.(check (array int)) "jobs > cells" [| 10; 20 |]
    (Stdx.Domain_pool.map ~jobs:8 (fun i -> i * 10) [| 1; 2 |])

let test_domain_pool_exception_propagates () =
  (* A crashing job re-raises at the map call site (no hang), for both
     the sequential and the parallel path. *)
  List.iter
    (fun jobs ->
      match
        Stdx.Domain_pool.map ~jobs
          (fun i -> if i = 13 then failwith "boom" else i)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Failure" jobs
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "jobs=%d re-raises" jobs)
          "boom" msg)
    [ 1; 4 ]

let test_domain_pool_reuse () =
  (* One pool, several batches: workers survive between maps. *)
  let pool = Stdx.Domain_pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Stdx.Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "jobs" 4 (Stdx.Domain_pool.jobs pool);
      for round = 1 to 3 do
        let arr = Array.init 50 (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map succ arr)
          (Stdx.Domain_pool.map_pool pool succ arr)
      done)

let test_domain_pool_invalid_jobs () =
  Alcotest.check_raises "map jobs < 1"
    (Invalid_argument "Domain_pool.map: jobs must be >= 1") (fun () ->
      ignore (Stdx.Domain_pool.map ~jobs:0 Fun.id [| 1 |]));
  Alcotest.check_raises "create jobs < 1"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Stdx.Domain_pool.create ~jobs:0 ()))

let test_xhash_deterministic () =
  Alcotest.(check int64) "stable string hash" (Stdx.Xhash.string "hello")
    (Stdx.Xhash.string "hello");
  Alcotest.(check bool) "different inputs differ" true
    (Stdx.Xhash.string "hello" <> Stdx.Xhash.string "hellp")

let test_xhash_unit_interval () =
  for i = 0 to 1000 do
    let u = Stdx.Xhash.to_unit_interval (Stdx.Xhash.ints [ i; i * 7 ]) in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "out of unit interval: %f" u
  done

let test_xhash_spread () =
  (* Hash values of consecutive ints should spread over buckets. *)
  let buckets = Array.make 16 0 in
  for i = 0 to 15_999 do
    let b = Stdx.Xhash.to_range (Stdx.Xhash.ints [ i ]) 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c -> if c < 700 || c > 1300 then Alcotest.failf "skewed bucket: %d" c)
    buckets

let test_xhash_fmix64_avalanche () =
  (* The murmur3 finalizer's contract: a single-bit input flip changes
     about half of the 64 output bits.  Raw FNV fails this badly for
     small integer inputs, which is why the state digests finalize. *)
  let popcount x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr c
    done;
    !c
  in
  Alcotest.(check int64) "zero is the fixed point" 0L (Stdx.Xhash.fmix64 0L);
  let n = 500 in
  let total = ref 0 in
  for i = 1 to n do
    let x = Int64.of_int (i * 2654435761) in
    let flipped = Int64.logxor x (Int64.shift_left 1L (i mod 64)) in
    total :=
      !total
      + popcount (Int64.logxor (Stdx.Xhash.fmix64 x) (Stdx.Xhash.fmix64 flipped))
  done;
  let mean = float_of_int !total /. float_of_int n in
  if mean < 28.0 || mean > 36.0 then
    Alcotest.failf "avalanche mean %.2f, expected ~32" mean

let qcheck_fmix64_injective =
  (* fmix64 is a bijection on int64: no two distinct inputs may ever
     collide (the digest's collision resistance leans on this). *)
  QCheck.Test.make ~count:500 ~name:"fmix64 never collides"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      a = b || Stdx.Xhash.fmix64 a <> Stdx.Xhash.fmix64 b)

let test_count_min_never_undercounts () =
  let cm = Stdx.Count_min.create ~epsilon:0.01 ~delta:0.01 () in
  let rng = Stdx.Rng.create 3 in
  let truth = Hashtbl.create 64 in
  for _ = 1 to 5_000 do
    let key = Int64.of_int (Stdx.Rng.int rng 500) in
    let v = float_of_int (1 + Stdx.Rng.int rng 10) in
    Stdx.Count_min.add cm key v;
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt truth key) in
    Hashtbl.replace truth key (prev +. v)
  done;
  Hashtbl.iter
    (fun key exact ->
      let est = Stdx.Count_min.estimate cm key in
      if est < exact -. 1e-9 then
        Alcotest.failf "undercount: key %Ld est %f exact %f" key est exact)
    truth

let test_count_min_error_bound () =
  let epsilon = 0.01 in
  let cm = Stdx.Count_min.create ~epsilon ~delta:0.01 () in
  let rng = Stdx.Rng.create 5 in
  let truth = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    let key = Int64.of_int (Stdx.Rng.int rng 2000) in
    Stdx.Count_min.add cm key 1.0;
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt truth key) in
    Hashtbl.replace truth key (prev +. 1.0)
  done;
  let budget = epsilon *. Stdx.Count_min.total cm in
  let violations = ref 0 and n = ref 0 in
  Hashtbl.iter
    (fun key exact ->
      incr n;
      if Stdx.Count_min.estimate cm key -. exact > budget then incr violations)
    truth;
  (* The bound holds per key with probability 1 - delta = 0.99. *)
  if float_of_int !violations > 0.05 *. float_of_int !n then
    Alcotest.failf "%d/%d estimates exceeded the CMS error bound" !violations !n

let test_count_min_unknown_key () =
  let cm = Stdx.Count_min.create () in
  Alcotest.(check (float 1e-9)) "empty sketch" 0.0
    (Stdx.Count_min.estimate cm 42L)

let test_count_min_rejects_negative () =
  let cm = Stdx.Count_min.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Count_min.add: value must be finite and non-negative")
    (fun () -> Stdx.Count_min.add cm 1L (-1.0))

let test_stats_summary () =
  let s = Stdx.Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 s.Stdx.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stdx.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stdx.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stdx.Stats.max

let test_stats_percentile () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stdx.Stats.percentile samples 0.5);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stdx.Stats.percentile samples 1.0)

let test_stats_percentiles_batch () =
  (* The sort-once batch must agree exactly with individual calls. *)
  let rng = Stdx.Rng.create 41 in
  let samples = Array.init 317 (fun _ -> Stdx.Rng.float rng 100.0) in
  let qs = [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ] in
  let batch = Stdx.Stats.percentiles samples qs in
  List.iter2
    (fun q v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f" q)
        (Stdx.Stats.percentile samples q)
        v)
    qs batch;
  Alcotest.(check (list (float 0.0))) "empty query list" []
    (Stdx.Stats.percentiles samples [])

let test_fvec_basic () =
  let v = Stdx.Fvec.create () in
  Alcotest.(check int) "empty" 0 (Stdx.Fvec.length v);
  Alcotest.(check (array (float 0.0))) "empty array" [||] (Stdx.Fvec.to_array v);
  (* Push past the initial capacity to exercise growth. *)
  for i = 0 to 99 do
    Stdx.Fvec.push v (float_of_int i)
  done;
  Alcotest.(check int) "length" 100 (Stdx.Fvec.length v);
  Alcotest.(check (float 0.0)) "get first" 0.0 (Stdx.Fvec.get v 0);
  Alcotest.(check (float 0.0)) "get last" 99.0 (Stdx.Fvec.get v 99);
  Alcotest.(check (array (float 0.0))) "insertion order"
    (Array.init 100 float_of_int)
    (Stdx.Fvec.to_array v);
  Alcotest.check_raises "oob"
    (Invalid_argument "Fvec.get: index out of bounds") (fun () ->
      ignore (Stdx.Fvec.get v 100));
  Stdx.Fvec.clear v;
  Alcotest.(check int) "cleared" 0 (Stdx.Fvec.length v);
  Stdx.Fvec.push v 7.0;
  Alcotest.(check (float 0.0)) "reusable after clear" 7.0 (Stdx.Fvec.get v 0)

let test_stats_imbalance () =
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (Stdx.Stats.imbalance [| 2.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "skewed" 1.5 (Stdx.Stats.imbalance [| 1.0; 3.0 |])

let test_stats_single_sample () =
  (* One sample is every quantile and its own whole summary. *)
  let s = Stdx.Stats.summarize [| 42.0 |] in
  Alcotest.(check int) "count" 1 s.Stdx.Stats.count;
  Alcotest.(check (float 0.0)) "mean" 42.0 s.Stdx.Stats.mean;
  Alcotest.(check (float 0.0)) "stddev" 0.0 s.Stdx.Stats.stddev;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g" (100.0 *. q))
        42.0
        (Stdx.Stats.percentile [| 42.0 |] q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_stats_empty_raises () =
  Alcotest.check_raises "summarize"
    (Invalid_argument "Stats.summarize: empty input") (fun () ->
      ignore (Stdx.Stats.summarize [||]));
  Alcotest.check_raises "percentile"
    (Invalid_argument "Stats.percentile: empty input") (fun () ->
      ignore (Stdx.Stats.percentile [||] 0.5));
  Alcotest.check_raises "percentiles"
    (Invalid_argument "Stats.percentiles: empty input") (fun () ->
      ignore (Stdx.Stats.percentiles [||] [ 0.5 ]))

let test_stats_nan_guard () =
  let poisoned = [| 1.0; Float.nan; 3.0 |] in
  Alcotest.check_raises "summarize"
    (Invalid_argument "Stats.summarize: NaN sample") (fun () ->
      ignore (Stdx.Stats.summarize poisoned));
  Alcotest.check_raises "percentile"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stdx.Stats.percentile poisoned 0.5));
  Alcotest.check_raises "percentiles"
    (Invalid_argument "Stats.percentiles: NaN sample") (fun () ->
      ignore (Stdx.Stats.percentiles poisoned [ 0.5 ]));
  (* Infinities stay legal: they order and summarize meaningfully. *)
  Alcotest.(check (float 0.0)) "infinite max" infinity
    (Stdx.Stats.percentile [| 1.0; infinity |] 1.0);
  Alcotest.(check (float 0.0)) "finite median" 1.0
    (Stdx.Stats.percentile [| 1.0; infinity |] 0.5)

let test_count_min_rejects_nonfinite () =
  let cm = Stdx.Count_min.create ~epsilon:0.1 ~delta:0.1 () in
  Stdx.Count_min.add cm 7L 3.0;
  let reject v =
    Alcotest.check_raises "non-finite"
      (Invalid_argument "Count_min.add: value must be finite and non-negative")
      (fun () -> Stdx.Count_min.add cm 7L v)
  in
  reject Float.nan;
  reject infinity;
  reject (-1.0);
  (* A rejected add leaves the sketch untouched. *)
  Alcotest.(check (float 0.0)) "total intact" 3.0 (Stdx.Count_min.total cm);
  Alcotest.(check (float 0.0)) "estimate intact" 3.0
    (Stdx.Count_min.estimate cm 7L)

(* ---- Non-allocating Xhash entry points ---------------------------- *)

(* The limbed combine* family must agree bit-for-bit with the boxed
   [ints] fold on arbitrary native ints (negatives included — sign
   extension is where a limb-carry bug would hide), because flow
   hashes feed seeded steering decisions the oracles pin. *)
let qcheck_combine_agreement =
  QCheck.Test.make ~count:1000 ~name:"combine2/3/5/7 agree with ints fold"
    QCheck.(tup7 int int int int int int int)
    (fun (a, b, c, d, e, f, g) ->
      Stdx.Xhash.combine2 a b = Stdx.Xhash.ints [ a; b ]
      && Stdx.Xhash.combine3 a b c = Stdx.Xhash.ints [ a; b; c ]
      && Stdx.Xhash.combine5 a b c d e = Stdx.Xhash.ints [ a; b; c; d; e ]
      && Stdx.Xhash.combine7 a b c d e f g
         = Stdx.Xhash.ints [ a; b; c; d; e; f; g ])

let qcheck_combine_unit_agreement =
  QCheck.Test.make ~count:1000
    ~name:"combine7_unit/score_unit agree with boxed pipeline"
    QCheck.(tup7 int int int int int int int)
    (fun (a, b, c, d, e, f, g) ->
      Stdx.Xhash.combine7_unit a b c d e f g
      = Stdx.Xhash.to_unit_interval (Stdx.Xhash.combine7 a b c d e f g)
      && Stdx.Xhash.score_unit (Stdx.Xhash.combine2 a b) g
         = Stdx.Xhash.to_unit_interval
             (Stdx.Xhash.fmix64 (Stdx.Xhash.fold_int (Stdx.Xhash.combine2 a b) g)))

let qcheck_state_agreement =
  QCheck.Test.make ~count:500 ~name:"Xhash.state folds agree with ints"
    QCheck.(small_list int)
    (fun l ->
      let s = Stdx.Xhash.start () in
      List.iter (Stdx.Xhash.add s) [ 1; 2; 3 ];
      Stdx.Xhash.reset s;
      List.iter (Stdx.Xhash.add s) l;
      Stdx.Xhash.value s = Int64.to_int (Stdx.Xhash.ints l)
      && Stdx.Xhash.finish s = Stdx.Xhash.fmix64 (Stdx.Xhash.ints l))

(* ---- Flat_table --------------------------------------------------- *)

let test_flat_table_basics () =
  let t = Stdx.Flat_table.create ~initial:2 () in
  Alcotest.(check int) "empty" 0 (Stdx.Flat_table.length t);
  Alcotest.(check (option string)) "miss" None (Stdx.Flat_table.find t 1 2);
  Stdx.Flat_table.replace t 1 2 "a";
  Stdx.Flat_table.replace t 3 4 "b";
  Stdx.Flat_table.replace t 1 2 "a2";
  Alcotest.(check int) "two live" 2 (Stdx.Flat_table.length t);
  Alcotest.(check (option string)) "overwrite" (Some "a2")
    (Stdx.Flat_table.find t 1 2);
  let s = Stdx.Flat_table.find_slot t 1 2 in
  Alcotest.(check bool) "slot found" true (s >= 0);
  Alcotest.(check string) "value at slot" "a2" (Stdx.Flat_table.value t s);
  Alcotest.(check int) "key1 at slot" 1 (Stdx.Flat_table.key1 t s);
  Alcotest.(check int) "key2 at slot" 2 (Stdx.Flat_table.key2 t s);
  Stdx.Flat_table.set_value t s "a3";
  Alcotest.(check (option string)) "set_value" (Some "a3")
    (Stdx.Flat_table.find t 1 2);
  Alcotest.(check int) "absent slot" (-1) (Stdx.Flat_table.find_slot t 9 9);
  Stdx.Flat_table.remove t 9 9;
  Stdx.Flat_table.remove t 1 2;
  Alcotest.(check int) "one live" 1 (Stdx.Flat_table.length t);
  Alcotest.(check (option string)) "removed" None (Stdx.Flat_table.find t 1 2);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Flat_table.replace: negative key") (fun () ->
      Stdx.Flat_table.replace t (-1) 0 "x")

(* Model test against [Hashtbl] over random op sequences.  Keys are
   drawn from a small range so the sequence revisits keys (overwrite
   and delete paths), and long insert runs cross resize boundaries;
   deletion-heavy mixes exercise backward-shift compaction.  Iteration
   must be insertion order of the live entries — the property seeded
   simulations lean on wherever iteration order is observable. *)
let qcheck_flat_table_model =
  let op =
    QCheck.(
      map
        (fun (k1, k2, v, kind) -> (k1, k2, v, kind))
        (tup4 (int_bound 31) (int_bound 7) small_nat (int_bound 9)))
  in
  QCheck.Test.make ~count:400 ~name:"flat table matches Hashtbl model"
    QCheck.(list op)
    (fun ops ->
      let t = Stdx.Flat_table.create ~initial:2 () in
      (* Model: value table plus insertion-order key list. *)
      let m = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun (k1, k2, v, kind) ->
          (* 0-2 = remove (deletion-heavy ~30%), else insert. *)
          if kind < 3 then begin
            Stdx.Flat_table.remove t k1 k2;
            Hashtbl.remove m (k1, k2);
            order := List.filter (fun k -> k <> (k1, k2)) !order
          end
          else begin
            Stdx.Flat_table.replace t k1 k2 v;
            if not (Hashtbl.mem m (k1, k2)) then order := !order @ [ (k1, k2) ];
            Hashtbl.replace m (k1, k2) v
          end)
        ops;
      Stdx.Flat_table.length t = Hashtbl.length m
      && List.for_all
           (fun ((k1, k2) as k) ->
             Stdx.Flat_table.find t k1 k2 = Hashtbl.find_opt m k
             && Stdx.Flat_table.mem t k1 k2)
           !order
      (* Probe a band of absent keys too. *)
      && List.for_all
           (fun k1 ->
             List.for_all
               (fun k2 ->
                 Stdx.Flat_table.mem t k1 k2 = Hashtbl.mem m (k1, k2))
               [ 0; 3; 7 ])
           [ 0; 5; 17; 31 ]
      (* Insertion-order iteration, fold and iter agreeing. *)
      && Stdx.Flat_table.fold (fun k1 k2 _ acc -> (k1, k2) :: acc) t []
         = List.rev !order
      &&
      let seen = ref [] in
      Stdx.Flat_table.iter (fun k1 k2 _ -> seen := (k1, k2) :: !seen) t;
      List.rev !seen = !order)

let test_flat_table_resize_boundary () =
  (* Straddle the power-of-two growth points exactly: after inserting
     n keys for n across a boundary, every key is still present with
     its latest value. *)
  let t = Stdx.Flat_table.create ~initial:2 () in
  for i = 0 to 300 do
    Stdx.Flat_table.replace t i (i * 7) i
  done;
  for i = 0 to 300 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d survives growth" i)
      (Some i)
      (Stdx.Flat_table.find t i (i * 7))
  done;
  (* Delete half, then grow past the next boundary again. *)
  for i = 0 to 300 do
    if i mod 2 = 0 then Stdx.Flat_table.remove t i (i * 7)
  done;
  for i = 301 to 700 do
    Stdx.Flat_table.replace t i (i * 7) i
  done;
  for i = 0 to 700 do
    let expect = if i <= 300 && i mod 2 = 0 then None else Some i in
    Alcotest.(check (option int))
      (Printf.sprintf "key %d after churn" i)
      expect
      (Stdx.Flat_table.find t i (i * 7))
  done

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng derive stable" `Quick test_rng_derive_stable;
    Alcotest.test_case "rng derive order independent" `Quick
      test_rng_derive_order_independent;
    Alcotest.test_case "rng derive independent streams" `Quick
      test_rng_derive_independent_streams;
    Alcotest.test_case "rng derive negative raises" `Quick
      test_rng_derive_negative_raises;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample too many raises" `Quick test_sample_too_many;
    Alcotest.test_case "power-law bounds" `Quick test_power_law_bounds;
    Alcotest.test_case "power-law calibration" `Quick test_power_law_calibration;
    Alcotest.test_case "power-law skew" `Quick test_power_law_skew;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap peek/pop" `Quick test_heap_peek_pop;
    Alcotest.test_case "heap to_sorted_list" `Quick test_heap_to_sorted_list;
    Alcotest.test_case "heap pop releases slot" `Quick test_heap_pop_releases_slot;
    QCheck_alcotest.to_alcotest qcheck_heap_property;
    QCheck_alcotest.to_alcotest qcheck_heap_interleaved;
    Alcotest.test_case "domain pool ordered" `Quick test_domain_pool_ordered;
    Alcotest.test_case "domain pool edge cases" `Quick
      test_domain_pool_empty_and_overprovisioned;
    Alcotest.test_case "domain pool exception" `Quick
      test_domain_pool_exception_propagates;
    Alcotest.test_case "domain pool reuse" `Quick test_domain_pool_reuse;
    Alcotest.test_case "domain pool invalid jobs" `Quick
      test_domain_pool_invalid_jobs;
    Alcotest.test_case "xhash deterministic" `Quick test_xhash_deterministic;
    Alcotest.test_case "xhash unit interval" `Quick test_xhash_unit_interval;
    Alcotest.test_case "xhash spread" `Quick test_xhash_spread;
    Alcotest.test_case "xhash fmix64 avalanche" `Quick
      test_xhash_fmix64_avalanche;
    QCheck_alcotest.to_alcotest qcheck_fmix64_injective;
    Alcotest.test_case "count-min never undercounts" `Quick
      test_count_min_never_undercounts;
    Alcotest.test_case "count-min error bound" `Quick test_count_min_error_bound;
    Alcotest.test_case "count-min unknown key" `Quick test_count_min_unknown_key;
    Alcotest.test_case "count-min rejects negative" `Quick
      test_count_min_rejects_negative;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentiles batch" `Quick test_stats_percentiles_batch;
    Alcotest.test_case "fvec basic" `Quick test_fvec_basic;
    Alcotest.test_case "stats imbalance" `Quick test_stats_imbalance;
    Alcotest.test_case "stats single sample" `Quick test_stats_single_sample;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    Alcotest.test_case "stats NaN guard" `Quick test_stats_nan_guard;
    Alcotest.test_case "count-min rejects non-finite" `Quick
      test_count_min_rejects_nonfinite;
    QCheck_alcotest.to_alcotest qcheck_combine_agreement;
    QCheck_alcotest.to_alcotest qcheck_combine_unit_agreement;
    QCheck_alcotest.to_alcotest qcheck_state_agreement;
    Alcotest.test_case "flat table basics" `Quick test_flat_table_basics;
    QCheck_alcotest.to_alcotest qcheck_flat_table_model;
    Alcotest.test_case "flat table resize boundaries" `Quick
      test_flat_table_resize_boundary;
  ]
