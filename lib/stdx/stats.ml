type summary = {
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

(* NaN poisons every statistic silently (it even breaks the sort order
   percentiles rely on), so it is rejected up front.  Infinities stay
   allowed: they order correctly and an infinite load is a meaningful
   extreme. *)
let reject_nan name (samples : float array) =
  for i = 0 to Array.length samples - 1 do
    if Float.is_nan samples.(i) then invalid_arg (name ^ ": NaN sample")
  done

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.summarize: empty input";
  reject_nan "Stats.summarize" samples;
  let total = Array.fold_left ( +. ) 0.0 samples in
  let mean = total /. float_of_int n in
  let mn = Array.fold_left min samples.(0) samples in
  let mx = Array.fold_left max samples.(0) samples in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
    /. float_of_int n
  in
  { count = n; total; mean; min = mn; max = mx; stddev = sqrt var }

(* Nearest-rank lookup in an already-sorted array. *)
let rank_in sorted q =
  let n = Array.length sorted in
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
  let rank = if rank < 0 then 0 else if rank >= n then n - 1 else rank in
  sorted.(rank)

(* In-place heapsort reading unboxed floats: [Array.sort Float.compare]
   boxes both operands of each of its ~2n log n comparisons, about a
   quarter of a packet run's allocation.  NaN is rejected first, so [<]
   orders as [Float.compare] and the sorted bits are the same (only -0.
   and 0. tie with different bits). *)
let rec sift (a : float array) i n =
  let c = (2 * i) + 1 in
  let c = if c + 1 < n && a.(c) < a.(c + 1) then c + 1 else c in
  if c < n && a.(i) < a.(c) then begin
    let x = a.(i) in
    a.(i) <- a.(c);
    a.(c) <- x;
    sift a c n
  end

let sorted_copy name samples =
  if Array.length samples = 0 then invalid_arg (name ^ ": empty input");
  reject_nan name samples;
  let a = Array.copy samples and n = Array.length samples in
  for i = (n / 2) - 1 downto 0 do sift a i n done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done;
  a

let percentile samples q = rank_in (sorted_copy "Stats.percentile" samples) q

let percentiles samples qs =
  List.map (rank_in (sorted_copy "Stats.percentiles" samples)) qs

let imbalance samples =
  let s = summarize samples in
  if s.mean = 0.0 then invalid_arg "Stats.imbalance: zero mean";
  s.max /. s.mean

let pp_summary ppf s =
  Format.fprintf ppf "n=%d total=%.3g mean=%.3g min=%.3g max=%.3g sd=%.3g"
    s.count s.total s.mean s.min s.max s.stddev
