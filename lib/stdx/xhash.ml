let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let byte acc b =
  Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xff))) fnv_prime

let string s =
  let acc = ref fnv_offset in
  String.iter (fun c -> acc := byte !acc (Char.code c)) s;
  !acc

let fold_int acc n =
  let acc = ref acc in
  for shift = 0 to 7 do
    acc := byte !acc ((n lsr (shift * 8)) land 0xff)
  done;
  !acc

let ints l = List.fold_left fold_int fnv_offset l

(* ---- Non-allocating entry points ---------------------------------
   The per-packet fast path hashes a handful of ints on every lookup
   and steering decision, and boxed [Int64] arithmetic costs a minor
   allocation per operation outside flambda.  These variants carry
   the 64-bit FNV-1a state as two 32-bit limbs in native ints: the
   prime is 2^40 + 0x1B3, so every partial product stays under 2^42
   and fits a 63-bit native int.  The results are bit-identical to
   the [Int64] fold above (the test suite pins the agreement); only
   the final boxing of the returned [int64] allocates. *)

let limb_hi0 = 0xCBF29CE4 (* fnv_offset, split *)
let limb_lo0 = 0x84222325
let mask32 = 0xFFFFFFFF

(* The limb state, updated in place: one small record per hash, not
   a boxed [int64] per folded int. *)
type state = { mutable hi : int; mutable lo : int }

let start () = { hi = limb_hi0; lo = limb_lo0 }
let reset s = s.hi <- limb_hi0; s.lo <- limb_lo0

(* Mix the 8 bytes of [n] into the limb state, LSB first — the exact
   byte walk of [fold_int]. *)
let add s n =
  for shift = 0 to 7 do
    let b = (n lsr (shift * 8)) land 0xff in
    let l = s.lo lxor b in
    let t0 = l * 0x1B3 in
    let t1 = (l lsl 8) + (s.hi * 0x1B3) + (t0 lsr 32) in
    s.hi <- t1 land mask32;
    s.lo <- t0 land mask32
  done

let int64_of_state s =
  Int64.logor (Int64.shift_left (Int64.of_int s.hi) 32) (Int64.of_int s.lo)

(* [Int64.to_int] of the state: both keep its low 63 bits. *)
let value s = (s.hi lsl 32) lor s.lo

let combine2 a b =
  let s = start () in
  add s a;
  add s b;
  int64_of_state s

let combine3 a b c =
  let s = start () in
  add s a;
  add s b;
  add s c;
  int64_of_state s

let combine5 a b c d e =
  let s = start () in
  add s a;
  add s b;
  add s c;
  add s d;
  add s e;
  int64_of_state s

let combine7 a b c d e f g =
  let s = start () in
  add s a;
  add s b;
  add s c;
  add s d;
  add s e;
  add s f;
  add s g;
  int64_of_state s

(* (a·b) mod 2^32 with both operands under 2^32: split the
   multiplier at 16 bits so each partial product stays under 2^48. *)
let mul32_lo a b =
  ((a * (b land 0xFFFF)) + (((a * (b lsr 16)) land 0xFFFF) lsl 16)) land mask32

(* limb state := limb state * (chi·2^32 + clo) mod 2^64.  The low
   32x32 product needs its full 64 bits (schoolbook on 16-bit
   halves); the cross terms only their low 32. *)
let mul64_into s chi clo =
  let a0 = s.lo and a1 = s.hi in
  let al = a0 land 0xFFFF and ah = a0 lsr 16 in
  let bl = clo land 0xFFFF and bh = clo lsr 16 in
  let ll = al * bl in
  let mid = (al * bh) + (ah * bl) + (ll lsr 16) in
  let low = ((mid land 0xFFFF) lsl 16) lor (ll land 0xFFFF) in
  let carry = (ah * bh) + (mid lsr 16) in
  s.hi <- (carry + mul32_lo a0 chi + mul32_lo a1 clo) land mask32;
  s.lo <- low

(* fmix64 on the limb state.  h lsr 33 never reaches the low limb:
   its value is exactly [hi lsr 1], so each xor-shift step touches
   only [lo]. *)
let fmix_limbs s =
  s.lo <- s.lo lxor (s.hi lsr 1);
  mul64_into s 0xFF51AFD7 0xED558CCD;
  s.lo <- s.lo lxor (s.hi lsr 1);
  mul64_into s 0xC4CEB9FE 0x1A85EC53;
  s.lo <- s.lo lxor (s.hi lsr 1)

(* Top 53 bits of the limb state as a unit-interval float: the same
   value [to_unit_interval] computes from the boxed hash (both
   integers are below 2^53, so both conversions are exact and the
   final division rounds identically). *)
let unit_of_state s =
  float_of_int ((s.hi lsl 21) lor (s.lo lsr 11)) /. 9007199254740992.0

(* [fmix64] of the state, finalized in place. *)
let finish s =
  fmix_limbs s;
  int64_of_state s

(* to_unit_interval (fmix64 (fold_int key salt)) without boxing any
   intermediate: the rendezvous selector's per-candidate score. *)
let score_unit key salt =
  let s =
    { hi = Int64.to_int (Int64.shift_right_logical key 32) land mask32;
      lo = Int64.to_int key land mask32 }
  in
  add s salt;
  fmix_limbs s;
  unit_of_state s

(* to_unit_interval (ints [a; ...; g]) without intermediate boxing:
   the probabilistic-steering draw. *)
let combine7_unit a b c d e f g =
  let s = start () in
  add s a;
  add s b;
  add s c;
  add s d;
  add s e;
  add s f;
  add s g;
  unit_of_state s

(* Native-int mixer for open-addressing probe sequences
   ([Stdx.Flat_table]).  Not FNV — nothing downstream depends on the
   value, only on determinism — so it can stay entirely in native
   63-bit arithmetic (wrap-around multiply, then xor-shift
   finalling).  Always non-negative. *)
let mix2_int k1 k2 =
  let h = (k1 lxor (k2 * 0x2545F4914F6CDD1D)) * 0x35253C9ADE8F4511 in
  let h = h lxor (h lsr 31) in
  let h = h * 0x1F123BB5159A55E5 in
  (h lxor (h lsr 33)) land max_int

(* Murmur3's 64-bit avalanche finalizer.  FNV-1a alone leaves hashes
   of near-identical inputs correlated (only the trailing bytes
   differ); the finalizer flips every output bit with probability ~1/2
   under a single-bit input change, which is what both the rendezvous
   selector and the order-independent state digests need. *)
let fmix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* Use the top 53 bits so the float mantissa is filled uniformly. *)
let to_unit_interval h =
  let bits = Int64.shift_right_logical h 11 in
  Int64.to_float bits /. 9007199254740992.0

let to_range h n =
  if n <= 0 then invalid_arg "Xhash.to_range: n must be positive";
  let v = Int64.to_int h land max_int in
  v mod n
