(* One non-allocating fold over the 5-tuple, the entity key and the
   salt — bit-identical to hashing the flow and folding the two salts
   with boxed [Int64] arithmetic, which is what this did before. *)
let flow_point flow ~entity ~nf =
  Stdx.Xhash.combine7_unit flow.Netpkt.Flow.src flow.Netpkt.Flow.dst
    flow.Netpkt.Flow.proto flow.Netpkt.Flow.sport flow.Netpkt.Flow.dport
    (Mbox.Entity.hash_key entity) (Policy.Action.nf_salt nf)

(* Loops over indices, not [Array.fold_left]/[Array.iter]: the
   polymorphic fold boxes the float accumulator on every element and
   the callbacks capture refs, which costs ~25 minor words per steering
   decision on the per-packet fast path.  Local float refs compile to
   unboxed mutable stack slots; the additions happen in the same order
   with the same early-stop, so every choice is bit-identical. *)
let rec last_positive row i =
  if i < 0 then -1 else if snd row.(i) > 0.0 then i else last_positive row (i - 1)

let pick_slot row ~u =
  if u < 0.0 || u >= 1.0 then invalid_arg "Selector.pick: u out of [0,1)";
  let n = Array.length row in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let _, w = row.(i) in
    if w < 0.0 then invalid_arg "Selector.pick: negative weight";
    total := !total +. w
  done;
  if !total <= 0.0 then -1
  else begin
    let target = u *. !total in
    let acc = ref 0.0 in
    let chosen = ref (-1) in
    let i = ref 0 in
    while !chosen < 0 && !i < n do
      acc := !acc +. snd row.(!i);
      if target < !acc then chosen := !i;
      incr i
    done;
    if !chosen >= 0 then !chosen
      (* Floating-point slack can leave the last bucket unmatched. *)
    else last_positive row (n - 1)
  end

let pick row ~u =
  match pick_slot row ~u with -1 -> None | i -> Some (fst row.(i))

let flow_key flow ~entity ~nf =
  Stdx.Xhash.combine7 flow.Netpkt.Flow.src flow.Netpkt.Flow.dst
    flow.Netpkt.Flow.proto flow.Netpkt.Flow.sport flow.Netpkt.Flow.dport
    (Mbox.Entity.hash_key entity) (Policy.Action.nf_salt nf)

(* FNV-1a alone leaves per-candidate hashes correlated when only the
   trailing id byte differs, which skews the rendezvous scores
   measurably; [Xhash.score_unit] applies the avalanche finalizer to
   restore independence (without boxing any intermediate). *)
let pick_hrw row ~key =
  let best = ref None in
  Array.iter
    (fun (id, w) ->
      if w < 0.0 then invalid_arg "Selector.pick_hrw: negative weight";
      if w > 0.0 then begin
        (* Weighted rendezvous hashing: candidate score -w / ln(u) with
           u = hash(key, id) in (0, 1).  The max over the row is what
           makes the choice independent of row order and of which
           losing candidates are present. *)
        let u = Stdx.Xhash.score_unit key id in
        let u = if u <= 0.0 then epsilon_float else u in
        let score = -.w /. log u in
        match !best with
        | Some (bid, s) when s > score || (s = score && bid < id) -> ()
        | _ -> best := Some (id, score)
      end)
    row;
  Option.map fst !best

let pick_uniform candidates ~u =
  let n = List.length candidates in
  if n = 0 then invalid_arg "Selector.pick_uniform: empty candidates";
  let i = int_of_float (u *. float_of_int n) in
  let i = if i >= n then n - 1 else i in
  List.nth candidates i
