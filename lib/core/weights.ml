(* The enforcement plane probes this table once per load-balanced
   steering event, so the representation matters on the packet fast
   path: a (entity, rule, nf) tuple key is 4 minor words per probe.
   Built-in functions with non-negative rule ids — every row the LP
   emits — pack into two ints for [Stdx.Flat_table]; [Custom]
   functions and out-of-range rules keep a tuple-keyed side table. *)
type t = {
  flat : (int * float) array Stdx.Flat_table.t;
  slow : (int * int * Policy.Action.nf, (int * float) array) Hashtbl.t;
}

let nf_slot = function
  | Policy.Action.FW -> 0
  | Policy.Action.IDS -> 1
  | Policy.Action.WP -> 2
  | Policy.Action.TM -> 3
  | Policy.Action.Custom _ -> -1

let create () =
  { flat = Stdx.Flat_table.create ~initial:512 ();
    slow = Hashtbl.create 16 }

let set t entity ~rule ~nf row =
  Array.iter
    (fun (_, v) -> if v < 0.0 then invalid_arg "Weights.set: negative volume")
    row;
  let slot = nf_slot nf in
  if slot >= 0 && rule >= 0 then
    Stdx.Flat_table.replace t.flat (Mbox.Entity.hash_key entity)
      ((rule lsl 2) lor slot)
      row
  else Hashtbl.replace t.slow (Mbox.Entity.hash_key entity, rule, nf) row

let find t entity ~rule ~nf =
  let slot = nf_slot nf in
  if slot >= 0 && rule >= 0 then
    Stdx.Flat_table.find t.flat (Mbox.Entity.hash_key entity)
      ((rule lsl 2) lor slot)
  else Hashtbl.find_opt t.slow (Mbox.Entity.hash_key entity, rule, nf)

let row t entity ~rule ~nf =
  let slot = nf_slot nf and e = Mbox.Entity.hash_key entity in
  let d =
    if slot >= 0 && rule >= 0 then
      Stdx.Flat_table.find_slot t.flat e ((rule lsl 2) lor slot)
    else -1
  in
  if d >= 0 then Stdx.Flat_table.value t.flat d
  else Option.value ~default:[||] (find t entity ~rule ~nf)

let entries t = Stdx.Flat_table.length t.flat + Hashtbl.length t.slow

let cells t =
  Stdx.Flat_table.fold
    (fun _ _ row acc -> acc + Array.length row)
    t.flat
    (Hashtbl.fold (fun _ row acc -> acc + Array.length row) t.slow 0)
