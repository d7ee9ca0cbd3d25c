type t = { src : Addr.t; dst : Addr.t; proto : int; sport : int; dport : int }

let make ~src ~dst ~proto ~sport ~dport =
  if proto < 0 || proto > 255 then invalid_arg "Flow.make: bad protocol";
  if sport < 0 || sport > 65535 || dport < 0 || dport > 65535 then
    invalid_arg "Flow.make: bad port";
  { src; dst; proto; sport; dport }

(* Field-wise in declaration order: the same total order
   [Stdlib.compare] gave this all-int record, without the polymorphic
   dispatch. *)
let compare a b =
  let c = Int.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Int.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Int.compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = Int.compare a.sport b.sport in
        if c <> 0 then c else Int.compare a.dport b.dport

let equal a b =
  a.src = b.src && a.dst = b.dst && a.proto = b.proto && a.sport = b.sport
  && a.dport = b.dport

(* The 104-bit flow identity packed into two non-negative ints —
   src·32 + sport·16 in one, dst·32 + dport·16 + proto·8 in the
   other — so flow-keyed tables can inline keys in int arrays and
   compare without touching the record.  Addresses are 32-bit
   ({!Addr.t}), so both halves sit far below the 62-bit limit. *)
let key t = (t.src lsl 16) lor t.sport
let key2 t = (t.dst lsl 24) lor (t.dport lsl 8) lor t.proto

let of_key k1 k2 =
  {
    src = k1 lsr 16;
    sport = k1 land 0xFFFF;
    dst = k2 lsr 24;
    dport = (k2 lsr 8) land 0xFFFF;
    proto = k2 land 0xFF;
  }

let hash t = Stdx.Xhash.combine5 t.src t.dst t.proto t.sport t.dport

let hash_to_unit t = Stdx.Xhash.to_unit_interval (hash t)

let reverse t = { t with src = t.dst; dst = t.src; sport = t.dport; dport = t.sport }

let to_string t =
  Printf.sprintf "%s:%d>%s:%d/%d" (Addr.to_string t.src) t.sport
    (Addr.to_string t.dst) t.dport t.proto

let pp ppf t = Format.pp_print_string ppf (to_string t)
