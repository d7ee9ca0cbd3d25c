type t = { fields : int array; rules : Rule.t option array }

(* Per rule: src base, src mask, dst base, dst mask, sport lo, sport hi,
   dport lo, dport hi, proto lo, proto hi. *)
let stride = 10

let set_range fields o lo hi =
  fields.(o) <- lo;
  fields.(o + 1) <- hi

let set_prefix fields o (p : Netpkt.Addr.Prefix.t) =
  set_range fields o p.base (Netpkt.Addr.Prefix.mask p.len)

let set_port fields o = function
  | Descriptor.Any_port -> set_range fields o min_int max_int
  | Descriptor.Port p -> set_range fields o p p
  | Descriptor.Port_range (a, b) -> set_range fields o a b

let set_proto fields o = function
  | Descriptor.Any_proto -> set_range fields o min_int max_int
  | Descriptor.Proto p -> set_range fields o p p

let build rules =
  let sorted =
    Array.of_list (List.stable_sort (fun a b -> Int.compare a.Rule.id b.Rule.id) rules)
  in
  let fields = Array.make (stride * Array.length sorted) 0 in
  Array.iteri
    (fun i r ->
      let d = r.Rule.descriptor and o = stride * i in
      set_prefix fields o d.Descriptor.src;
      set_prefix fields (o + 2) d.Descriptor.dst;
      set_port fields (o + 4) d.Descriptor.sport;
      set_port fields (o + 6) d.Descriptor.dport;
      set_proto fields (o + 8) d.Descriptor.proto)
    sorted;
  { fields; rules = Array.map Option.some sorted }

let rule_count t = Array.length t.rules

(* Top-level and tail-recursive: no closure, no ref, nothing boxed. *)
let rec scan fields rules (flow : Netpkt.Flow.t) i =
  if i >= Array.length rules then None
  else
    let o = stride * i in
    if
      flow.src land fields.(o + 1) = fields.(o)
      && flow.dst land fields.(o + 3) = fields.(o + 2)
      && fields.(o + 6) <= flow.dport
      && flow.dport <= fields.(o + 7)
      && fields.(o + 4) <= flow.sport
      && flow.sport <= fields.(o + 5)
      && fields.(o + 8) <= flow.proto
      && flow.proto <= fields.(o + 9)
    then rules.(i)
    else scan fields rules flow (i + 1)

let first_match t flow = scan t.fields t.rules flow 0
