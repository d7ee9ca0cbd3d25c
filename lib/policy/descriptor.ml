type port_match = Any_port | Port of int | Port_range of int * int

type proto_match = Any_proto | Proto of int

type t = {
  src : Netpkt.Addr.Prefix.t;
  dst : Netpkt.Addr.Prefix.t;
  sport : port_match;
  dport : port_match;
  proto : proto_match;
}

let make ?(src = Netpkt.Addr.Prefix.any) ?(dst = Netpkt.Addr.Prefix.any)
    ?(sport = Any_port) ?(dport = Any_port) ?(proto = Any_proto) () =
  (match sport with
  | Port p when p < 0 || p > 65535 -> invalid_arg "Descriptor.make: bad sport"
  | Port_range (a, b) when a > b || a < 0 || b > 65535 ->
    invalid_arg "Descriptor.make: bad sport range"
  | _ -> ());
  (match dport with
  | Port p when p < 0 || p > 65535 -> invalid_arg "Descriptor.make: bad dport"
  | Port_range (a, b) when a > b || a < 0 || b > 65535 ->
    invalid_arg "Descriptor.make: bad dport range"
  | _ -> ());
  (match proto with
  | Proto p when p < 0 || p > 255 -> invalid_arg "Descriptor.make: bad proto"
  | _ -> ());
  { src; dst; sport; dport; proto }

let any = make ()

let port_matches pm p =
  match pm with
  | Any_port -> true
  | Port q -> p = q
  | Port_range (a, b) -> a <= p && p <= b

let proto_matches pm p = match pm with Any_proto -> true | Proto q -> p = q

let matches t flow =
  Netpkt.Addr.Prefix.contains t.src flow.Netpkt.Flow.src
  && Netpkt.Addr.Prefix.contains t.dst flow.Netpkt.Flow.dst
  && port_matches t.sport flow.Netpkt.Flow.sport
  && port_matches t.dport flow.Netpkt.Flow.dport
  && proto_matches t.proto flow.Netpkt.Flow.proto

let src_overlaps t subnet = Netpkt.Addr.Prefix.overlaps t.src subnet
let dst_overlaps t subnet = Netpkt.Addr.Prefix.overlaps t.dst subnet

let port_to_string = function
  | Any_port -> "*"
  | Port p -> string_of_int p
  | Port_range (a, b) -> Printf.sprintf "%d-%d" a b

let to_string t =
  let prefix p =
    if Netpkt.Addr.Prefix.is_any p then "*" else Netpkt.Addr.Prefix.to_string p
  in
  Printf.sprintf "src=%s dst=%s sport=%s dport=%s proto=%s" (prefix t.src)
    (prefix t.dst) (port_to_string t.sport) (port_to_string t.dport)
    (match t.proto with Any_proto -> "*" | Proto p -> string_of_int p)

let pp ppf t = Format.pp_print_string ppf (to_string t)
