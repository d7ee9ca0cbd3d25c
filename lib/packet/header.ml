type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  sport : int;
  dport : int;
  ttl : int;
  label : int option;
}

let size = 20
let max_label = (1 lsl 21) - 1

let make ?(ttl = 64) ?label ~src ~dst ~proto ~sport ~dport () =
  (match label with
  | Some l when l < 0 || l > max_label ->
    invalid_arg "Header.make: label out of range"
  | _ -> ());
  { src; dst; proto; sport; dport; ttl; label }

let of_flow ?ttl f =
  make ?ttl ~src:f.Flow.src ~dst:f.Flow.dst ~proto:f.Flow.proto
    ~sport:f.Flow.sport ~dport:f.Flow.dport ()

let flow t =
  Flow.make ~src:t.src ~dst:t.dst ~proto:t.proto ~sport:t.sport ~dport:t.dport

let with_label t l =
  if l < 0 || l > max_label then invalid_arg "Header.with_label: label out of range";
  { t with label = Some l }

let clear_label t = { t with label = None }

let decrement_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

let pp ppf t =
  Format.fprintf ppf "%s:%d>%s:%d/%d ttl=%d%s" (Addr.to_string t.src) t.sport
    (Addr.to_string t.dst) t.dport t.proto t.ttl
    (match t.label with None -> "" | Some l -> Printf.sprintf " label=%d" l)
