let ( let* ) = Result.bind

let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_addr tok =
  if tok = "any" then Ok Netpkt.Addr.Prefix.any
  else
    match Netpkt.Addr.Prefix.of_string tok with
    | p -> Ok p
    | exception Invalid_argument _ -> Error (Printf.sprintf "bad address %S" tok)

let parse_port tok =
  if tok = "any" then Ok Descriptor.Any_port
  else
    match String.index_opt tok '-' with
    | None -> (
      match int_of_string_opt tok with
      | Some p when p >= 0 && p <= 65535 -> Ok (Descriptor.Port p)
      | _ -> Error (Printf.sprintf "bad port %S" tok))
    | Some i -> (
      let a = String.sub tok 0 i
      and b = String.sub tok (i + 1) (String.length tok - i - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <= b && a >= 0 && b <= 65535 ->
        Ok (Descriptor.Port_range (a, b))
      | _ -> Error (Printf.sprintf "bad port range %S" tok))

let parse_proto tok =
  match tok with
  | "any" -> Ok Descriptor.Any_proto
  | "tcp" -> Ok (Descriptor.Proto 6)
  | "udp" -> Ok (Descriptor.Proto 17)
  | "icmp" -> Ok (Descriptor.Proto 1)
  | _ -> (
    match int_of_string_opt tok with
    | Some p when p >= 0 && p <= 255 -> Ok (Descriptor.Proto p)
    | _ -> Error (Printf.sprintf "bad protocol %S" tok))

(* An action list the controller would reject fails here, at its
   line: a repeated function, or "permit" next to a function (it would
   otherwise name a custom function called "permit"). *)
let parse_actions toks =
  let names =
    List.concat_map (String.split_on_char ',') toks
    |> List.filter (fun s -> s <> "")
  in
  match names with
  | [] -> Error "missing actions after =>"
  | [ "permit" ] -> Ok Action.permit
  | _ when List.mem "permit" names -> Error "permit cannot be combined with a function"
  | _ ->
    let actions = List.map Action.nf_of_string names in
    if Action.has_duplicates actions then Error "repeats a function in its action list"
    else Ok actions

(* Optional fields in any order, each exactly once. *)
let rec parse_fields acc = function
  | [] -> Ok (acc, [])
  | "=>" :: rest -> Ok (acc, rest)
  | "sport" :: tok :: rest ->
    let* p = parse_port tok in
    parse_fields (`Sport p :: acc) rest
  | "dport" :: tok :: rest ->
    let* p = parse_port tok in
    parse_fields (`Dport p :: acc) rest
  | "proto" :: tok :: rest ->
    let* p = parse_proto tok in
    parse_fields (`Proto p :: acc) rest
  | tok :: _ -> Error (Printf.sprintf "unexpected token %S" tok)

let parse_line line =
  match tokenize line with
  | "from" :: src_tok :: "to" :: dst_tok :: rest ->
    let* src = parse_addr src_tok in
    let* dst = parse_addr dst_tok in
    let* fields, after = parse_fields [] rest in
    let* actions = parse_actions after in
    let field_count tag =
      List.length
        (List.filter
           (fun f ->
             match (f, tag) with
             | `Sport _, `S | `Dport _, `D | `Proto _, `P -> true
             | _ -> false)
           fields)
    in
    if field_count `S > 1 || field_count `D > 1 || field_count `P > 1 then
      Error "duplicate field"
    else begin
      let sport =
        List.find_map (function `Sport p -> Some p | _ -> None) fields
        |> Option.value ~default:Descriptor.Any_port
      in
      let dport =
        List.find_map (function `Dport p -> Some p | _ -> None) fields
        |> Option.value ~default:Descriptor.Any_port
      in
      let proto =
        List.find_map (function `Proto p -> Some p | _ -> None) fields
        |> Option.value ~default:Descriptor.Any_proto
      in
      Ok (Descriptor.make ~src ~dst ~sport ~dport ~proto (), actions)
    end
  | [] -> Error "empty policy"
  | tok :: _ -> Error (Printf.sprintf "expected \"from\", got %S" tok)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno id acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let body = String.trim (strip_comment line) in
      if body = "" then go (lineno + 1) id acc rest
      else
        match parse_line body with
        | Ok (descriptor, actions) ->
          go (lineno + 1) (id + 1)
            (Rule.make ~id ~descriptor ~actions :: acc)
            rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go 1 0 [] lines

let print_addr p =
  if Netpkt.Addr.Prefix.is_any p then "any" else Netpkt.Addr.Prefix.to_string p

let print_port = function
  | Descriptor.Any_port -> None
  | Descriptor.Port p -> Some (string_of_int p)
  | Descriptor.Port_range (a, b) -> Some (Printf.sprintf "%d-%d" a b)

let print_rule (rule : Rule.t) =
  let d = rule.Rule.descriptor in
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "from %s to %s" (print_addr d.Descriptor.src)
       (print_addr d.Descriptor.dst));
  (match print_port d.Descriptor.sport with
  | Some s -> Buffer.add_string buf (" sport " ^ s)
  | None -> ());
  (match print_port d.Descriptor.dport with
  | Some s -> Buffer.add_string buf (" dport " ^ s)
  | None -> ());
  (match d.Descriptor.proto with
  | Descriptor.Any_proto -> ()
  | Descriptor.Proto 6 -> Buffer.add_string buf " proto tcp"
  | Descriptor.Proto 17 -> Buffer.add_string buf " proto udp"
  | Descriptor.Proto 1 -> Buffer.add_string buf " proto icmp"
  | Descriptor.Proto p -> Buffer.add_string buf (" proto " ^ string_of_int p));
  Buffer.add_string buf " => ";
  (match rule.Rule.actions with
  | [] -> Buffer.add_string buf "permit"
  | actions ->
    Buffer.add_string buf
      (String.concat ", " (List.map Action.nf_to_string actions)));
  Buffer.contents buf

let print rules = String.concat "\n" (List.map print_rule rules) ^ "\n"

let table_one_text =
  "# Table I example policies (enterprise prefix 128.40.0.0/16)\n"
  ^ print (Rule.table_one (Netpkt.Addr.Prefix.of_string "128.40.0.0/16"))
