type 'r cell =
  | Int of ('r -> int)
  | Float of int * int * ('r -> float)
  | Load of ('r -> float)
  | Audit of ('r -> int option)
  | Str of ('r -> string)

(* [head = None]: CSV only; [csv_head = None]: text only. *)
type 'r column = {
  head : string option;
  width : int;
  csv_head : string option;
  cell : 'r cell;
}

let col ?csv ?(w = 0) head cell =
  let default = String.map (function ' ' -> '_' | c -> c) (String.lowercase_ascii head) in
  { head = Some head; width = w; csv_head = Some (Option.value csv ~default); cell }

let text ?(w = 0) head cell = { head = Some head; width = w; csv_head = None; cell }
let csv head cell = { head = None; width = 0; csv_head = Some head; cell }

let millions v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let text_cell c r =
  match c.cell with
  | Int f -> string_of_int (f r)
  | Float (p, _, f) -> Printf.sprintf "%.*f" p (f r)
  | Load f -> millions (f r)
  | Audit f -> Option.fold ~none:"-" ~some:string_of_int (f r)
  | Str f -> f r

let csv_cell c r =
  match c.cell with
  | Int f -> string_of_int (f r)
  | Float (_, p, f) -> Printf.sprintf "%.*f" p (f r)
  | Load f -> Printf.sprintf "%.0f" (f r)
  | Audit f -> Option.fold ~none:"" ~some:string_of_int (f r)
  | Str f -> f r

let pad w s = if w < 0 then Printf.sprintf "%-*s" (-w) s else Printf.sprintf "%*s" w s

let to_csv cols rows =
  let cols = List.filter (fun c -> c.csv_head <> None) cols in
  let line cells = String.concat "," cells ^ "\n" in
  String.concat ""
    (line (List.filter_map (fun c -> c.csv_head) cols)
    :: List.map (fun r -> line (List.map (fun c -> csv_cell c r) cols)) rows)

type doc = (Format.formatter -> unit) list

let line fmt = Printf.ksprintf (fun s ppf -> Format.fprintf ppf "%s@." s) fmt
let blank ppf = Format.fprintf ppf "@."

let grid cols rows ppf =
  let cols = List.filter (fun c -> c.head <> None) cols in
  let print cells = Format.fprintf ppf "%s@." (String.concat " " cells) in
  print (List.map (fun c -> pad c.width (Option.get c.head)) cols);
  List.iter (fun r -> print (List.map (fun c -> pad c.width (text_cell c r)) cols)) rows

let fields ?(w = 0) cols r ppf =
  List.iter
    (fun c ->
      Option.iter
        (fun h -> Format.fprintf ppf "%s %s@." (pad (-w) h) (text_cell c r))
        c.head)
    cols

let inline cols rows ppf =
  match List.filter (fun c -> c.head <> None) cols with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun r ->
        Format.fprintf ppf "%s%s@." (pad first.width (text_cell first r))
          (String.concat ""
             (List.map
                (fun c -> Printf.sprintf " %s=%s" (Option.get c.head) (text_cell c r))
                rest)))
      rows

let pp_doc ppf doc = List.iter (fun block -> block ppf) doc
