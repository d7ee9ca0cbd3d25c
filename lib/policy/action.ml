type nf = FW | IDS | WP | TM | Custom of string

type t = nf list

let permit = []
let is_permit t = t = []

let builtin = [ FW; IDS; WP; TM ]

let equal_nf a b = a = b
let compare_nf = Stdlib.compare

let nf_to_string = function
  | FW -> "FW"
  | IDS -> "IDS"
  | WP -> "WP"
  | TM -> "TM"
  | Custom s -> s

(* Built-in salts are constants, so the per-packet path hashes no
   name; [Custom] hashes its name per call. *)
let name_salt s = Int64.to_int (Stdx.Xhash.string s)
let salts = Array.map name_salt [| "FW"; "IDS"; "WP"; "TM" |]

let nf_salt = function
  | FW -> salts.(0)
  | IDS -> salts.(1)
  | WP -> salts.(2)
  | TM -> salts.(3)
  | Custom s -> name_salt s

let rec add_salts h = function
  | [] -> ()
  | nf :: rest ->
    Stdx.Xhash.add h (nf_salt nf);
    add_salts h rest

let nf_of_string = function
  | "FW" -> FW
  | "IDS" -> IDS
  | "WP" -> WP
  | "TM" -> TM
  | s -> Custom s

let to_string = function
  | [] -> "permit"
  | l -> String.concat " -> " (List.map nf_to_string l)

let rec adjacent_pairs = function
  | a :: (b :: _ as rest) -> (a, b) :: adjacent_pairs rest
  | [ _ ] | [] -> []

let first = function [] -> None | e :: _ -> Some e

let rec last = function [] -> None | [ e ] -> Some e | _ :: rest -> last rest

let rec next_after t e =
  match t with
  | [] | [ _ ] -> None
  | a :: (b :: _ as rest) -> if equal_nf a e then Some b else next_after rest e

let has_duplicates t =
  let rec check seen = function
    | [] -> false
    | e :: rest -> List.exists (equal_nf e) seen || check (e :: seen) rest
  in
  check [] t

let pp_nf ppf nf = Format.pp_print_string ppf (nf_to_string nf)
let pp ppf t = Format.pp_print_string ppf (to_string t)
