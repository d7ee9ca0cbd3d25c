type var = int

type cmp = Le | Ge | Eq

type row = { key : int; terms : (float * var) list; cmp : cmp; rhs : float }

type t = {
  mutable keys : int list; (* variable keys, reversed *)
  mutable n : int;
  mutable rows : row list; (* reversed *)
  mutable m : int;
  mutable objective : (float * var) list;
}

type solution = { objective : float; values : float array }

type outcome = Optimal of solution | Infeasible | Unbounded

(* The keys of the basic variables and of the rows whose slack is
   basic. *)
type snapshot = { sn_cols : int array; sn_slack_rows : int array }

let create () = { keys = []; n = 0; rows = []; m = 0; objective = [] }

let var t key =
  let id = t.n in
  t.n <- id + 1;
  t.keys <- key :: t.keys;
  id

let num_vars t = t.n
let num_constraints t = t.m

let keys t =
  ( Array.of_list (List.rev t.keys),
    Array.of_list (List.rev_map (fun r -> r.key) t.rows) )

let check_terms t terms =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.n then invalid_arg "Model: variable from another model")
    terms

(* Sum duplicate variables so each appears once per row. *)
let normalise terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (c, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0.0 then acc else (c, v) :: acc) tbl []

let add_constraint t ~key terms cmp rhs =
  check_terms t terms;
  t.rows <- { key; terms = normalise terms; cmp; rhs } :: t.rows;
  t.m <- t.m + 1

let set_objective t terms =
  check_terms t terms;
  t.objective <- normalise terms

let value sol v = sol.values.(v)

let dense_row n { terms; cmp; rhs; _ } =
  let coefs = Array.make n 0.0 in
  List.iter (fun (c, v) -> coefs.(v) <- coefs.(v) +. c) terms;
  let sense =
    match cmp with Le -> Simplex.Le | Ge -> Simplex.Ge | Eq -> Simplex.Eq
  in
  (coefs, sense, rhs)

let dense_cost t =
  let cost = Array.make t.n 0.0 in
  List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. c) t.objective;
  cost

let outcome_of cost = function
  | Simplex.Optimal values ->
    let objective =
      Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> cost.(i) *. v) values)
    in
    Optimal { objective; values }
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded

(* The positions of [keys] whose key is in [wanted], ascending. *)
let positions keys wanted =
  let set = Hashtbl.create (Array.length wanted) in
  Array.iter (fun k -> Hashtbl.replace set k ()) wanted;
  let acc = ref [] in
  for i = Array.length keys - 1 downto 0 do
    if Hashtbl.mem set keys.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let solve_ext ?prev t =
  let cost = dense_cost t in
  let rows = Array.of_list (List.rev t.rows) in
  let var_keys = Array.of_list (List.rev t.keys) in
  let row_keys = Array.map (fun r -> r.key) rows in
  let start =
    Option.map
      (fun p ->
        {
          Simplex.cols = positions var_keys p.sn_cols;
          slack_rows = positions row_keys p.sn_slack_rows;
        })
      prev
  in
  let outcome, stats, basis =
    Simplex.solve_ext ?start ~cost ~rows:(Array.map (dense_row t.n) rows) ()
  in
  let snapshot =
    Option.map
      (fun { Simplex.cols; slack_rows } ->
        {
          sn_cols = Array.map (Array.get var_keys) cols;
          sn_slack_rows = Array.map (Array.get row_keys) slack_rows;
        })
      basis
  in
  (outcome_of cost outcome, stats, snapshot)

let solve t =
  let cost = dense_cost t in
  let rows = Array.of_list (List.rev_map (dense_row t.n) t.rows) in
  outcome_of cost (Simplex.solve ~cost ~rows)

let pp_outcome ppf = function
  | Optimal { objective; _ } -> Format.fprintf ppf "optimal(%.6g)" objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
