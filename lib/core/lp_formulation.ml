type result = {
  lambda : float;
  weights : Weights.t;
  weights_sd : Weights_sd.t option;
  loads : float array;
  lp_vars : int;
  lp_constraints : int;
  lp_pivots : int;
  lp_phase1_pivots : int;
  lp_warm_used : bool;
  lp_fallback : bool;
  lp_snapshot : Lp.Model.snapshot option;
}

(* Keys (Lp.Model): what each variable and row means, so a re-solve
   after a failure can match the rebuilt LP against the previous
   basis.  Fields, low bits first: kind (4 bits), box id (11),
   upstream entity (12, its [Entity.hash_key]), stage (4), rule id
   (13), and for Eq. (1) the commodity's source and destination (9
   each).  Each field is masked to its width: a value past it may
   alias another key, which weakens the seed but never the answer. *)
module Key = struct
  (* Variable kinds 0-5, row kinds 6-11. *)
  let entry, transfer, exit, lambda, type_max, type_min = (0, 1, 2, 3, 4, 5)
  let entry_row, conservation, load, max_row, min_row, cap = (6, 7, 8, 9, 10, 11)
  let field v ~bits ~shift = (v land ((1 lsl bits) - 1)) lsl shift

  let make kind ~rule ~stage ~from ~box =
    field kind ~bits:4 ~shift:0 lor field box ~bits:11 ~shift:4
    lor field from ~bits:12 ~shift:15 lor field stage ~bits:4 ~shift:27
    lor field rule ~bits:13 ~shift:31

  let box kind id = make kind ~rule:0 ~stage:0 ~from:0 ~box:id

  let commodity = function
    | None -> 0
    | Some (s, d) -> field s ~bits:9 ~shift:44 lor field d ~bits:9 ~shift:53

  let nf = function
    | Policy.Action.FW -> 0 | IDS -> 1 | WP -> 2 | TM -> 3
    | Custom _ as nf -> 4 + (Policy.Action.nf_salt nf land 0x3ff)
end

(* Shared LP-building state: the model, the lambda variable, the
   per-middlebox load expressions, and the rows from which forwarding
   weights are extracted after solving. *)
type builder = {
  model : Lp.Model.t;
  lambda : Lp.Model.var;
  load_terms : (float * Lp.Model.var) list array; (* per middlebox id *)
  mutable weight_rows :
    (Mbox.Entity.t
    * int
    * Policy.Action.nf
    * (int * int) option (* Eq. (1) commodity (src, dst), if any *)
    * (int * Lp.Model.var) list)
    list;
}

let new_builder dep =
  let model = Lp.Model.create () in
  {
    model;
    lambda = Lp.Model.var model (Key.box Key.lambda 0);
    load_terms = Array.make (Array.length dep.Deployment.middleboxes) [];
    weight_rows = [];
  }

let terms_of vars = List.map (fun (_, v) -> (1.0, v)) vars

(* One policy chain contributes entry, per-stage transfer and exit
   variables plus conservation rows.  [entry_groups] is the list of
   (weight recipients, representative entity, volume); recipients all
   share the representative's candidate sets. *)
let add_chain ?commodity b cand ~rule_id ~chain ~entry_groups =
  let chain = Array.of_list chain in
  let ck = Key.commodity commodity in
  let n_stages = Array.length chain in
  (* stage_in.(i): (middlebox id, var) inflow pairs of stage i.
     stage_out.(i): per middlebox id, the outflow vars. *)
  let stage_in = Array.make n_stages [] in
  let stage_out = Array.make n_stages [] in
  let reachable = Array.make n_stages [] in
  (* Entry variables. *)
  List.iter
    (fun (recipients, repr, volume) ->
      let cands = Candidate.get cand repr chain.(0) in
      let from = Mbox.Entity.hash_key repr in
      let vars =
        List.map
          (fun (mb : Mbox.Middlebox.t) ->
            ( mb.id,
              Lp.Model.var b.model
                (Key.make Key.entry ~rule:rule_id ~stage:0 ~from ~box:mb.id lor ck) ))
          cands
      in
      Lp.Model.add_constraint b.model
        ~key:(Key.make Key.entry_row ~rule:rule_id ~stage:0 ~from ~box:0 lor ck)
        (terms_of vars) Lp.Model.Eq volume;
      stage_in.(0) <- vars @ stage_in.(0);
      List.iter
        (fun entity ->
          b.weight_rows <-
            (entity, rule_id, chain.(0), commodity, vars) :: b.weight_rows)
        recipients)
    entry_groups;
  reachable.(0) <-
    List.sort_uniq compare (List.map fst stage_in.(0));
  (* Transfer variables between consecutive stages, restricted to
     middleboxes actually reachable at the upstream stage. *)
  for i = 0 to n_stages - 2 do
    List.iter
      (fun x_id ->
        let x_entity = Mbox.Entity.Middlebox x_id in
        let cands = Candidate.get cand x_entity chain.(i + 1) in
        let from = Mbox.Entity.hash_key x_entity in
        let vars =
          List.map
            (fun (mb : Mbox.Middlebox.t) ->
              ( mb.id,
                Lp.Model.var b.model
                  (Key.make Key.transfer ~rule:rule_id ~stage:i ~from ~box:mb.id
                   lor ck) ))
            cands
        in
        stage_out.(i) <- (x_id, vars) :: stage_out.(i);
        stage_in.(i + 1) <- vars @ stage_in.(i + 1);
        b.weight_rows <-
          (x_entity, rule_id, chain.(i + 1), commodity, vars) :: b.weight_rows)
      reachable.(i);
    reachable.(i + 1) <-
      List.sort_uniq compare (List.map fst stage_in.(i + 1))
  done;
  (* Exit variables (aggregated over destinations; see .mli note). *)
  let last = n_stages - 1 in
  List.iter
    (fun x_id ->
      let v =
        Lp.Model.var b.model
          (Key.make Key.exit ~rule:rule_id ~stage:last
             ~from:(Mbox.Entity.hash_key (Mbox.Entity.Middlebox x_id))
             ~box:0
           lor ck)
      in
      stage_out.(last) <- (x_id, [ (-1, v) ]) :: stage_out.(last))
    reachable.(last);
  (* Conservation and load accounting per stage and reachable box. *)
  for i = 0 to n_stages - 1 do
    List.iter
      (fun y_id ->
        let inflow =
          List.filter_map
            (fun (id, v) -> if id = y_id then Some (1.0, v) else None)
            stage_in.(i)
        in
        let outflow =
          match List.assoc_opt y_id stage_out.(i) with
          | Some vars -> List.map (fun (_, v) -> (-1.0, v)) vars
          | None -> []
        in
        Lp.Model.add_constraint b.model
          ~key:(Key.make Key.conservation ~rule:rule_id ~stage:i ~from:0 ~box:y_id lor ck)
          (inflow @ outflow) Lp.Model.Eq 0.0;
        b.load_terms.(y_id) <- inflow @ b.load_terms.(y_id))
      reachable.(i)
  done

(* Secondary/tertiary objective weights.  Minimising lambda alone is
   degenerate: once the bottleneck middlebox type is balanced, every
   other type may be left arbitrarily skewed below lambda.  The paper's
   results (Fig. 4/5, Table III) show LB balancing *every* type, so we
   refine lexicographically: for each function e, a variable for the
   type's max load (minimised with weight [eps_type_max]) and one for
   its min load (maximised with weight [eps_type_min]).  The weights
   keep the refinement subordinate to lambda: the primary optimum is
   perturbed by at most ~0.1%. *)
let eps_type_max = 1e-4
let eps_type_min = 1e-8

(* Close the model: the load rows, the per-type refinement and the
   objective. *)
let complete b cand ?lambda_cap () =
  let dep = Candidate.deployment cand in
  (* Per-type max/min variables over middleboxes that can carry load. *)
  let type_vars = Hashtbl.create 8 in
  let type_var nf =
    match Hashtbl.find_opt type_vars nf with
    | Some pair -> pair
    | None ->
      let code = Key.nf nf in
      let pair =
        ( Lp.Model.var b.model (Key.box Key.type_max code),
          Lp.Model.var b.model (Key.box Key.type_min code) )
      in
      Hashtbl.replace type_vars nf pair;
      pair
  in
  Array.iteri
    (fun x_id terms ->
      if terms <> [] then begin
        let mb = dep.Deployment.middleboxes.(x_id) in
        let cap = mb.Mbox.Middlebox.capacity in
        Lp.Model.add_constraint b.model ~key:(Key.box Key.load x_id)
          ((-.cap, b.lambda) :: terms)
          Lp.Model.Le 0.0;
        let vmax, vmin = type_var mb.Mbox.Middlebox.nf in
        Lp.Model.add_constraint b.model ~key:(Key.box Key.max_row x_id)
          ((-.cap, vmax) :: terms) Lp.Model.Le 0.0;
        Lp.Model.add_constraint b.model ~key:(Key.box Key.min_row x_id)
          ((-.cap, vmin) :: terms) Lp.Model.Ge 0.0
      end)
    b.load_terms;
  (match lambda_cap with
  | Some cap ->
    Lp.Model.add_constraint b.model ~key:(Key.box Key.cap 0)
      [ (1.0, b.lambda) ] Lp.Model.Le cap
  | None -> ());
  let refinement =
    Hashtbl.fold
      (fun _ (vmax, vmin) acc ->
        (eps_type_max, vmax) :: (-.eps_type_min, vmin) :: acc)
      type_vars []
  in
  Lp.Model.set_objective b.model ((1.0, b.lambda) :: refinement)

let finish ?warm b =
  (* [?warm] threads the previous plan's snapshot through the solver:
     the variables and rows whose keys it lists as basic and that the
     rebuilt model still has seed the simplex, whatever else a failure
     added or dropped.  [lp_warm_used]: a keyed previous basis seeded
     the solve; [lp_fallback]: a snapshot was offered but the cold path
     answered.  Without [?warm] the cold path runs, bit-identical to a
     build without warm starts. *)
  let outcome, sstats, snapshot = Lp.Model.solve_ext ?prev:warm b.model in
  match outcome with
  | Lp.Model.Infeasible -> Error "load-balancing LP infeasible"
  | Lp.Model.Unbounded -> Error "load-balancing LP unbounded (bug)"
  | Lp.Model.Optimal sol ->
    let weights = Weights.create () in
    (* Rows are pushed most-recent-first; accumulate sums so the exact
       formulation's many per-(s,d) rows aggregate cleanly into the
       fallback table while also populating the per-commodity one. *)
    let weights_sd = Weights_sd.create () in
    let any_commodity = ref false in
    let acc :
        (int * int * Policy.Action.nf, (int, float) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 256
    in
    let row_entities = Hashtbl.create 256 in
    List.iter
      (fun (entity, rule, nf, commodity, vars) ->
        (match commodity with
        | Some (src, dst) ->
          any_commodity := true;
          let row =
            List.map (fun (y, var) -> (y, Lp.Model.value sol var)) vars
            |> Array.of_list
          in
          Weights_sd.set weights_sd entity ~rule ~nf ~src ~dst row
        | None -> ());
        let key = (Mbox.Entity.hash_key entity, rule, nf) in
        Hashtbl.replace row_entities key (entity, rule, nf);
        let cell =
          match Hashtbl.find_opt acc key with
          | Some c -> c
          | None ->
            let c = Hashtbl.create 8 in
            Hashtbl.replace acc key c;
            c
        in
        List.iter
          (fun (y, var) ->
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt cell y) in
            Hashtbl.replace cell y (prev +. Lp.Model.value sol var))
          vars)
      b.weight_rows;
    Hashtbl.iter
      (fun key cell ->
        let entity, rule, nf = Hashtbl.find row_entities key in
        let row =
          Hashtbl.fold (fun y v l -> (y, v) :: l) cell []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> Array.of_list
        in
        (* An all-zero row asserts nothing: the selector would fall
           back to closest-live exactly as if the row were absent, so
           absence is the honest representation — and it lets Verify
           require every row actually present to normalize.  Per-(s,d)
           rows are NOT filtered: their absence falls through to the
           aggregate row, which would change picks. *)
        let total = Array.fold_left (fun acc (_, v) -> acc +. v) 0.0 row in
        if total > 0.0 then Weights.set weights entity ~rule ~nf row)
      acc;
    let loads =
      Array.map
        (fun terms ->
          List.fold_left
            (fun s (c, v) -> s +. (c *. Lp.Model.value sol v))
            0.0 terms)
        b.load_terms
    in
    Ok
      {
        lambda = Lp.Model.value sol b.lambda;
        weights;
        weights_sd = (if !any_commodity then Some weights_sd else None);
        loads;
        lp_vars = Lp.Model.num_vars b.model;
        lp_constraints = Lp.Model.num_constraints b.model;
        lp_pivots = sstats.Lp.Simplex.pivots;
        lp_phase1_pivots = sstats.Lp.Simplex.phase1_pivots;
        lp_warm_used = sstats.Lp.Simplex.warm_used;
        lp_fallback = sstats.Lp.Simplex.fallback;
        lp_snapshot = snapshot;
      }

let check_chain rule =
  let chain = rule.Policy.Rule.actions in
  if Policy.Action.has_duplicates chain then
    Error
      (Printf.sprintf "rule %d repeats a function in its action list"
         rule.Policy.Rule.id)
  else Ok chain

(* Group traffic sources by candidate-set fingerprint.  Members of a
   group see identical candidate sets, so one aggregated entry
   constraint represents them exactly (DESIGN.md, substitution notes). *)
let group_entry_sources cand ~group_sources sources =
  if not group_sources then
    List.map
      (fun (s, volume) ->
        let e = Mbox.Entity.Proxy s in
        ([ e ], e, volume))
      sources
  else begin
    let groups = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun (s, volume) ->
        let e = Mbox.Entity.Proxy s in
        let fp = Candidate.fingerprint cand e in
        match Hashtbl.find_opt groups fp with
        | Some cell ->
          let members, repr, total = !cell in
          cell := (e :: members, repr, total +. volume)
        | None ->
          let cell = ref ([ e ], e, volume) in
          Hashtbl.replace groups fp cell;
          order := fp :: !order)
      sources;
    List.rev_map (fun fp -> !(Hashtbl.find groups fp)) !order
  end

(* A closed, unsolved model: [add_rule b rule chain] adds each rule
   whose chain needs middleboxes. *)
let build cand ~rules ?lambda_cap add_rule =
  let b = new_builder (Candidate.deployment cand) in
  let rec add = function
    | [] -> Ok ()
    | rule :: rest -> (
      match check_chain rule with
      | Error _ as e -> e
      | Ok [] -> add rest (* permit: no middlebox traffic *)
      | Ok chain ->
        add_rule b rule.Policy.Rule.id chain;
        add rest)
  in
  match add rules with
  | Error e -> Error e
  | Ok () ->
    complete b cand ?lambda_cap ();
    Ok b
  | exception Not_found ->
    Error "a rule references a function no middlebox implements"

let build_simplified cand ~rules ~traffic ?(group_sources = true) ?lambda_cap () =
  build cand ~rules ?lambda_cap (fun b rule_id chain ->
      let sources = Measurement.sources_for traffic ~rule:rule_id in
      if sources <> [] then
        add_chain b cand ~rule_id ~chain
          ~entry_groups:(group_entry_sources cand ~group_sources sources))

let simplified_model cand ~rules ~traffic ?group_sources ?lambda_cap () =
  Result.map (fun b -> b.model) (build_simplified cand ~rules ~traffic ?group_sources ?lambda_cap ())

let solve_simplified cand ~rules ~traffic ?group_sources ?lambda_cap ?warm () =
  Result.bind (build_simplified cand ~rules ~traffic ?group_sources ?lambda_cap ()) (finish ?warm)

let solve_exact cand ~rules ~traffic ?lambda_cap ?warm () =
  (* One commodity per (s, d) pair with traffic: full Eq. (1)
     resolution.  Entry groups are singletons. *)
  let add_rule b rule_id chain =
    List.iter
      (fun (s, d, volume) ->
        let e = Mbox.Entity.Proxy s in
        add_chain ~commodity:(s, d) b cand ~rule_id ~chain ~entry_groups:[ ([ e ], e, volume) ])
      (Measurement.pairs_for traffic ~rule:rule_id)
  in
  Result.bind (build cand ~rules ?lambda_cap add_rule) (finish ?warm)
