type kind =
  | Hot_potato
  | Random_uniform
  | Load_balanced of Measurement.t
  | Load_balanced_exact of Measurement.t

type t = {
  deployment : Deployment.t;
  candidates : Candidate.t;
  rules : Policy.Rule.t list;
  strategy : Strategy.t;
  lp : Lp_formulation.result option;
  k : Policy.Action.nf -> int;
  memo : (int list * Lp.Model.snapshot) list;
}

let default_k = function
  | Policy.Action.FW | Policy.Action.IDS -> 4
  | Policy.Action.WP | Policy.Action.TM | Policy.Action.Custom _ -> 2

(* A failure set as the memo keys it: sorted, without repeats. *)
let failure_set failed = List.sort_uniq Int.compare failed

(* The memo with [set]'s entry replaced by [snapshot], most recent
   first. *)
let remember memo set snapshot =
  match snapshot with
  | None -> memo
  | Some sn -> (set, sn) :: List.filter (fun (s, _) -> s <> set) memo

(* The memo entry with the largest failure set inside [failed]; the
   memo is most recent first, so a tie keeps the most recent. *)
let seed_entry t failed =
  List.fold_left
    (fun best ((set, _) as e) ->
      if not (List.for_all (fun id -> List.mem id failed) set) then best
      else
        match best with
        | Some (s, _) when List.length s >= List.length set -> best
        | _ -> Some e)
    None t.memo

let seed_of t ~failed = Option.map fst (seed_entry t failed)

let referenced_functions rules =
  List.concat_map (fun r -> r.Policy.Rule.actions) rules
  |> List.sort_uniq Policy.Action.compare_nf

let configure deployment ~rules ?(k = default_k) ?(failed = []) kind =
  let missing =
    List.filter
      (fun nf -> Deployment.middleboxes_of deployment nf = [])
      (referenced_functions rules)
  in
  if missing <> [] then
    Error
      (Printf.sprintf "no middlebox implements: %s"
         (String.concat ", " (List.map Policy.Action.nf_to_string missing)))
  else begin
    match Candidate.compute ~exclude:failed deployment ~k with
    | exception Invalid_argument e -> Error e
    | candidates ->
    (
    match kind with
    | Hot_potato ->
      Ok
        { deployment; candidates; rules; strategy = Strategy.Hot_potato;
          lp = None; k; memo = [] }
    | Random_uniform ->
      Ok
        { deployment; candidates; rules; strategy = Strategy.Random_uniform;
          lp = None; k; memo = [] }
    | Load_balanced traffic -> (
      match Lp_formulation.solve_simplified candidates ~rules ~traffic () with
      | Error e -> Error e
      | Ok lp ->
        Ok
          {
            deployment;
            candidates;
            rules;
            strategy = Strategy.Load_balanced lp.Lp_formulation.weights;
            lp = Some lp;
            k;
            memo = remember [] (failure_set failed) lp.Lp_formulation.lp_snapshot;
          })
    | Load_balanced_exact traffic -> (
      match Lp_formulation.solve_exact candidates ~rules ~traffic () with
      | Error e -> Error e
      | Ok lp ->
        let sd =
          (* solve_exact always tags commodities; an empty measurement
             legitimately yields no rows. *)
          Option.value ~default:(Weights_sd.create ())
            lp.Lp_formulation.weights_sd
        in
        Ok
          {
            deployment;
            candidates;
            rules;
            strategy =
              Strategy.Load_balanced_exact (sd, lp.Lp_formulation.weights);
            lp = Some lp;
            k;
            memo = remember [] (failure_set failed) lp.Lp_formulation.lp_snapshot;
          }))
  end

let reoptimize t ?(failed = []) ?(use_warm = false) ~traffic () =
  (* The live controller's reaction to measurements and detected
     failures (Sec. III.C): rebuild candidate sets around the failed
     boxes and re-solve the placement from the traffic observed so
     far.  Whatever the initial strategy, re-optimization produces a
     load-balanced plan — that is the whole point of measuring — with
     the exact formulation preserved when it was chosen initially.

     With [use_warm], the re-optimization is incremental end to end:
     candidate sets are patched from the previous configuration's
     ranked lists instead of recomputed ([Candidate.with_excluded]),
     and the LP warm-starts from a remembered basis, matched by key:
     the memo's largest failure set inside [failed] ([seed_entry]), or
     the previous plan's when none fits.  A crash is seeded from the
     plan it follows; a recovery from an earlier, smaller failure set,
     whose basis holds the recovered box's columns.  The patched sets
     are provably equal to a rebuild and the warm solve is an optimum
     the cold solve would also reach, so only pivot counts — never
     feasibility or the objective — depend on the flag.
     [use_warm = false] is the cold path, bit-identical to builds
     without warm-start support. *)
  if not use_warm then
    let kind =
      match t.strategy with
      | Strategy.Load_balanced_exact _ -> Load_balanced_exact traffic
      | Strategy.Hot_potato | Strategy.Random_uniform
      | Strategy.Load_balanced _ ->
        Load_balanced traffic
    in
    configure t.deployment ~rules:t.rules ~k:t.k ~failed kind
  else begin
    match Candidate.with_excluded t.candidates failed with
    | Error e -> Error e
    | Ok candidates -> (
      let warm =
        match seed_entry t failed with
        | Some (_, sn) -> Some sn
        | None -> Option.bind t.lp (fun lp -> lp.Lp_formulation.lp_snapshot)
      in
      let memo lp =
        remember t.memo (failure_set failed) lp.Lp_formulation.lp_snapshot
      in
      match t.strategy with
      | Strategy.Load_balanced_exact _ -> (
        match
          Lp_formulation.solve_exact candidates ~rules:t.rules ~traffic ?warm ()
        with
        | Error e -> Error e
        | Ok lp ->
          let sd =
            Option.value ~default:(Weights_sd.create ())
              lp.Lp_formulation.weights_sd
          in
          Ok
            {
              t with
              candidates;
              strategy =
                Strategy.Load_balanced_exact (sd, lp.Lp_formulation.weights);
              lp = Some lp;
              memo = memo lp;
            })
      | Strategy.Hot_potato | Strategy.Random_uniform
      | Strategy.Load_balanced _ -> (
        match
          Lp_formulation.solve_simplified candidates ~rules:t.rules ~traffic
            ?warm ()
        with
        | Error e -> Error e
        | Ok lp ->
          Ok
            {
              t with
              candidates;
              strategy = Strategy.Load_balanced lp.Lp_formulation.weights;
              lp = Some lp;
              memo = memo lp;
            }))
  end

let policy_table_for t = function
  | Mbox.Entity.Proxy i ->
    Policy.Rule.relevant_to_subnet t.rules (Deployment.subnet_of t.deployment i)
  | Mbox.Entity.Middlebox i ->
    Policy.Rule.relevant_to_function t.rules
      t.deployment.Deployment.middleboxes.(i).Mbox.Middlebox.nf

let next_hop_result ?alive t entity ~rule ~nf flow =
  Strategy.next_hop_result ?alive t.strategy t.candidates entity ~rule ~nf flow

let next_hop ?alive t entity ~rule ~nf flow =
  Strategy.next_hop ?alive t.strategy t.candidates entity ~rule ~nf flow

type config_summary = {
  entities : int;
  policy_rows : int;
  candidate_entries : int;
  weight_rows : int;
  weight_cells : int;
}

let config_summary t =
  let all_entities =
    List.init (Array.length t.deployment.Deployment.proxies) (fun i ->
        Mbox.Entity.Proxy i)
    @ List.init (Array.length t.deployment.Deployment.middleboxes) (fun i ->
          Mbox.Entity.Middlebox i)
  in
  let policy_rows =
    List.fold_left
      (fun acc e -> acc + List.length (policy_table_for t e))
      0 all_entities
  in
  let candidate_entries =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc nf ->
            match Candidate.get t.candidates e nf with
            | members -> acc + List.length members
            | exception Invalid_argument _ -> acc (* own function *)
            | exception Not_found -> acc)
          acc
          (Deployment.functions t.deployment))
      0 all_entities
  in
  let weight_rows, weight_cells =
    match t.strategy with
    | Strategy.Load_balanced w -> (Weights.entries w, Weights.cells w)
    | Strategy.Load_balanced_exact (sd, fallback) ->
      ( Weights_sd.entries sd + Weights.entries fallback,
        Weights_sd.cells sd + Weights.cells fallback )
    | Strategy.Hot_potato | Strategy.Random_uniform -> (0, 0)
  in
  {
    entities = List.length all_entities;
    policy_rows;
    candidate_entries;
    weight_rows;
    weight_cells;
  }

let fingerprint t =
  (* FNV-1a over the configuration's content-bearing parts: strategy
     kind, dissemination summary, rule ids, and — for load-balanced
     plans — the LP's objective and predicted per-middlebox loads.
     Purely structural (no closures, no addresses), so equal
     configurations hash equally in any run, domain, or process. *)
  let h = ref 0xcbf29ce484222325L in
  let mix64 v =
    h := Int64.mul (Int64.logxor !h v) 0x100000001b3L
  in
  let mix i = mix64 (Int64.of_int i) in
  let mixf x = mix64 (Int64.bits_of_float x) in
  mix
    (match t.strategy with
    | Strategy.Hot_potato -> 1
    | Strategy.Random_uniform -> 2
    | Strategy.Load_balanced _ -> 3
    | Strategy.Load_balanced_exact _ -> 4);
  let s = config_summary t in
  mix s.entities;
  mix s.policy_rows;
  mix s.candidate_entries;
  mix s.weight_rows;
  mix s.weight_cells;
  List.iter (fun r -> mix r.Policy.Rule.id) t.rules;
  (match t.lp with
  | None -> mix 0
  | Some lp ->
    mixf lp.Lp_formulation.lambda;
    Array.iter mixf lp.Lp_formulation.loads);
  !h

let closest t entity nf = Candidate.closest t.candidates entity nf

type update_delta = {
  controller : t;
  entities_touched : int;
  rows_added : int;
  rows_removed : int;
}

let update_rules t ~rules kind =
  match configure t.deployment ~rules ~k:t.k kind with
  | Error e -> Error e
  | Ok controller ->
    let all_entities =
      List.init (Array.length t.deployment.Deployment.proxies) (fun i ->
          Mbox.Entity.Proxy i)
      @ List.init (Array.length t.deployment.Deployment.middleboxes) (fun i ->
            Mbox.Entity.Middlebox i)
    in
    let touched = ref 0 and added = ref 0 and removed = ref 0 in
    List.iter
      (fun entity ->
        (* Diff the entity's table by rule identity (id + content):
           ids are positional, so a pure insertion shifts later ids and
           honestly counts as re-pushing them — first-match order is
           part of each row's meaning. *)
        let key r = (r.Policy.Rule.id, r.Policy.Rule.descriptor, r.Policy.Rule.actions) in
        let before = List.map key (policy_table_for t entity) in
        let after = List.map key (policy_table_for controller entity) in
        let plus = List.filter (fun r -> not (List.mem r before)) after in
        let minus = List.filter (fun r -> not (List.mem r after)) before in
        if plus <> [] || minus <> [] then begin
          incr touched;
          added := !added + List.length plus;
          removed := !removed + List.length minus
        end)
      all_entities;
    Ok
      {
        controller;
        entities_touched = !touched;
        rows_added = !added;
        rows_removed = !removed;
      }
