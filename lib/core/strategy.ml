type t =
  | Hot_potato
  | Random_uniform
  | Load_balanced of Weights.t
  | Load_balanced_exact of Weights_sd.t * Weights.t

let name = function
  | Hot_potato -> "HP"
  | Random_uniform -> "Rand"
  | Load_balanced _ -> "LB"
  | Load_balanced_exact _ -> "LBx"

let middlebox_by_id cand id =
  (Candidate.deployment cand).Deployment.middleboxes.(id)

let rec all_alive alive = function
  | [] -> true
  | (m : Mbox.Middlebox.t) :: rest -> alive m.id && all_alive alive rest

let rec row_alive alive (row : (int * float) array) i =
  i < 0 || (alive (fst row.(i)) && row_alive alive row (i - 1))

(* With no [alive] predicate, or one that spares every candidate, the
   candidate list is returned as-is: [Candidate.compute] guarantees it
   is non-empty, and skipping the filter keeps the fast path
   allocation-free. *)
let live_candidates ?alive cand entity nf =
  let all = Candidate.get cand entity nf in
  match alive with
  | Some alive when not (all_alive alive all) ->
    List.filter (fun (m : Mbox.Middlebox.t) -> alive m.id) all
  | Some _ | None -> all

(* An absent LP row is [[||]]: no pick, so the closest live one serves. *)
let pick_row ?alive cand entity ~nf flow ~closest_live row =
  let row =
    match alive with
    | Some alive when not (row_alive alive row (Array.length row - 1)) ->
      Array.of_seq (Seq.filter (fun (id, _) -> alive id) (Array.to_seq row))
    | Some _ | None -> row (* all alive: no re-filter, no allocation *)
  in
  let i = Selector.pick_slot row ~u:(Selector.flow_point flow ~entity ~nf) in
  if i < 0 then closest_live else middlebox_by_id cand (fst row.(i))

(* The decision among the non-empty [live] candidates, so that
   [next_hop] wraps no [result] around it. *)
let choose ?alive t cand entity ~rule ~nf flow ~closest_live live =
  match t with
  | Hot_potato -> closest_live
  | Random_uniform ->
    let u = Selector.flow_point flow ~entity ~nf in
    Selector.pick_uniform live ~u
  | Load_balanced weights ->
    pick_row ?alive cand entity ~nf flow ~closest_live
      (Weights.row weights entity ~rule:rule.Policy.Rule.id ~nf)
  | Load_balanced_exact (sd, fallback) ->
    let dep = Candidate.deployment cand in
    let row =
      (* Recover the (source, destination) pair from the packet; pairs
         outside the measured matrix fall back to the aggregate rows. *)
      match
        ( Deployment.proxy_of_addr dep flow.Netpkt.Flow.src,
          Deployment.proxy_of_addr dep flow.Netpkt.Flow.dst )
      with
      | Some s, Some d ->
        Weights_sd.find sd entity ~rule:rule.Policy.Rule.id ~nf
          ~src:s.Mbox.Proxy.id ~dst:d.Mbox.Proxy.id
      | _ -> None
    in
    let row =
      match row with
      | Some r -> r
      | None -> Weights.row fallback entity ~rule:rule.Policy.Rule.id ~nf
    in
    pick_row ?alive cand entity ~nf flow ~closest_live row

let next_hop_result ?alive t cand entity ~rule ~nf flow =
  match live_candidates ?alive cand entity nf with
  | [] -> Error `No_live_candidate
  | closest_live :: _ as live ->
    Ok (choose ?alive t cand entity ~rule ~nf flow ~closest_live live)

let next_hop ?alive t cand entity ~rule ~nf flow =
  match live_candidates ?alive cand entity nf with
  | closest_live :: _ as live ->
    choose ?alive t cand entity ~rule ~nf flow ~closest_live live
  | [] ->
    failwith
      (Printf.sprintf "Strategy.next_hop: no live %s candidate at %s"
         (Policy.Action.nf_to_string nf)
         (Mbox.Entity.to_string entity))
