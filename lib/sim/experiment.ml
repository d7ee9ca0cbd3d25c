type scenario = Campus | Waxman

let scenario_name = function Campus -> "campus" | Waxman -> "waxman"

let mbox_counts =
  Policy.Action.[ (WP, 4); (FW, 7); (IDS, 7); (TM, 4) ]

let build_deployment scenario ~seed =
  let topo =
    match scenario with
    | Campus -> Netgraph.Campus.generate ~seed ()
    | Waxman -> Netgraph.Waxman.generate ~seed ()
  in
  Sdm.Deployment.standard ~topo ~mbox_counts ~seed:(seed + 1)

let configure ?k ?failed deployment (w : Workload.t) kind =
  match Sdm.Controller.configure deployment ~rules:w.rules ?k ?failed kind with
  | Ok c -> c
  | Error e -> failwith ("controller configuration failed: " ^ e)

(* The id of the box among [boxes] with the highest [loads] entry,
   first on ties. *)
let busiest boxes loads =
  List.fold_left
    (fun best (m : Mbox.Middlebox.t) -> if loads.(m.id) > loads.(best) then m.id else best)
    (List.hd boxes).Mbox.Middlebox.id boxes

(* The two controllers most experiments start from. *)
let hot_potato deployment w = configure deployment w Sdm.Controller.Hot_potato

let load_balanced deployment w =
  configure deployment w (Sdm.Controller.Load_balanced (Workload.measure w))

(* ---- Parallel cell fan-out --------------------------------------- *)

(* Every sweep expresses its cells as a list of independent thunks
   evaluated through [Stdx.Domain_pool.map].  Results come back
   in input order and each thunk is a pure function of its captured
   (immutable) inputs — the deployment, workload and controllers are
   never mutated by a run — so the report is bit-identical whatever
   [jobs] is.  [jobs] defaults to {!Stdx.Domain_pool.default_jobs}. *)
let fan_out ?jobs thunks =
  Array.to_list (Stdx.Domain_pool.map ?jobs (fun f -> f ()) (Array.of_list thunks))

let fan_out2 ?jobs a b =
  match fan_out ?jobs [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ---- Controller-level churn replay (ABL-REOPT's oracle) ---------- *)

type reopt_step = {
  rs_failed : int list;
  rs_cold_pivots : int;
  rs_cold_phase1 : int;
  rs_warm_pivots : int;
  rs_warm_phase1 : int;
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_seed : int list option;
  rs_warm_used : bool;
  rs_fallback : bool;
  rs_agree : bool;
}

let lambda_agree ~cold ~warm =
  Float.abs (warm -. cold) <= 1e-6 *. Stdlib.max 1.0 (Float.abs cold)

(* Two boxes from different functions, so excluding either never
   empties a candidate set (7 FW and 7 IDS boxes are deployed). *)
let churn_victims deployment =
  let first nf =
    (List.hd (Sdm.Deployment.middleboxes_of deployment nf)).Mbox.Middlebox.id
  in
  (first Policy.Action.IDS, first Policy.Action.FW)

(* A load-balanced controller plus the churn sequence each chain
   replays: no change (the warm solve must take zero pivots), a crash,
   a second concurrent crash, the first recovery, full recovery, and a
   final no-change step. *)
let churn_chain scenario ~flows ~seed =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let v1, v2 = churn_victims deployment in
  ( load_balanced deployment workload,
    Workload.measure workload,
    [ []; [ v1 ]; [ v1; v2 ]; [ v2 ]; []; [] ] )

let reopt_exn c ~failed ~use_warm ~traffic =
  match Sdm.Controller.reoptimize c ~failed ~use_warm ~traffic () with
  | Ok c -> c
  | Error e -> failwith ("reopt_replay: " ^ e)

let reopt_replay scenario ?(flows = 500) ?(seed = 17) () =
  let base, traffic, chain = churn_chain scenario ~flows ~seed in
  let lp (c : Sdm.Controller.t) = Option.get c.Sdm.Controller.lp in
  let _, _, rev =
    List.fold_left
      (fun (cold, warm, acc) failed ->
        let cold = reopt_exn cold ~failed ~use_warm:false ~traffic in
        let seed = Sdm.Controller.seed_of warm ~failed in
        let warm = reopt_exn warm ~failed ~use_warm:true ~traffic in
        let cl = lp cold and wl = lp warm in
        let cold_lambda = cl.Sdm.Lp_formulation.lambda in
        let warm_lambda = wl.Sdm.Lp_formulation.lambda in
        ( cold,
          warm,
          {
            rs_failed = failed;
            rs_cold_pivots = cl.Sdm.Lp_formulation.lp_pivots;
            rs_cold_phase1 = cl.Sdm.Lp_formulation.lp_phase1_pivots;
            rs_warm_pivots = wl.Sdm.Lp_formulation.lp_pivots;
            rs_warm_phase1 = wl.Sdm.Lp_formulation.lp_phase1_pivots;
            rs_cold_lambda = cold_lambda;
            rs_warm_lambda = warm_lambda;
            rs_seed = seed;
            rs_warm_used = wl.Sdm.Lp_formulation.lp_warm_used;
            rs_fallback = wl.Sdm.Lp_formulation.lp_fallback;
            rs_agree = lambda_agree ~cold:cold_lambda ~warm:warm_lambda;
          }
          :: acc ))
      (base, base, []) chain
  in
  List.rev rev

let reopt_solve_ms ~clock scenario ?(flows = 500) ?(seed = 17) () =
  let base, traffic, chain = churn_chain scenario ~flows ~seed in
  let reps = 5 in
  let per_solve use_warm =
    let t0 = clock () in
    for _ = 1 to reps do
      ignore
        (List.fold_left (fun c failed -> reopt_exn c ~failed ~use_warm ~traffic) base chain)
    done;
    (clock () -. t0) /. float_of_int (reps * List.length chain) *. 1e3
  in
  let cold = per_solve false in
  (cold, per_solve true)
