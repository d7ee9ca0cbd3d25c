(* Incremental re-optimization: warm-started LP re-solves under churn.

   A narrative for the warm-start path: take one load-balanced
   configuration and walk it through a middlebox churn sequence — a
   crash, a second concurrent crash, staged recovery — twice.  The
   cold chain rebuilds candidate sets and re-solves the placement LP
   from scratch at every step; the warm chain patches the candidate
   sets in place and seeds the simplex with a remembered basis,
   matched by key in the rebuilt LP, whatever variables and rows the
   failure added or dropped.  The controller remembers the basis of
   every failure set it has solved and seeds from the largest one
   inside the new set ("seeded from"), so a recovery starts from the
   plan before the crash, and a return to a set already solved costs
   nothing.  Both chains must land on the same optimum at every step —
   warm starting buys pivots, never answers.

   The same flag then runs inside the packet simulator: one live
   control-plane run per mode, identical fault schedule, and the warm
   run re-solves its in-run LPs with strictly fewer total pivots.

     dune exec examples/incremental_reopt.exe *)

let () =
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
  let workload = Sim.Workload.generate ~deployment ~seed:17 ~flows:400 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let base =
    match
      Sdm.Controller.configure deployment ~rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  (match base.Sdm.Controller.lp with
  | Some lp ->
    Format.printf
      "initial plan: lambda %.0f, %d pivots (two-phase from scratch)@.@."
      lp.Sdm.Lp_formulation.lambda lp.Sdm.Lp_formulation.lp_pivots
  | None -> assert false);

  (* The controller-level differential: same churn, two chains. *)
  let steps = Sim.Experiment.reopt_replay Sim.Experiment.Campus ~flows:400 () in
  let set = function [] -> "-" | l -> String.concat "+" (List.map string_of_int l) in
  Format.printf "%-4s %-10s %-11s %12s %12s %12s %12s %6s %9s@." "step" "failed"
    "seeded from" "cold pivots" "cold phase1" "warm pivots" "warm phase1" "warm"
    "fallback";
  List.iteri
    (fun i (s : Sim.Experiment.reopt_step) ->
      Format.printf "%-4d %-10s %-11s %12d %12d %12d %12d %6s %9s@." (i + 1)
        (set s.Sim.Experiment.rs_failed)
        (match s.Sim.Experiment.rs_seed with None -> "plan" | Some l -> set l)
        s.Sim.Experiment.rs_cold_pivots s.Sim.Experiment.rs_cold_phase1
        s.Sim.Experiment.rs_warm_pivots s.Sim.Experiment.rs_warm_phase1
        (if s.Sim.Experiment.rs_warm_used then "yes" else "no")
        (if s.Sim.Experiment.rs_fallback then "yes" else "no"))
    steps;

  (* The warm-start contract, asserted step by step. *)
  List.iteri
    (fun i (s : Sim.Experiment.reopt_step) ->
      (* 1. Warm and cold agree on the optimum at every step. *)
      assert s.Sim.Experiment.rs_agree;
      (* 2. The keyed basis seeded every warm solve: no step fell
         back to the cold path. *)
      assert (s.Sim.Experiment.rs_warm_used && not s.Sim.Experiment.rs_fallback);
      (* 3. An unchanged problem warm-solves in exactly zero pivots:
         the first step repeats the initial solve, "recover all"
         returns to the first step's failure set and starts from its
         basis, and the last step repeats its predecessor. *)
      if i = 0 || i >= List.length steps - 2 then begin
        assert (s.Sim.Experiment.rs_warm_pivots + s.Sim.Experiment.rs_warm_phase1 = 0)
      end)
    steps;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
  let cold_total =
    sum (fun s -> s.Sim.Experiment.rs_cold_pivots + s.Sim.Experiment.rs_cold_phase1)
  in
  let warm_total =
    sum (fun s -> s.Sim.Experiment.rs_warm_pivots + s.Sim.Experiment.rs_warm_phase1)
  in
  Format.printf
    "@.churn chain: cold %d pivots, warm %d pivots (phase 1 + phase 2, %.0f%% \
     saved), same optima@.@."
    cold_total warm_total
    (100.0 *. float_of_int (cold_total - warm_total) /. float_of_int cold_total);
  assert (warm_total < cold_total);

  (* The 0-pivot return, one controller at a time: crash a box, bring
     it back, and the controller re-plans from the basis it remembered
     for "nothing failed" — the same plan to the bit, so the
     replicated control plane has nothing new to push. *)
  let v1, _ = Sim.Experiment.churn_victims deployment in
  let reopt c failed =
    match Sdm.Controller.reoptimize c ~failed ~use_warm:true ~traffic () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let lp (c : Sdm.Controller.t) = Option.get c.Sdm.Controller.lp in
  let before = reopt base [] in
  let crashed = reopt before [ v1 ] in
  let back = reopt crashed [] in
  Format.printf
    "crash mbox%d: %d pivots; recover it: seeded from %s, %d pivots, fingerprint \
     %016Lx (before the crash: %016Lx)@.@."
    v1
    ((lp crashed).Sdm.Lp_formulation.lp_pivots + (lp crashed).Sdm.Lp_formulation.lp_phase1_pivots)
    (match Sdm.Controller.seed_of crashed ~failed:[] with None -> "plan" | Some l -> set l)
    ((lp back).Sdm.Lp_formulation.lp_pivots + (lp back).Sdm.Lp_formulation.lp_phase1_pivots)
    (Sdm.Controller.fingerprint back) (Sdm.Controller.fingerprint before);
  assert ((lp back).Sdm.Lp_formulation.lp_pivots = 0);
  assert ((lp back).Sdm.Lp_formulation.lp_phase1_pivots = 0);
  assert (Sdm.Controller.fingerprint back = Sdm.Controller.fingerprint before);

  (* The same flag inside the packet simulator: live control plane,
     middlebox churn, warm_start off vs on.  Identical traffic and
     faults; only the solver's path to each optimum differs. *)
  let jobs = Stdx.Domain_pool.default_jobs () in
  let reopt, replays = Sim.Ablation.reopt ~flows:400 ~seed:17 ~audit:false ~jobs in
  let rows =
    Sim.Ablation.sweep ~jobs (Sim.Ablation.filter (fun (name, _, _) -> name = "campus") reopt)
  in
  let row warm = snd (List.find (fun ((_, _, w), _) -> w = warm) rows) in
  let cold = row false and warm = row true in
  Format.printf
    "in-run (campus, %d re-optimizations): cold %d pivots, warm %d pivots \
     (%d warm-carried, %d fell back)@."
    cold.Sim.Pktsim.reoptimizations cold.Sim.Pktsim.reopt_pivots
    warm.Sim.Pktsim.reopt_pivots warm.Sim.Pktsim.reopt_warm_used
    warm.Sim.Pktsim.reopt_fallback;
  (* 4. Warm starting saves pivots in-run too, and perturbs nothing
     else: same packets, same delivery, same versions published. *)
  assert (warm.Sim.Pktsim.reopt_pivots < cold.Sim.Pktsim.reopt_pivots);
  assert (warm.Sim.Pktsim.injected_packets = cold.Sim.Pktsim.injected_packets);
  assert (
    warm.Sim.Pktsim.final_config_version = cold.Sim.Pktsim.final_config_version);
  (* 5. The replay's global verdict: every step of every scenario
     agreed. *)
  let agree, total = Sim.Ablation.agreement replays in
  assert (agree = total);

  Format.printf
    "@.all invariants hold: equal optima, zero-pivot no-op re-solves and \
     returns, strictly fewer pivots warm@."
