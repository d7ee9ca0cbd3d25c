(* Incremental re-optimization: warm-started LP re-solves under churn.

   A narrative for the warm-start path: take one load-balanced
   configuration and walk it through a middlebox churn sequence — a
   crash, a second concurrent crash, staged recovery — twice.  The
   cold chain rebuilds candidate sets and re-solves the placement LP
   from scratch at every step; the warm chain patches the candidate
   sets in place and restarts the simplex from the previous plan's
   basis, falling back to the cold two-phase solve whenever the
   rebuilt LP's layout changed.  Both chains must land on the same
   optimum at every step — warm starting buys pivots, never answers.

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
  Format.printf "%-4s %-10s %12s %12s %6s %9s@." "step" "failed"
    "cold pivots" "warm pivots" "warm" "fallback";
  List.iteri
    (fun i (s : Sim.Experiment.reopt_step) ->
      Format.printf "%-4d %-10s %12d %12d %6s %9s@." (i + 1)
        (match s.Sim.Experiment.rs_failed with
        | [] -> "-"
        | l -> String.concat "+" (List.map string_of_int l))
        s.Sim.Experiment.rs_cold_pivots s.Sim.Experiment.rs_warm_pivots
        (if s.Sim.Experiment.rs_warm_used then "yes" else "no")
        (if s.Sim.Experiment.rs_fallback then "yes" else "no"))
    steps;

  (* The warm-start contract, asserted step by step. *)
  List.iteri
    (fun i (s : Sim.Experiment.reopt_step) ->
      (* 1. Warm and cold agree on the optimum at every step. *)
      assert s.Sim.Experiment.rs_agree;
      (* 2. The warm solve either carried the basis or honestly fell
         back — never both, never neither. *)
      assert (s.Sim.Experiment.rs_warm_used <> s.Sim.Experiment.rs_fallback);
      (* 3. An unchanged problem warm-solves in exactly zero pivots:
         the first step repeats the initial solve, and the last step
         repeats its predecessor. *)
      if i = 0 || i = List.length steps - 1 then begin
        assert s.Sim.Experiment.rs_warm_used;
        assert (s.Sim.Experiment.rs_warm_pivots = 0)
      end)
    steps;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
  let cold_total = sum (fun s -> s.Sim.Experiment.rs_cold_pivots) in
  let warm_total = sum (fun s -> s.Sim.Experiment.rs_warm_pivots) in
  Format.printf
    "@.churn chain: cold %d pivots, warm %d pivots (%.0f%% saved), same \
     optima@.@."
    cold_total warm_total
    (100.0 *. float_of_int (cold_total - warm_total) /. float_of_int cold_total);
  assert (warm_total < cold_total);

  (* The same flag inside the packet simulator: live control plane,
     middlebox churn, warm_start off vs on.  Identical traffic and
     faults; only the solver's path to each optimum differs. *)
  let r = Sim.Experiment.ablation_reopt ~flows:400 () in
  let row warm =
    (List.find
       (fun (row : Sim.Experiment.reopt_row) ->
         row.Sim.Experiment.rp_scenario = "campus"
         && row.Sim.Experiment.rp_warm = warm)
       r.Sim.Experiment.rp_rows)
      .Sim.Experiment.stats
  in
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
  assert (r.Sim.Experiment.rp_agree = r.Sim.Experiment.rp_total);

  Format.printf
    "@.all invariants hold: equal optima, zero-pivot no-op re-solves, \
     strictly fewer pivots warm@."
