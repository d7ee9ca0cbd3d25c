(* sdmctl: command-line front end to the SDM policy-enforcement
   reproduction.

     sdmctl topo campus            # describe a topology + deployment
     sdmctl ospf waxman            # distributed routing convergence check
     sdmctl exp fig4               # regenerate Figure 4
     sdmctl exp table3 --flows 300000
     sdmctl exp cache              # Sec. III.D ablation
     sdmctl demo --flows 30000     # quick three-strategy comparison *)

open Cmdliner

let scenario_conv =
  let parse = function
    | "campus" -> Ok Sim.Experiment.Campus
    | "waxman" -> Ok Sim.Experiment.Waxman
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S (campus|waxman)" s))
  in
  let print ppf s = Format.pp_print_string ppf (Sim.Experiment.scenario_name s) in
  Arg.conv (parse, print)

let scenario_arg =
  Arg.(
    required
    & pos 0 (some scenario_conv) None
    & info [] ~docv:"TOPOLOGY" ~doc:"campus or waxman")

let seed_arg =
  Arg.(value & opt int 17 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed")

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let flows_opt =
  Arg.(
    value & opt (some positive) None
    & info [ "flows" ] ~docv:"N" ~doc:"Number of generated flows")

let flows_arg default = Term.(const (Option.value ~default) $ flows_opt)

(* ---- topo -------------------------------------------------------- *)

let topo_cmd =
  let dot_flag =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a summary")
  in
  let run scenario seed dot =
    let dep = Sim.Experiment.build_deployment scenario ~seed in
    let topo = dep.Sdm.Deployment.topo in
    if dot then begin
      (* Merge the labels of middleboxes sharing a router. *)
      let by_router = Hashtbl.create 16 in
      Array.iter
        (fun (m : Mbox.Middlebox.t) ->
          let tag = Printf.sprintf "%s%d" (Policy.Action.nf_to_string m.nf) m.id in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_router m.router) in
          Hashtbl.replace by_router m.router (tag :: prev))
        dep.Sdm.Deployment.middleboxes;
      let labels =
        Hashtbl.fold
          (fun router tags acc -> (router, String.concat " " (List.rev tags)) :: acc)
          by_router []
      in
      Netgraph.Dot.topology ~extra_labels:labels Format.std_formatter topo
    end
    else begin
    Format.printf "%a@." Netgraph.Topology.pp topo;
    (* Structural metrics from the all-pairs distances the deployment
       already computed. *)
    let dist = dep.Sdm.Deployment.dist in
    let n = Array.length dist in
    let diameter = ref 0.0 and total = ref 0.0 and pairs = ref 0 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && dist.(u).(v) < infinity then begin
          if dist.(u).(v) > !diameter then diameter := dist.(u).(v);
          total := !total +. dist.(u).(v);
          incr pairs
        end
      done
    done;
    Format.printf "diameter: %.0f hops, mean shortest path: %.2f hops@."
      !diameter
      (!total /. float_of_int (max 1 !pairs));
    Format.printf "proxies: %d, middleboxes: %d@."
      (Array.length dep.Sdm.Deployment.proxies)
      (Array.length dep.Sdm.Deployment.middleboxes);
    List.iter
      (fun nf ->
        let boxes = Sdm.Deployment.middleboxes_of dep nf in
        Format.printf "  %-4s x%d at routers [%s]@."
          (Policy.Action.nf_to_string nf)
          (List.length boxes)
          (String.concat "; "
             (List.map
                (fun (m : Mbox.Middlebox.t) -> string_of_int m.router)
                boxes)))
      (Sdm.Deployment.functions dep)
    end
  in
  Cmd.v (Cmd.info "topo" ~doc:"Describe a topology and its middlebox deployment")
    Term.(const run $ scenario_arg $ seed_arg $ dot_flag)

(* ---- ospf -------------------------------------------------------- *)

let ospf_cmd =
  let run scenario seed =
    let dep = Sim.Experiment.build_deployment scenario ~seed in
    let topo = dep.Sdm.Deployment.topo in
    let session = Ospf.Session.start topo in
    let oracle = Netgraph.Routing.build_all topo.Netgraph.Topology.graph in
    let agree =
      Array.for_all2 (fun (a : int array) b -> a = b)
        (Ospf.Session.tables session) oracle
    in
    Format.printf
      "LSA transmissions: %d@.convergence time: %.2f@.tables match global \
       Dijkstra oracle: %b@."
      (Ospf.Session.messages session)
      (Ospf.Session.convergence_time session) agree;
    if not agree then exit 1
  in
  Cmd.v
    (Cmd.info "ospf"
       ~doc:"Flood LSAs to convergence and check the distributed tables")
    Term.(const run $ scenario_arg $ seed_arg)

(* ---- exp --------------------------------------------------------- *)

let exp_cmd =
  let names ~audited =
    List.filter_map
      (fun (e : Sim.Registry.entry) ->
        if audited && not e.audited then None else Some e.name)
      Sim.Registry.all
  in
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:(String.concat ", " (names ~audited:false)))
  in
  let audit_flag =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            ("Run the packet-level rows of "
            ^ String.concat "/" (names ~audited:true)
            ^ " under the online invariant audit and exit non-zero on any violation"))
  in
  let knob name docv doc = Arg.(value & opt (some string) None & info [ name ] ~docv ~doc) in
  let jobs_arg =
    Arg.(
      value
      & opt positive (Stdx.Domain_pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Evaluate independent experiment cells on up to $(docv) domains. \
             Results are bit-identical for every value; only the wall time \
             changes.")
  in
  (* The corrupt knobs are parsed by hand so misuse exits 2 with the
     experiment's own usage line. *)
  let parse_nonneg name = function
    | None -> None
    | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x >= 0.0 -> Some x
      | _ ->
        Format.eprintf
          "%s expects a non-negative number, got %S@.usage: sdmctl exp corrupt \
           [--corrupt-rate RATE] [--sweep-period PERIOD]@."
          name s;
        exit 2)
  in
  (* A flag the chosen experiment would not read is misuse too, not a
     silent no-op. *)
  let reject flag why =
    Format.eprintf "%s %s@." flag why;
    exit 2
  in
  let run which seed flows audit jobs corrupt_rate sweep_period =
    let corrupt_rate = parse_nonneg "--corrupt-rate" corrupt_rate in
    let sweep_period = parse_nonneg "--sweep-period" sweep_period in
    match Sim.Registry.find which with
    | None ->
      (* A distinct exit code (3) so scripts can tell "no such
         experiment" from flag misuse (2). *)
      Format.eprintf "unknown experiment %S; known experiments: %s@." which
        (String.concat ", " (names ~audited:false));
      exit 3
    | Some e ->
      if audit && not e.audited then
        reject "--audit" ("applies to " ^ String.concat ", " (names ~audited:true) ^ " only");
      if e.name <> "corrupt" then begin
        if corrupt_rate <> None then reject "--corrupt-rate" "applies to corrupt only";
        if sweep_period <> None then reject "--sweep-period" "applies to corrupt only"
      end;
      (* The figures sweep their own flow counts (registry flows = 0). *)
      if flows <> None && e.flows = 0 then
        reject "--flows"
          (Printf.sprintf "does not apply to %s: it sweeps its own flow counts" e.name);
      let flows =
        match flows with
        | None -> min 300_000 e.cap
        | Some n when n > e.cap ->
          reject "--flows"
            (Printf.sprintf "%d exceeds the cap of %d flows for %s" n e.cap e.name)
        | Some n -> n
      in
      let o = e.run { flows; fast = false; seed; jobs; audit; corrupt_rate; sweep_period } in
      Format.printf "%a@." Sim.Table.pp_doc o.doc;
      Option.iter (fun m -> Format.eprintf "%s@." m; exit 1) o.mismatch;
      (* Under --audit any invariant violation fails the invocation so
         CI can gate on it. *)
      if audit then begin
        let counts = List.filter_map Sim.Ablation.audit_violations o.runs in
        let total = List.fold_left ( + ) 0 counts in
        if total > 0 then begin
          Format.eprintf "audit: %d invariant violation(s)@." total;
          exit 1
        end
        else Format.printf "audit: clean (%d runs)@." (List.length counts)
      end
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate a paper experiment or ablation")
    Term.(
      const run $ which $ seed_arg $ flows_opt $ audit_flag $ jobs_arg
      $ knob "corrupt-rate" "RATE"
          "Corruption events per simulated time unit for $(b,exp corrupt) \
           (non-negative; overrides the default rate sweep)"
      $ knob "sweep-period" "PERIOD"
          "Anti-entropy sweep period for $(b,exp corrupt) (non-negative; 0 \
           disables the sweep; overrides the default period sweep)")

(* ---- demo --------------------------------------------------------- *)

let demo_cmd =
  let scenario =
    Arg.(
      value
      & opt scenario_conv Sim.Experiment.Campus
      & info [ "topology" ] ~docv:"TOPOLOGY" ~doc:"campus or waxman")
  in
  let run scenario seed flows =
    let dep = Sim.Experiment.build_deployment scenario ~seed in
    let s = Sim.Flowlevel.scenario dep ~seed ~flows in
    Format.printf "topology: %s, flows: %d, packets: %d@."
      (Sim.Experiment.scenario_name scenario)
      flows s.workload.total_packets;
    List.iter
      (fun (strategy, (plan : Sdm.Controller.t), result) ->
        Format.printf "%-5s" strategy;
        List.iter
          (fun nf ->
            Format.printf " %s(max)=%s"
              (Policy.Action.nf_to_string nf)
              (Sim.Table.millions (Sim.Flowsim.max_load_of_nf plan result nf)))
          (List.map fst Sim.Experiment.mbox_counts);
        Format.printf "  stretch=%.2f" (Sim.Flowsim.stretch result);
        Option.iter
          (fun lp -> Format.printf "  lambda=%s" (Sim.Table.millions lp.Sdm.Lp_formulation.lambda))
          plan.lp;
        Format.printf "@.")
      (Sim.Flowlevel.sweep [ (s, Sim.Flowlevel.strategies) ])
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Quick three-strategy comparison on one workload")
    Term.(const run $ scenario $ seed_arg $ flows_arg 30_000)

(* ---- verify -------------------------------------------------------- *)

let verify_cmd =
  let run scenario seed flows =
    match Sim.Registry.configuration scenario ~seed ~flows with
    | Error e ->
      Format.eprintf "configuration failed: %s@." e;
      exit 1
    | Ok (doc, []) ->
      Format.printf "%a" Sim.Table.pp_doc doc;
      Format.printf "static verification: configuration certified@."
    | Ok (doc, vs) ->
      Format.printf "%a" Sim.Table.pp_doc doc;
      Format.printf "static verification: %d violations@." (List.length vs);
      List.iter (fun v -> Format.printf "  %a@." Sdm.Verify.pp_violation v) vs;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Configure load-balanced enforcement and statically verify the \
          configuration (chain completeness, candidate correctness, weight \
          sanity), reporting its dissemination cost")
    Term.(const run $ scenario_arg $ seed_arg $ flows_arg 30_000)

(* ---- trace --------------------------------------------------------- *)

(* Header fields are parsed by converters, so a malformed address or
   an out-of-range port/protocol is flag misuse (exit 2) that names the
   argument, not an exception out of [Flow.make]. *)
let addr_conv =
  let parse s =
    match Netpkt.Addr.of_string s with
    | a -> Ok a
    | exception Invalid_argument _ ->
      Error (`Msg (Printf.sprintf "expected a dotted-quad address, got %S" s))
  in
  let print ppf a = Format.pp_print_string ppf (Netpkt.Addr.to_string a) in
  Arg.conv (parse, print)

let int_in ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "expected an integer in [%d, %d], got %S" lo hi s))
  in
  Arg.conv (parse, Format.pp_print_int)

let trace_cmd =
  let flow_args =
    let port = int_in ~lo:0 ~hi:65535 in
    let src =
      Arg.(required & pos 1 (some addr_conv) None & info [] ~docv:"SRC" ~doc:"Source address")
    in
    let dst =
      Arg.(required & pos 2 (some addr_conv) None & info [] ~docv:"DST" ~doc:"Destination address")
    in
    let sport =
      Arg.(value & opt port 40000 & info [ "sport" ] ~docv:"PORT" ~doc:"Source port")
    in
    let dport =
      Arg.(value & opt port 80 & info [ "dport" ] ~docv:"PORT" ~doc:"Destination port")
    in
    let proto =
      Arg.(
        value & opt (int_in ~lo:0 ~hi:255) 6
        & info [ "proto" ] ~docv:"P" ~doc:"IP protocol")
    in
    (src, dst, sport, dport, proto)
  in
  let src_a, dst_a, sport_a, dport_a, proto_a = flow_args in
  let run scenario seed flows src dst sport dport proto =
    let dep = Sim.Experiment.build_deployment scenario ~seed in
    let workload = Sim.Workload.generate ~deployment:dep ~seed ~flows () in
    let traffic = Sim.Workload.measure workload in
    match
      Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Error e ->
      Format.eprintf "configuration failed: %s@." e;
      exit 1
    | Ok c -> (
      let flow = Netpkt.Flow.make ~src ~dst ~proto ~sport ~dport in
      match Sim.Flowsim.trace ~controller:c flow with
      | exception Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1
      | None, _ -> Format.printf "flow %s: no policy matches@." (Netpkt.Flow.to_string flow)
      | Some rule, chain ->
        Format.printf "flow %s@.matches policy %a@." (Netpkt.Flow.to_string flow)
          Policy.Rule.pp rule;
        if chain = [] then Format.printf "permitted without middlebox processing@."
        else
          List.iter
            (fun (mb : Mbox.Middlebox.t) -> Format.printf "  -> %a@." Mbox.Middlebox.pp mb)
            chain)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace the middlebox chain a 5-tuple takes under load-balanced \
             enforcement (workload-derived policies)")
    Term.(const run $ scenario_arg $ seed_arg $ flows_arg 30_000 $ src_a $ dst_a $ sport_a $ dport_a $ proto_a)

(* ---- policies ------------------------------------------------------ *)

let policies_cmd =
  let file =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Validate a policy file (DSL syntax)")
  in
  let run file =
    match file with
    | None ->
      Format.printf "%s@." Policy.Dsl.table_one_text;
      Format.printf "# parsed form:@.";
      List.iter
        (fun r -> Format.printf "#   %a@." Policy.Rule.pp r)
        (Policy.Rule.table_one (Netpkt.Addr.Prefix.of_string "128.40.0.0/16"))
    | Some path -> (
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Policy.Dsl.parse text with
      | Ok rules ->
        Format.printf "%d policies OK@." (List.length rules);
        List.iter (fun r -> Format.printf "  %a@." Policy.Rule.pp r) rules
      | Error e ->
        Format.eprintf "%s: %s@." path e;
        exit 1)
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:
         "Print the paper's Table I policies in the DSL, or validate a policy \
          file")
    Term.(const run $ file)

(* Flag misuse exits 2, whether cmdliner or a subcommand catches it. *)
let () =
  let doc = "software-defined middlebox policy enforcement (ICDCS'19 reproduction)" in
  let cmds = [ topo_cmd; ospf_cmd; exp_cmd; demo_cmd; policies_cmd; verify_cmd; trace_cmd ] in
  match Cmd.eval_value (Cmd.group (Cmd.info "sdmctl" ~version:"1.0.0" ~doc) cmds) with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
