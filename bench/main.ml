(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV) plus the ablations, one section per entry of
   Sim.Registry, then the SCALE and ALLOC measurement sections.

     dune exec bench/main.exe            # everything, full scale
     dune exec bench/main.exe -- --fast  # reduced scale (CI-friendly)
     dune exec bench/main.exe -- --csv   # also write bench_csv/*.csv
     dune exec bench/main.exe -- --json  # also write BENCH_pktsim.json
     dune exec bench/main.exe -- --audit # packet-level rows under the invariant audit
     dune exec bench/main.exe -- --jobs 4 # experiment-cell parallelism
     dune exec bench/main.exe -- --shards 4 # intra-run flow-hash sharding
     dune exec bench/main.exe -- --flows 2000000 # SCALE section volume

   Reports are bit-identical for every --jobs and --shards value (the
   fan-out in Sim.Experiment and the flow-hash sharding in Sim.Flowsim
   are deterministic); only the wall times change, and those stay on
   lines that start with '['.  Unknown flags and non-positive counts
   exit 2 with usage.  Per-layer costs (classifiers, caches, hashing,
   LP) are measured by bench/perf. *)

open Cmdliner

(* Sequential wall times from a previous BENCH_pktsim.json in the cwd:
   entries recorded at jobs = 1 give speedup_vs_seq on parallel runs
   (CI benches --jobs 1 first, then --jobs N over the same artifact).
   The file holds one experiment per line. *)
let seq_baselines () =
  match open_in "BENCH_pktsim.json" with
  | exception Sys_error _ -> []
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line -> (
        match
          Scanf.sscanf line " {\"name\": %S, \"jobs\": %d, \"wall_seconds\": %f"
            (fun name jobs s -> (name, jobs, s))
        with
        | name, 1, s -> scan ((name, s) :: acc)
        | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> scan acc)
    in
    let baselines = scan [] in
    close_in ic;
    baselines

let write_json ~jobs ~shards ~baselines ~timings ~records =
  let path = "BENCH_pktsim.json" in
  let total_seconds = List.fold_left (fun acc (_, s, _, _) -> acc +. s) 0.0 timings in
  let entry (name, seconds, events, hops) =
    let events_per_sec =
      if events > 0 && seconds > 0.0 then float_of_int events /. seconds else 0.0
    in
    (* JSON null when there is no sequential baseline on record — an
       absent measurement, not a measured slowdown to 0x. *)
    let speedup_vs_seq =
      if jobs = 1 then "1.00"
      else
        match List.assoc_opt name baselines with
        | Some base when seconds > 0.0 -> Printf.sprintf "%.2f" (base /. seconds)
        | _ -> "null"
    in
    Printf.sprintf
      "    {\"name\": %S, \"jobs\": %d, \"wall_seconds\": %.3f, \"seconds\": %.3f, \
       \"events_processed\": %d, \"router_hops\": %d, \"events_per_sec\": %.0f, \
       \"speedup_vs_seq\": %s}"
      name jobs seconds seconds events hops events_per_sec speedup_vs_seq
  in
  let record key = Option.value ~default:"null" (List.assoc_opt key records) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"shards\": %d,\n  \"total_wall_seconds\": %.3f,\n  \
     \"scaling\": %s,\n  \"reopt\": %s,\n  \"alloc\": %s,\n  \"experiments\": [\n%s\n  ]\n}\n"
    jobs shards total_seconds (record "scaling") (record "reopt") (record "alloc")
    (String.concat ",\n" (List.map entry timings));
  close_out oc;
  Format.printf "[wrote %s]@." path

let write_csv name content =
  let dir = "bench_csv" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Format.printf "[wrote %s]@." path

(* One section per registry entry: the report and its CSVs, plus for
   the JSON its wall time, event counts and any wall-clock record. *)
let run_experiments ~fast ~audit ~csv ~jobs ~shards =
  List.fold_left
    (fun (timings, records) (e : Sim.Registry.entry) ->
      Format.printf "@.##### %s #####@.@." e.title;
      let name = Sim.Registry.key e in
      let flows = if fast then e.fast_flows else e.flows in
      let t0 = Unix.gettimeofday () in
      let o =
        e.run
          { flows; fast; seed = 17; jobs; shards; audit; corrupt_rate = None; sweep_period = None }
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "[%s took %.1fs]@." name dt;
      Format.printf "%a@." Sim.Table.pp_doc o.doc;
      if csv then List.iter (fun (file, body) -> write_csv file body) o.csvs;
      let records =
        match o.ledger with
        | None -> records
        | Some ledger -> ledger ~clock:Unix.gettimeofday Format.std_formatter :: records
      in
      ((name, dt, o.events, o.hops) :: timings, records))
    ([], []) Sim.Registry.all

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let configure_exn deployment ~rules kind =
  match Sdm.Controller.configure deployment ~rules kind with
  | Ok c -> c
  | Error e -> failwith e

(* ---- SCALE: one big run, flow-hash sharded + packed state ---------- *)

(* The sequential baseline is the same packed run at shards = 1, timed
   in this very process, so the speedup recorded here never depends on
   a previous artifact being present (unlike the per-experiment
   speedup_vs_seq, which compares across --jobs invocations).  The
   packed store is off-heap (Bigarray), so top_heap_words reflects the
   simulator's working set, not the flow population. *)
let run_scale ~flows ~shards =
  Format.printf "@.##### SCALE: intra-run sharding, one big flowsim run #####@.@.";
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
  let packed = Sim.Workload.generate_packed ~deployment ~seed:17 ~flows () in
  let store_mb = float_of_int (flows * Sim.Workload.Packed.bytes_per_flow) /. 1048576.0 in
  let controller =
    configure_exn deployment ~rules:packed.Sim.Workload.Packed.rules
      Sdm.Controller.Hot_potato
  in
  let run shards () = Sim.Flowsim.run_packed ~shards ~controller ~workload:packed () in
  let seq, t_seq = time (run 1) in
  let sharded, t_par = time (run shards) in
  if sharded <> seq then failwith "SCALE: sharded run diverged from sequential";
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 1.0 in
  (* Wall times and the heap high-water mark are nondeterministic, so
     they stay on bracketed lines (CI's determinism diff filters those
     out); the deterministic summary carries only exact quantities. *)
  Format.printf "flows %d, packed store %.1f MB (%d B/flow), events %d@." flows store_mb
    Sim.Workload.Packed.bytes_per_flow seq.Sim.Flowsim.events;
  Format.printf "sharded run identical to sequential: %b@." (sharded = seq);
  Format.printf "[SCALE seq %.2fs, %d shard(s) %.2fs, speedup %.2fx, peak heap %.1f MB]@."
    t_seq shards t_par speedup peak_heap_mb;
  Printf.sprintf
    "{\"flows\": %d, \"shards\": %d, \"seq_wall_seconds\": %.3f, \
     \"sharded_wall_seconds\": %.3f, \"speedup_vs_seq\": %.2f, \"events\": %d, \
     \"peak_heap_mb\": %.1f, \"store_mb\": %.1f}"
    flows shards t_seq t_par speedup seq.Sim.Flowsim.events peak_heap_mb store_mb

(* ---- ALLOC: hot-path allocation per event -------------------------- *)

(* Minor-heap allocation per engine event over two fixed probe
   workloads, against the baselines measured with the same probes at
   the commit immediately preceding the zero-allocation hot-path work
   (packed flow keys, flat open-addressing tables, pooled DES events).
   [Gc.minor_words] counts the calling domain only, so both probes
   force jobs = 1 / shards = 1 regardless of the bench flags — on the
   domain pool the numbers would silently undercount.  Everything here
   is GC telemetry or wall clock, so the whole report stays on
   bracketed lines (CI's determinism diff filters those); the exact
   values go into BENCH_pktsim.json under "alloc". *)
let table3_baseline_words_per_event = 62.65
let pktsim_baseline_words_per_event = 162.80

let alloc_probe name ~baseline f =
  let minor0 = Gc.minor_words () in
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let events, dt = time f in
  let minor = Gc.minor_words () -. minor0 in
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let per_event = minor /. float_of_int (max 1 events) in
  let reduction = baseline /. Float.max per_event 1e-9 in
  let events_per_sec = if dt > 0.0 then float_of_int events /. dt else 0.0 in
  Format.printf
    "[%s: %d events, %.2f minor words/event (baseline %.2f, %.1fx less), %.0f promoted \
     words, %.0f events/sec]@."
    name events per_event baseline reduction promoted events_per_sec;
  Printf.sprintf
    "{\"probe\": %S, \"events\": %d, \"minor_words_per_event\": %.2f, \
     \"baseline_minor_words_per_event\": %.2f, \"reduction_factor\": %.2f, \
     \"promoted_words\": %.0f, \"events_per_sec\": %.0f, \"wall_seconds\": %.3f}"
    name events per_event baseline reduction promoted events_per_sec dt

let run_alloc () =
  Format.printf "@.##### ALLOC: hot-path allocation per event #####@.@.";
  (* Probe 1: TABLE3's flow-level run — classification + steering for
     every flow, the Selector/Xhash fast path. *)
  let t3 =
    alloc_probe "TABLE3" ~baseline:table3_baseline_words_per_event (fun () ->
        (Sim.Experiment.run_table3 ~flows:150_000 ~seed:17 ~jobs:1 ~shards:1 ())
          .Sim.Experiment.t3_events)
  in
  (* Probe 2: a packet-level run — flow caches, label tables and the
     pooled event loop.  Setup (deployment, workload, controller) is
     built outside the bracket; only [Pktsim.run] is measured. *)
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:21 in
  let workload = Sim.Workload.generate ~deployment ~seed:21 ~flows:2_000 () in
  let controller =
    configure_exn deployment ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced (Sim.Workload.measure workload))
  in
  let pk =
    alloc_probe "PKTSIM" ~baseline:pktsim_baseline_words_per_event (fun () ->
        (Sim.Pktsim.run ~controller ~workload ()).Sim.Pktsim.events_processed)
  in
  Printf.sprintf "[%s, %s]" t3 pk

let main fast audit csv json jobs shards scale_flows =
  let baselines = seq_baselines () in
  let jobs = Option.value jobs ~default:(Stdx.Domain_pool.default_jobs ()) in
  let shards = Option.value shards ~default:(Stdx.Domain_pool.default_jobs ()) in
  Format.printf "[experiment-cell parallelism: %d jobs]@." jobs;
  Format.printf "[intra-run sharding: %d shards]@." shards;
  let timings, records = run_experiments ~fast ~audit ~csv ~jobs ~shards in
  let flows = Option.value scale_flows ~default:(if fast then 200_000 else 1_000_000) in
  let scaling = run_scale ~flows ~shards in
  let alloc = run_alloc () in
  if json then
    write_json ~jobs ~shards ~baselines ~timings:(List.rev timings)
      ~records:(("scaling", scaling) :: ("alloc", alloc) :: records)

let () =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let count name doc = Arg.(value & opt (some positive) None & info [ name ] ~docv:"N" ~doc) in
  let term =
    Term.(
      const main
      $ flag "fast" "Reduced flow counts (CI scale)."
      $ flag "audit" "Run the packet-level rows under the online invariant audit."
      $ flag "csv" "Also write every report's CSV under bench_csv/."
      $ flag "json" "Also write BENCH_pktsim.json."
      $ count "jobs" "Evaluate independent experiment cells on up to $(docv) domains."
      $ count "shards" "Split each run's per-flow work across up to $(docv) domains."
      $ count "flows" "Flow volume of the SCALE section's run.")
  in
  let info = Cmd.info "main.exe" ~doc:"Regenerate the paper's figures, tables and ablations" in
  match Cmd.eval_value (Cmd.v info term) with
  | Ok (`Ok ()) | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
