(* Layered benchmark of the enforcement machinery: five workloads from
   the packet path to the LP re-solve, end-to-end metrics from untraced
   runs, per-layer metrics from a traced run that times each layer's
   public functions from outside.  See README.md in this directory.

     dune exec bench/perf/perf.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--trace 0|1] [--trace-file FILE] [--json FILE]
     dune exec bench/perf/perf.exe -- compare A.json B.json

   Each workload runs in its own single-domain process: with more than
   one workload the program re-executes itself once per workload, one
   at a time, so the heap high-water mark and the GC state belong to
   one workload.  The last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics. *)

(* The end-to-end metrics an untraced run puts on its last line. *)
let end_to_end = [ "setup_s"; "ops_per_s"; "latency_ms_p50"; "minor_words_per_op" ]

let setup_builds = 5

type metric = {
  unit_ : string;
  value : float;
  quartiles : (float * float) option;  (** first and third *)
  n : int option;  (** samples behind the value *)
  exact : bool;  (** deterministic: two runs of one seed must agree exactly *)
}

let metric ?quartiles ?n ?(exact = false) unit_ value = { unit_; value; quartiles; n; exact }

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (n - 1) (i + 1) in
    s.(i) +. ((x -. float_of_int i) *. (s.(j) -. s.(i)))

(* The median of the samples, with their quartiles. *)
let of_samples unit_ samples =
  let s = sorted samples in
  metric unit_ (quantile s 0.5)
    ~quartiles:(quantile s 0.25, quantile s 0.75)
    ~n:(Array.length s)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  reps : int;
  checks : (string * bool) list;
  metrics : (string * metric) list;  (** end-to-end and exact metrics *)
  layers : (string * metric) list;   (** per-layer metrics (traced runs) *)
}

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let run_workload name ~seed ~seconds ~scale ~trace =
  Span.with_ (Workloads.to_string name) @@ fun () ->
  (* Every set-up build and every repetition starts from a collected
     major heap, outside the timing: otherwise the garbage of earlier
     builds and the phase of the major GC cycle decide the heap
     high-water mark and leak into the next measurement.  Set-up is
     built several times and reported as the median; only the latest
     build is kept. *)
  let env = ref None and setup_s = ref [] and setups = ref [] in
  for _ = 1 to setup_builds do
    env := None;
    Gc.full_major ();
    let e, dt = Span.timed "setup" (fun () -> Workloads.setup name ~seed ~scale) in
    env := Some e;
    setup_s := dt :: !setup_s;
    setups := e.Workloads.phases :: !setups
  done;
  let env = Option.get !env in
  Gc.full_major ();
  ignore (Span.with_ "warmup" env.Workloads.rep);
  (* A traced run spends a third of its time on repetitions (for the
     counts and the median repetition time) and the rest on layer replays. *)
  let deadline = Unix.gettimeofday () +. if trace then seconds /. 3.0 else seconds in
  let first = ref None in
  let times = ref [] and calls = ref [] and words = ref 0.0 in
  let attempted = ref 0 and unreproduced = ref 0 in
  let rec loop () =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let (dts, out), dt = Span.timed "rep" env.Workloads.rep in
    words := !words +. (Gc.minor_words () -. w0);
    times := dt :: !times;
    calls := List.rev_append dts !calls;
    let ops = Workloads.ops env out in
    attempted := !attempted + ops;
    (match !first with
    | None -> first := Some out
    | Some f -> if out <> f then unreproduced := !unreproduced + ops);
    if Unix.gettimeofday () < deadline then loop ()
  in
  loop ();
  let heap = top_heap_mb () in
  let first = Option.get !first in
  let calls = List.rev !calls in
  let checks =
    ("every repetition reproduces the first", !unreproduced = 0)
    :: Span.with_ "checks" (fun () -> env.Workloads.check first)
  in
  (* A failed check on the shared output fails every operation. *)
  let failed = if List.for_all snd checks then !unreproduced else !attempted in
  let rep = sorted !times in
  let rep_median = quantile rep 0.5 in
  let ops = float_of_int (Workloads.ops env first) in
  let call_ms = List.map (fun s -> s *. 1e3) calls in
  let share x = float_of_int x /. float_of_int (max 1 !attempted) in
  let workload_metrics =
    match first with
    | Workloads.Packets s ->
      let per x = float_of_int x /. float_of_int (max 1 s.Sim.Pktsim.injected_packets) in
      [
        ( "loss_share",
          metric "ratio" ~exact:true
            (per (s.Sim.Pktsim.injected_packets - s.Sim.Pktsim.delivered_packets)) );
        ("violation_share", metric "ratio" ~exact:true (per s.Sim.Pktsim.policy_violations));
      ]
    | Workloads.Flows results ->
      let lb = List.nth results 2 in
      [
        ( "lb_max_load",
          metric "packets" ~exact:true (Array.fold_left Float.max 0.0 lb.Sim.Flowsim.loads) );
      ]
    | Workloads.Solves steps ->
      [
        ( "reopt_pivots",
          metric "count" ~exact:true
            (float_of_int
               (List.fold_left
                  (fun acc s -> acc + s.Workloads.pivots + s.Workloads.phase1)
                  0 steps)) );
      ]
  in
  let layers =
    if not trace then []
    else
      Span.with_ "layers" (fun () ->
          (* The replay budget is split over the ~20 timed layers. *)
          Layers.run env ~budget:(seconds /. 30.0) ~first ~calls ~rep_s:rep_median
            ~setups:!setups
          |> List.map (fun (n, u, v) -> (n, metric u v)))
  in
  {
    correct = failed = 0;
    attempted = !attempted;
    failed;
    reps = Array.length rep;
    checks;
    metrics =
      [
        ("setup_s", of_samples "s" !setup_s);
        ( "ops_per_s",
          metric "1/s" (ops /. rep_median)
            ~quartiles:(ops /. quantile rep 0.75, ops /. quantile rep 0.25)
            ~n:(Array.length rep) );
        ("latency_ms_p50", of_samples "ms" call_ms);
        ( "latency_ms_p90",
          metric "ms" (quantile (sorted call_ms) 0.9) ~n:(List.length call_ms) );
        ("minor_words_per_op", metric "words" (!words /. float_of_int (max 1 !attempted)));
        ("top_heap_mb", metric "MB" heap);
      ]
      @ workload_metrics
      @ [ ("failed_share", metric "ratio" ~exact:true (share failed)) ];
    layers;
  }

(* ---- records ------------------------------------------------------- *)

let metric_json m =
  Json.Obj
    ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
    @ (match m.quartiles with
      | Some (q1, q3) -> [ ("q1", Json.Num q1); ("q3", Json.Num q3) ]
      | None -> [])
    @ (match m.n with Some n -> [ ("n", Json.Num (float_of_int n)) ] | None -> [])
    @ if m.exact then [ ("exact", Json.Bool true) ] else [])

let metrics_json l = Json.Obj (List.map (fun (k, m) -> (k, metric_json m)) l)

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("reps", Json.Num (float_of_int r.reps));
      ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) r.checks));
      ("metrics", metrics_json r.metrics);
      ("layers", metrics_json r.layers);
    ]

(* The last line: the end-to-end metrics of an untraced run, or the
   per-layer ones of a traced run. *)
let summary_metrics ~trace r =
  let pick = if trace then r.layers else List.filter (fun (k, _) -> List.mem k end_to_end) r.metrics in
  List.map
    (fun (k, m) -> (k, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
    pick

let summary ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", Json.Obj metrics);
    ]

let print_lines workload r =
  List.iter
    (fun (k, m) -> Printf.printf "%s %s %s %s\n" workload k (Json.number m.value) m.unit_)
    (r.metrics @ r.layers);
  List.iter
    (fun (k, ok) -> if not ok then Printf.printf "%s check FAILED: %s\n" workload k)
    r.checks

let record ~seed ~seconds ~scale ~trace workloads extra =
  Json.Obj
    ([
       ("seed", Json.Num (float_of_int seed));
       ("seconds", Json.Num (float_of_int seconds));
       ("scale", Json.Num (float_of_int scale));
       ("trace", Json.Bool trace);
       ("workloads", Json.Obj workloads);
     ]
    @ extra)

let write_file path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* ---- one workload in this process ---------------------------------- *)

let run_one name ~seed ~seconds ~scale ~trace ~trace_file ~json =
  Span.enabled := trace || trace_file <> None;
  let r =
    Span.with_ "perf" (fun () ->
        run_workload name ~seed ~seconds:(float_of_int seconds) ~scale ~trace)
  in
  let wname = Workloads.to_string name in
  print_lines wname r;
  let record =
    record ~seed ~seconds ~scale ~trace
      [ (wname, result_json r) ]
      (if trace_file <> None then [ ("spans", Span.chrome_json (Span.all ())) ] else [])
  in
  (match json with
  | Some "-" -> print_endline (Json.to_string record)
  | Some path -> write_file path record
  | None -> ());
  Option.iter (fun path -> write_file path (Span.chrome_json (Span.all ()))) trace_file;
  print_endline
    (Json.to_string
       (summary ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
          (summary_metrics ~trace r)));
  0

(* ---- several workloads: one child process each ---------------------- *)

(* Each child prints its record (--json -) on the line before its last
   one; the parent echoes the rest, merges the records, and prefixes
   each child's last-line metrics with the workload name. *)
let run_children names ~seed ~seconds ~scale ~trace ~trace_file ~json =
  let exe = Sys.executable_name in
  let child name =
    let args =
      [
        exe; "--workload"; Workloads.to_string name; "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds; "--scale"; string_of_int scale;
        "--trace"; (if trace then "1" else "0"); "--json"; "-";
      ]
      @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []
    in
    let ic = Unix.open_process_args_in exe (Array.of_list args) in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    let status = Unix.close_process_in ic in
    let lines = List.filter (( <> ) "") lines in
    match (status, List.rev lines) with
    | Unix.WEXITED 0, last :: record :: rest -> (
      List.iter print_endline (List.rev rest);
      match (Json.of_string record, Json.of_string last) with
      | Ok record, Ok last -> (record, last)
      | _ -> failwith (Workloads.to_string name ^ ": unreadable result"))
    | _ ->
      List.iter print_endline lines;
      failwith (Workloads.to_string name ^ ": workload process failed")
  in
  let results = List.map (fun name -> (name, child name)) names in
  let num k j = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_num) in
  let field k (_, (_, last)) = num k last in
  let workloads =
    List.concat_map
      (fun (_, (record, _)) ->
        Json.to_assoc (Option.value ~default:Json.Null (Json.member "workloads" record)))
      results
  in
  let events =
    List.concat
      (List.mapi
         (fun i (_, (record, _)) ->
           Option.bind (Json.member "spans" record) (Json.member "traceEvents")
           |> Option.fold ~none:[] ~some:Json.to_list
           |> List.map (function
                | Json.Obj kvs ->
                  Json.Obj
                    (List.map
                       (fun (k, v) ->
                         if k = "pid" then (k, Json.Num (float_of_int (i + 1))) else (k, v))
                       kvs)
                | e -> e))
         results)
  in
  let spans = Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ] in
  Option.iter (fun path -> write_file path spans) trace_file;
  Option.iter
    (fun path -> write_file path (record ~seed ~seconds ~scale ~trace workloads []))
    json;
  let metrics =
    List.concat_map
      (fun (name, (_, last)) ->
        List.map
          (fun (k, v) -> (Workloads.to_string name ^ "." ^ k, v))
          (Json.to_assoc (Option.value ~default:Json.Null (Json.member "metrics" last))))
      results
  in
  let sum k = List.fold_left (fun acc r -> acc + int_of_float (field k r)) 0 results in
  let correct =
    List.for_all (fun (_, (_, last)) -> Json.member "correct" last = Some (Json.Bool true)) results
  in
  print_endline
    (Json.to_string
       (summary ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") metrics));
  0

(* ---- command line -------------------------------------------------- *)

open Cmdliner

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a non-negative integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let workloads_arg =
  let names =
    ("all", None) :: List.map (fun w -> (Workloads.to_string w, Some w)) Workloads.all
  in
  Arg.(
    value
    & opt_all (enum names) []
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "Workload to run; repeat for several.  $(b,all) (the default) runs \
           every workload, each in its own process.")

let run_term =
  let seed =
    Arg.(value & opt positive 17 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed of the generated flows and of the fault-loss stream.")
  in
  let seconds =
    Arg.(value & opt non_negative 10 & info [ "seconds" ] ~docv:"S"
           ~doc:"Measure each workload for $(docv) seconds (at least one repetition).")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: replay every layer and report the per-layer metrics instead \
                 of the end-to-end ones.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as Chrome trace-event JSON.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full record (every metric with its quartiles, every \
                 check) as JSON; $(b,-) prints it on standard output.")
  in
  let scale =
    Arg.(value & opt positive 1 & info [ "scale" ] ~docv:"D"
           ~doc:"Divide every flow population by $(docv) (the smoke test uses 20).")
  in
  let run names seed seconds trace trace_file json scale =
    let names =
      if names = [] || List.mem None names then Workloads.all
      else List.sort_uniq compare (List.filter_map Fun.id names)
    in
    match names with
    | [ name ] -> run_one name ~seed ~seconds ~scale ~trace ~trace_file ~json
    | names -> run_children names ~seed ~seconds ~scale ~trace ~trace_file ~json
  in
  Term.(const run $ workloads_arg $ seed $ seconds $ trace $ trace_file $ json $ scale)

let compare_cmd =
  let file i name =
    Arg.(required & pos i (some file) None & info [] ~docv:name)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two records: per-metric ratios, changes beyond the bound in \
             ./BENCHMARK.json or beyond A's interquartile range.  Exits 1 when a \
             metric marked exact differs.")
    Term.(const Compare.run $ file 0 "A.json" $ file 1 "B.json")

let () =
  let info =
    Cmd.info "perf.exe" ~doc:"Layered benchmark of policy enforcement"
  in
  match Cmd.eval_value (Cmd.group ~default:run_term info [ compare_cmd ]) with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
