(* Smoke test of the benchmark (dune runtest): every workload runs one
   repetition on a population scaled down to 1/20.  Asserts that the
   record and the last line parse, that the last line's metric names
   equal BENCHMARK.json's for each workload, and that misuse exits 2.
   Untraced runs cover every workload; traced runs cover one workload
   per output kind (packets, flows, solves), since the per-layer list
   does not depend on the workload.  Runs go two at a time.

     smoke.exe PERF_EXE BENCHMARK_JSON *)

let perf = Sys.argv.(1)
let benchmark = Sys.argv.(2)
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

(* Run every job, two at a time, longest first as listed; results in
   job order as (exit code, non-empty stdout lines).  A child's output
   (a few KB) fits its pipe, so a child never blocks before exiting;
   stderr goes to /dev/null so usage text stays out of the test log. *)
let run_all jobs =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) (-1, []) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let start i =
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process perf (Array.of_list (perf :: jobs.(i))) Unix.stdin w devnull in
    Unix.close w;
    (pid, (i, r))
  in
  let next = ref 0 and running = ref [] in
  let fill () =
    while List.length !running < 2 && !next < Array.length jobs do
      running := start !next :: !running;
      incr next
    done
  in
  fill ();
  while !running <> [] do
    let pid, status = Unix.wait () in
    match List.assoc_opt pid !running with
    | None -> ()
    | Some (i, r) ->
      running := List.remove_assoc pid !running;
      let text = In_channel.input_all (Unix.in_channel_of_descr r) in
      Unix.close r;
      let code = match status with Unix.WEXITED c -> c | _ -> -1 in
      results.(i) <- (code, List.filter (( <> ) "") (String.split_on_char '\n' text));
      fill ()
  done;
  Unix.close devnull;
  Array.to_list results

let names key =
  match Json.read_file benchmark with
  | Error e -> failwith (benchmark ^ ": " ^ e)
  | Ok j ->
    Json.to_list (Option.value ~default:Json.Null (Json.member key j))
    |> List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str)
    |> List.sort compare

let check_run (w, trace, key) (code, lines) =
  let label = Printf.sprintf "%s --trace %s" w trace in
  check (label ^ ": exit 0") (code = 0);
  match List.rev lines with
  | last :: record :: _ -> (
    (match Json.of_string record with
    | Ok r ->
      check (label ^ ": record names the workload")
        (Option.bind (Json.member "workloads" r) (Json.member w) <> None)
    | Error e -> check (label ^ ": record parses: " ^ e) false);
    match Json.of_string last with
    | Ok (Json.Obj kvs as j) ->
      check (label ^ ": last line has exactly the four keys")
        (List.sort compare (List.map fst kvs)
        = [ "attempted"; "correct"; "failed"; "metrics" ]);
      check (label ^ ": correct") (Json.member "correct" j = Some (Json.Bool true));
      let got =
        List.sort compare
          (List.map fst
             (Json.to_assoc (Option.value ~default:Json.Null (Json.member "metrics" j))))
      in
      check (label ^ ": metric names equal BENCHMARK.json's " ^ key) (got = names key)
    | Ok _ | Error _ -> check (label ^ ": last line parses") false)
  | _ -> check (label ^ ": output") false

let () =
  (* Every workload untraced, one per output kind traced; longest
     first.  The untraced list is checked against BENCHMARK.json's. *)
  let runs =
    [
      ("flow-waxman", "1", "per_layer"); ("pkt-churn", "0", "end_to_end");
      ("reopt-waxman", "1", "per_layer"); ("flow-waxman", "0", "end_to_end");
      ("pkt-elephants", "1", "per_layer"); ("reopt-waxman", "0", "end_to_end");
      ("pkt-elephants", "0", "end_to_end"); ("pkt-mice", "0", "end_to_end");
    ]
  in
  check "every workload runs untraced"
    (List.sort compare
       (List.filter_map (fun (w, t, _) -> if t = "0" then Some w else None) runs)
    = names "workloads");
  let misuse =
    [ [ "--workload"; "no-such-workload" ]; [ "--seed"; "0" ]; [ "--no-such-flag" ]; [ "--trace"; "2" ] ]
  in
  let jobs =
    List.map
      (fun (w, trace, _) ->
        [ "--workload"; w; "--scale"; "20"; "--seconds"; "0"; "--trace"; trace; "--json"; "-" ])
      runs
    @ misuse
  in
  let results = run_all jobs in
  List.iteri
    (fun i r ->
      if i < List.length runs then check_run (List.nth runs i) r
      else
        let args = List.nth misuse (i - List.length runs) in
        check (String.concat " " args ^ " exits 2") (fst r = 2))
    results;
  if !failures > 0 then exit 1
