(* Exit-code contract of the two front ends: flag misuse exits 2 (sdmctl
   and the bench harness alike), an unknown experiment name exits 3 and
   lists the known names. *)

(* Under `dune runtest` the cwd is the sandboxed test directory and the
   declared dependency sits at ../bin; fall back to the build tree so a
   bare `dune exec test/test_main.exe` from the project root works too. *)
let binary dir name =
  List.find Sys.file_exists
    [
      Filename.concat ("../" ^ dir) name;
      Filename.concat ("_build/default/" ^ dir) name;
      Filename.concat dir name;
    ]

let sdmctl = binary "bin" "sdmctl.exe"
let bench = binary "bench" "main.exe"

(* Run [bin] with [args], capturing combined stdout+stderr; returns
   (exit code, output). *)
let run bin args =
  let out = Filename.temp_file "sdmctl" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote bin)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let run_sdmctl = run sdmctl

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_unknown_experiment () =
  let code, out = run_sdmctl [ "exp"; "no-such-thing" ] in
  Alcotest.(check int) "distinct exit code" 3 code;
  Alcotest.(check bool) "names the unknown" true
    (contains ~needle:"no-such-thing" out);
  Alcotest.(check bool) "lists known experiments" true
    (contains ~needle:"known experiments:" out);
  (* the list itself must be in the message, not just its header *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains ~needle:name out))
    [ "fig4"; "table3"; "chaos"; "live"; "quorum"; "corrupt"; "lp" ]

let test_bad_flags () =
  (* Non-positive counts are flag misuse, --flows included, and so are
     a --flows above the experiment's cap, removed flags, flags the
     chosen experiment does not read, malformed addresses, out-of-range
     header fields and a directory given as a policy file. *)
  List.iter
    (fun (args, needle) ->
      let code, out = run_sdmctl args in
      let label = String.concat " " args in
      Alcotest.(check int) (label ^ " exits 2") 2 code;
      Alcotest.(check bool) (label ^ " explains") true (contains ~needle out))
    [
      ([ "exp"; "table3"; "--jobs"; "0" ], "--jobs");
      ([ "exp"; "table3"; "--shards"; "2" ], "--shards");
      ([ "exp"; "chaos"; "--flows=-5" ], "--flows");
      ([ "exp"; "chaos"; "--flows=0" ], "--flows");
      ([ "exp"; "chaos"; "--flows"; "5000" ], "cap of 800");
      ( [ "exp"; "table3"; "--flows"; "2000"; "--corrupt-rate"; "0.5" ],
        "--corrupt-rate" );
      ([ "exp"; "lat"; "--sweep-period"; "3" ], "--sweep-period");
      ([ "exp"; "fig4"; "--flows"; "100" ], "--flows");
      ([ "exp"; "table3"; "--audit" ], "--audit");
      ([ "trace"; "campus"; "1.2.3"; "4.5.6.7" ], "SRC");
      ([ "trace"; "campus"; "1.2.3.4"; "4.5.6.7"; "--sport"; "70000" ], "--sport");
      ([ "trace"; "campus"; "1.2.3.4"; "4.5.6.7"; "--proto"; "999" ], "--proto");
      ([ "policies"; "--file"; Filename.get_temp_dir_name () ], "--file");
    ]

let test_bad_corrupt_flags () =
  (* The corrupt experiment's numeric knobs: anything non-numeric,
     negative, or non-finite exits 2 with the usage line. *)
  let expect_rejected label args needle =
    let code, out = run_sdmctl ([ "exp"; "corrupt" ] @ args) in
    Alcotest.(check int) (label ^ " exits 2") 2 code;
    Alcotest.(check bool) (label ^ " names the flag") true
      (contains ~needle out);
    Alcotest.(check bool) (label ^ " prints usage") true
      (contains ~needle:"usage: sdmctl exp corrupt" out)
  in
  expect_rejected "non-numeric sweep period" [ "--sweep-period"; "abc" ]
    "--sweep-period";
  expect_rejected "negative sweep period" [ "--sweep-period=-3" ]
    "--sweep-period";
  expect_rejected "non-numeric corrupt rate" [ "--corrupt-rate"; "lots" ]
    "--corrupt-rate";
  expect_rejected "negative corrupt rate" [ "--corrupt-rate=-0.1" ]
    "--corrupt-rate";
  expect_rejected "non-finite corrupt rate" [ "--corrupt-rate"; "nan" ]
    "--corrupt-rate"

let test_bench_flags () =
  (* The bench harness parses its flags loudly: a typo or a
     non-positive count exits 2 with usage instead of being ignored. *)
  List.iter
    (fun (label, args, needle) ->
      let code, out = run bench args in
      Alcotest.(check int) (label ^ " exits 2") 2 code;
      Alcotest.(check bool) (label ^ " names the flag") true (contains ~needle out);
      Alcotest.(check bool) (label ^ " prints usage") true
        (contains ~needle:"Usage:" out))
    [
      ("unknown flag", [ "--jbos"; "2" ], "--jbos");
      ("zero jobs", [ "--jobs"; "0" ], "--jobs");
      ("removed shards flag", [ "--shards"; "2" ], "--shards");
    ]

let suite =
  [
    Alcotest.test_case "unknown experiment lists known names" `Quick
      test_unknown_experiment;
    Alcotest.test_case "flag misuse exits 2" `Quick test_bad_flags;
    Alcotest.test_case "corrupt flag validation exits 2" `Quick
      test_bad_corrupt_flags;
    Alcotest.test_case "bench flag misuse exits 2" `Quick test_bench_flags;
  ]
