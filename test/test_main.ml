(* Aggregated test runner: one alcotest binary covering every library. *)
let () =
  Alcotest.run "sdm-repro"
    [
      ("stdx", Test_stdx.suite);
      ("dess", Test_dess.suite);
      ("netgraph", Test_netgraph.suite);
      ("ospf", Test_ospf.suite);
      ("fault", Test_fault.suite);
      ("packet", Test_packet.suite);
      ("policy", Test_policy.suite);
      ("lp", Test_lp.suite);
      ("mbox", Test_mbox.suite);
      ("quorum", Test_quorum.suite);
      ("sdm", Test_sdm.suite);
      ("sim", Test_sim.suite);
      ("audit", Test_audit.suite);
      ("report", Test_report.suite);
      ("cli", Test_cli.suite);
      ("golden", Test_golden.suite);
    ]
