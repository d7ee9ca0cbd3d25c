(* Quorum agreement: majority thresholds, acceptor state machine,
   rounds, and the intersection property that makes divergent commits
   impossible. *)

let check_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected Ok, got Error %s" e

let check_err = function
  | Ok () -> Alcotest.fail "expected Error, got Ok"
  | Error _ -> ()

(* ---- majorities -------------------------------------------------- *)

let test_acceptor_count () =
  let start n = Quorum.Round.start ~n ~version:1 ~digest:1L in
  ignore (start 1);
  ignore (start 5);
  Alcotest.check_raises "no acceptors"
    (Invalid_argument
       "Quorum.Round.start: acceptor count must be at least 1")
    (fun () -> ignore (start 0))

let test_threshold () =
  Alcotest.(check int) "majority of 1" 1 (Quorum.threshold ~n:1);
  Alcotest.(check int) "majority of 3" 2 (Quorum.threshold ~n:3);
  Alcotest.(check int) "majority of 4" 3 (Quorum.threshold ~n:4);
  Alcotest.(check int) "majority of 5" 3 (Quorum.threshold ~n:5)

(* Any two quorums intersect: the local acceptor rule plus this
   property is the global no-divergent-commit argument. *)
let test_quorum_intersection_qcheck () =
  let gen =
    QCheck.Gen.(
      int_range 1 7 >>= fun n ->
      array_size (return n) bool >>= fun a ->
      map (fun b -> (n, a, b)) (array_size (return n) bool))
  in
  let is_quorum n member =
    let r = Quorum.Round.start ~n ~version:1 ~digest:1L in
    Array.iteri (fun i v -> if v then Quorum.Round.accept r ~acceptor:i) member;
    Quorum.Round.has_quorum r
  in
  let prop (n, a, b) =
    (not (is_quorum n a && is_quorum n b))
    || Array.exists2 (fun x y -> x && y) a b
  in
  let cell =
    QCheck.Test.make ~count:1000 ~name:"two quorums always intersect"
      (QCheck.make gen) prop
  in
  QCheck.Test.check_exn cell

(* ---- acceptor ----------------------------------------------------- *)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Quorum.Acceptor.Accept -> "Accept"
        | Repeat -> "Repeat"
        | Stale -> "Stale"
        | Conflict -> "Conflict"))
    ( = )

let test_acceptor () =
  let a = Quorum.Acceptor.create () in
  Alcotest.(check (option (pair int int64))) "nothing accepted" None
    (Quorum.Acceptor.accepted a);
  Alcotest.check verdict "first proposal" Quorum.Acceptor.Accept
    (Quorum.Acceptor.receive a ~version:1 ~digest:10L);
  Alcotest.check verdict "duplicate" Quorum.Acceptor.Repeat
    (Quorum.Acceptor.receive a ~version:1 ~digest:10L);
  (* A re-proposal of an uncommitted version supersedes the old one
     (its round died without quorum, so nothing was committed). *)
  Alcotest.check verdict "re-proposal supersedes" Quorum.Acceptor.Accept
    (Quorum.Acceptor.receive a ~version:1 ~digest:11L);
  Alcotest.(check (option (pair int int64))) "acceptance moved"
    (Some (1, 11L))
    (Quorum.Acceptor.accepted a);
  check_ok (Quorum.Acceptor.commit a ~version:1 ~digest:11L);
  Alcotest.(check int) "committed" 1 (Quorum.Acceptor.committed a);
  Alcotest.(check int64) "committed digest" 11L
    (Quorum.Acceptor.committed_digest a);
  (* Nothing supersedes a commit. *)
  Alcotest.check verdict "conflicts with commit" Quorum.Acceptor.Conflict
    (Quorum.Acceptor.receive a ~version:1 ~digest:12L);
  Alcotest.check verdict "below commit is stale" Quorum.Acceptor.Stale
    (Quorum.Acceptor.receive a ~version:0 ~digest:9L);
  Alcotest.check verdict "next version accepted" Quorum.Acceptor.Accept
    (Quorum.Acceptor.receive a ~version:2 ~digest:20L)

let test_acceptor_commit () =
  let a = Quorum.Acceptor.create () in
  check_ok (Quorum.Acceptor.commit a ~version:2 ~digest:20L);
  (* idempotent duplicate *)
  check_ok (Quorum.Acceptor.commit a ~version:2 ~digest:20L);
  (* divergent digest at the committed version *)
  check_err (Quorum.Acceptor.commit a ~version:2 ~digest:21L);
  (* regression *)
  check_err (Quorum.Acceptor.commit a ~version:1 ~digest:10L);
  (* committing settles the acceptance window: a stale proposal below
     the commit is refused even though the acceptor never voted *)
  Alcotest.check verdict "stale after commit" Quorum.Acceptor.Stale
    (Quorum.Acceptor.receive a ~version:2 ~digest:20L);
  Alcotest.(check (option (pair int int64))) "acceptance settled"
    (Some (2, 20L))
    (Quorum.Acceptor.accepted a)

(* ---- rounds ------------------------------------------------------- *)

let test_round () =
  let r = Quorum.Round.start ~n:3 ~version:4 ~digest:40L in
  Alcotest.(check int) "version" 4 (Quorum.Round.version r);
  Alcotest.(check int64) "digest" 40L (Quorum.Round.digest r);
  Alcotest.(check bool) "no quorum yet" false (Quorum.Round.has_quorum r);
  Alcotest.(check bool) "reachable" true (Quorum.Round.can_reach_quorum r);
  Quorum.Round.accept r ~acceptor:0;
  Quorum.Round.accept r ~acceptor:0 (* idempotent *);
  Alcotest.(check int) "one vote" 1 (Quorum.Round.accept_votes r);
  Quorum.Round.fail r ~acceptor:1;
  Alcotest.(check bool) "still reachable" true (Quorum.Round.can_reach_quorum r);
  Quorum.Round.fail r ~acceptor:2;
  Alcotest.(check bool) "now dead" false (Quorum.Round.can_reach_quorum r);
  (* a vote wins over a late failure report *)
  Quorum.Round.fail r ~acceptor:0;
  Alcotest.(check int) "vote survives" 1 (Quorum.Round.accept_votes r);
  Quorum.Round.mark_abandoned r;
  Alcotest.(check bool) "abandoned" true
    (Quorum.Round.outcome r = Quorum.Round.Abandoned)

let test_round_commit_path () =
  let r = Quorum.Round.start ~n:3 ~version:1 ~digest:1L in
  Quorum.Round.accept r ~acceptor:2;
  Quorum.Round.accept r ~acceptor:0;
  Alcotest.(check bool) "majority reached" true (Quorum.Round.has_quorum r);
  Quorum.Round.mark_committed r;
  Alcotest.(check bool) "committed" true
    (Quorum.Round.outcome r = Quorum.Round.Committed)

let suite =
  [
    Alcotest.test_case "round validates the acceptor count" `Quick
      test_acceptor_count;
    Alcotest.test_case "majority thresholds" `Quick test_threshold;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"threshold is a strict majority"
         QCheck.(int_range 1 64)
         (fun n ->
           let t = Quorum.threshold ~n in
           (2 * t > n) && 2 * (t - 1) <= n));
    Alcotest.test_case "quorum intersection (qcheck)" `Quick
      test_quorum_intersection_qcheck;
    Alcotest.test_case "acceptor verdicts" `Quick test_acceptor;
    Alcotest.test_case "acceptor commit rules" `Quick test_acceptor_commit;
    Alcotest.test_case "round bookkeeping" `Quick test_round;
    Alcotest.test_case "round commit path" `Quick test_round_commit_path;
  ]
