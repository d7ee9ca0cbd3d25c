(* Tests for the LP substrate: the Model builder and the two-phase
   simplex.  Includes a brute-force vertex-enumeration oracle used by
   property tests on random small LPs. *)

let check_float = Alcotest.(check (float 1e-6))

(* --- Hand-checked instances ------------------------------------- *)

let test_trivial_min () =
  (* min x  s.t. x >= 3 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 3.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol ->
    check_float "objective" 3.0 sol.Lp.Model.objective;
    check_float "x" 3.0 (Lp.Model.value sol x)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_two_var () =
  (* min -x - 2y  s.t. x + y <= 4; x <= 2; y <= 3.  Optimum at (1,3): -7. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 4.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 2.0;
  Lp.Model.add_constraint m [ (1.0, y) ] Lp.Model.Le 3.0;
  Lp.Model.set_objective m [ (-1.0, x); (-2.0, y) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol ->
    check_float "objective" (-7.0) sol.Lp.Model.objective;
    check_float "x" 1.0 (Lp.Model.value sol x);
    check_float "y" 3.0 (Lp.Model.value sol y)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_equality () =
  (* min x + y  s.t. x + y = 5; x - y = 1.  Unique point (3,2): 5. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Eq 5.0;
  Lp.Model.add_constraint m [ (1.0, x); (-1.0, y) ] Lp.Model.Eq 1.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol ->
    check_float "objective" 5.0 sol.Lp.Model.objective;
    check_float "x" 3.0 (Lp.Model.value sol x);
    check_float "y" 2.0 (Lp.Model.value sol y)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_infeasible () =
  (* x <= 1 and x >= 2 cannot both hold. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 1.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 2.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  match Lp.Model.solve m with
  | Lp.Model.Infeasible -> ()
  | o -> Alcotest.failf "expected infeasible, got %a" Lp.Model.pp_outcome o

let test_unbounded () =
  (* min -x  s.t. x >= 0 only. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.set_objective m [ (-1.0, x) ];
  match Lp.Model.solve m with
  | Lp.Model.Unbounded -> ()
  | o -> Alcotest.failf "expected unbounded, got %a" Lp.Model.pp_outcome o

let test_negative_rhs () =
  (* min x  s.t. -x <= -4  (i.e. x >= 4). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (-1.0, x) ] Lp.Model.Le (-4.0);
  Lp.Model.set_objective m [ (1.0, x) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol -> check_float "x" 4.0 (Lp.Model.value sol x)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_degenerate () =
  (* Redundant constraints stressing degenerate pivots. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.0;
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.0;
  Lp.Model.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Model.Le 2.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 1.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol -> check_float "objective" (-1.0) sol.Lp.Model.objective
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_redundant_equalities () =
  (* A duplicated equality leaves a redundant row in phase 1. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Eq 2.0;
  Lp.Model.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Model.Eq 4.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol ->
    check_float "objective" 0.0 sol.Lp.Model.objective;
    check_float "sum" 2.0 (Lp.Model.value sol x +. Lp.Model.value sol y)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

let test_min_max_load_shape () =
  (* A miniature of the paper's LP: route volume 10 from s to two
     servers y1 (capacity 1) and y2 (capacity 4), minimising the max
     load factor lambda:
       min l  s.t.  t1 + t2 = 10;  t1 <= l*1;  t2 <= l*4.
     Optimum: l = 2, t1 = 2, t2 = 8. *)
  let m = Lp.Model.create () in
  let t1 = Lp.Model.var m "t1"
  and t2 = Lp.Model.var m "t2"
  and l = Lp.Model.var m "lambda" in
  Lp.Model.add_constraint m [ (1.0, t1); (1.0, t2) ] Lp.Model.Eq 10.0;
  Lp.Model.add_constraint m [ (1.0, t1); (-1.0, l) ] Lp.Model.Le 0.0;
  Lp.Model.add_constraint m [ (1.0, t2); (-4.0, l) ] Lp.Model.Le 0.0;
  Lp.Model.set_objective m [ (1.0, l) ];
  match Lp.Model.solve m with
  | Lp.Model.Optimal sol ->
    check_float "lambda" 2.0 (Lp.Model.value sol l);
    check_float "t1" 2.0 (Lp.Model.value sol t1);
    check_float "t2" 8.0 (Lp.Model.value sol t2)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.Model.pp_outcome o

(* --- Warm-started re-solves -------------------------------------- *)

(* The warm-start contract under test: [resolve] after in-place edits
   reaches the same verdict and objective as a from-scratch cold
   solve; an unchanged problem warm-solves in exactly zero pivots; and
   every perturbation the basis cannot absorb — structural growth,
   sense flips, infeasibility, unboundedness — falls back to the cold
   two-phase path with [stats.fallback] set, never looping and never
   returning a stale plan. *)

let two_var_model () =
  (* The instance from [test_two_var]: optimum -7 at (1,3). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 4.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 2.0;
  Lp.Model.add_constraint m [ (1.0, y) ] Lp.Model.Le 3.0;
  Lp.Model.set_objective m [ (-1.0, x); (-2.0, y) ];
  (m, x, y)

let objective_exn name = function
  | Lp.Model.Optimal sol -> sol.Lp.Model.objective
  | o -> Alcotest.failf "%s: expected optimal, got %a" name Lp.Model.pp_outcome o

let test_warm_noop_zero_pivots () =
  let m, _, _ = two_var_model () in
  let o1, s1, snap = Lp.Model.solve_ext m in
  check_float "cold objective" (-7.0) (objective_exn "cold" o1);
  Alcotest.(check bool) "cold solve is not warm" false s1.Lp.Simplex.warm_used;
  Alcotest.(check bool) "cold solve is not a fallback" false
    s1.Lp.Simplex.fallback;
  let o2, s2, _ = Lp.Model.resolve m ~prev:snap in
  check_float "warm objective" (-7.0) (objective_exn "warm" o2);
  Alcotest.(check bool) "basis carried" true s2.Lp.Simplex.warm_used;
  Alcotest.(check int) "zero pivots on the unchanged problem" 0
    s2.Lp.Simplex.pivots

let test_pivot_counters_disjoint () =
  (* min x  s.t. x >= 1: phase 1 pivots x into the basis, after which
     the phase-2 objective is already optimal.  [pivots] counts phase-2
     work only, so it stays 0 while [phase1_pivots] records the entry;
     were phase-1 pivots a subset of [pivots], this would be
     impossible. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let o, s, _ = Lp.Model.solve_ext m in
  check_float "objective" 1.0 (objective_exn "cold" o);
  Alcotest.(check bool) "phase 1 pivoted" true (s.Lp.Simplex.phase1_pivots >= 1);
  Alcotest.(check int) "no phase-2 pivots" 0 s.Lp.Simplex.pivots

let test_warm_cost_perturbation () =
  let m, x, y = two_var_model () in
  let _, _, snap = Lp.Model.solve_ext m in
  (* min -2x - y over the same polytope: optimum -6 at (2,2). *)
  Lp.Model.set_objective m [ (-2.0, x); (-1.0, y) ];
  let o, s, _ = Lp.Model.resolve m ~prev:snap in
  check_float "re-optimized objective" (-6.0) (objective_exn "warm" o);
  Alcotest.(check bool) "cost change keeps the basis" true
    s.Lp.Simplex.warm_used

let test_warm_rhs_perturbation () =
  let m, _, _ = two_var_model () in
  let _, _, snap = Lp.Model.solve_ext m in
  (* Tighten y <= 3 to y <= 2: the old basis refactorises to (2,2),
     still feasible; optimum -6. *)
  Lp.Model.set_rhs m 2 2.0;
  let o, s, _ = Lp.Model.resolve m ~prev:snap in
  check_float "re-optimized objective" (-6.0) (objective_exn "warm" o);
  Alcotest.(check bool) "rhs change keeps the basis" true
    s.Lp.Simplex.warm_used

let test_warm_empty_model () =
  (* The degenerate extreme: no variables, no rows.  The basis import
     rejects an empty layout, so the re-solve must run (trivially)
     cold and report the fallback. *)
  let m = Lp.Model.create () in
  let o1, _, snap = Lp.Model.solve_ext m in
  check_float "empty objective" 0.0 (objective_exn "empty" o1);
  let o2, s, _ = Lp.Model.resolve m ~prev:snap in
  check_float "still trivial" 0.0 (objective_exn "empty resolve" o2);
  Alcotest.(check bool) "no warm path for an empty model" false
    s.Lp.Simplex.warm_used;
  Alcotest.(check bool) "fallback reported" true s.Lp.Simplex.fallback

let test_warm_zero_cost () =
  (* All-zero objective: every feasible point is optimal and every
     re-solve from the old basis is immediately optimal. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 1.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 5.0;
  let o1, _, snap = Lp.Model.solve_ext m in
  check_float "zero objective" 0.0 (objective_exn "zero cost" o1);
  let o2, s, _ = Lp.Model.resolve m ~prev:snap in
  check_float "still zero" 0.0 (objective_exn "zero resolve" o2);
  Alcotest.(check bool) "basis carried" true s.Lp.Simplex.warm_used;
  Alcotest.(check int) "no pivots needed" 0 s.Lp.Simplex.pivots

let test_warm_degenerate_ties () =
  (* The redundant-constraint instance from [test_degenerate]: the
     perturbed re-solve must terminate and agree with a cold solve
     despite degenerate ties in the ratio test. *)
  let build () =
    let m = Lp.Model.create () in
    let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
    Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.0;
    Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.0;
    Lp.Model.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Model.Le 2.0;
    Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 1.0;
    Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
    m
  in
  let m = build () in
  let _, _, snap = Lp.Model.solve_ext m in
  Lp.Model.set_rhs m 3 0.5;
  let o, s, _ = Lp.Model.resolve m ~prev:snap in
  let cold = build () in
  Lp.Model.set_rhs cold 3 0.5;
  let o_cold = Lp.Model.solve cold in
  check_float "agrees with cold" (objective_exn "cold" o_cold)
    (objective_exn "warm" o);
  Alcotest.(check bool) "carried or honestly fell back" true
    (s.Lp.Simplex.warm_used <> s.Lp.Simplex.fallback)

let test_warm_unbounded_perturbation () =
  (* A bounded optimum whose objective flips to an unbounded
     direction: the warm attempt meets the unbounded ray and must
     abandon the basis; the verdict comes from the cold path. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Model.Ge 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let o1, _, snap = Lp.Model.solve_ext m in
  check_float "bounded before" 0.0 (objective_exn "before" o1);
  Lp.Model.set_objective m [ (-1.0, y) ];
  (match Lp.Model.resolve m ~prev:snap with
  | Lp.Model.Unbounded, s, _ ->
    Alcotest.(check bool) "fallback counted" true s.Lp.Simplex.fallback;
    Alcotest.(check bool) "warm did not claim the verdict" false
      s.Lp.Simplex.warm_used
  | o, _, _ -> Alcotest.failf "expected unbounded, got %a" Lp.Model.pp_outcome o)

let test_warm_infeasible_perturbation () =
  (* 1 <= x <= 2 solved, then the lower bound pushed to 3: the old
     basis is primal infeasible and the cold path must own the
     Infeasible verdict. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 2.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let o1, _, snap = Lp.Model.solve_ext m in
  check_float "optimal before" 1.0 (objective_exn "before" o1);
  Lp.Model.set_rhs m 1 3.0;
  (match Lp.Model.resolve m ~prev:snap with
  | Lp.Model.Infeasible, s, _ ->
    Alcotest.(check bool) "fallback counted" true s.Lp.Simplex.fallback
  | o, _, _ ->
    Alcotest.failf "expected infeasible, got %a" Lp.Model.pp_outcome o)

let test_warm_sense_flip_fallback () =
  (* An RHS edit that flips the normalised sense (Le with a negative
     RHS becomes Ge): the basis signature no longer matches and the
     import must be rejected outright. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Le 5.0;
  Lp.Model.add_constraint m [ (1.0, x) ] Lp.Model.Ge 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let _, _, snap = Lp.Model.solve_ext m in
  Lp.Model.set_rhs m 0 (-1.0);
  (match Lp.Model.resolve m ~prev:snap with
  | Lp.Model.Infeasible, s, _ ->
    Alcotest.(check bool) "signature mismatch falls back" true
      s.Lp.Simplex.fallback;
    Alcotest.(check bool) "no warm claim" false s.Lp.Simplex.warm_used
  | o, _, _ ->
    Alcotest.failf "expected infeasible, got %a" Lp.Model.pp_outcome o)

let test_warm_structural_growth () =
  (* Adding a variable and a row after the snapshot: the layout grew,
     so the snapshot cannot even be offered to the engine — still a
     failed warm attempt from the caller's point of view. *)
  let m, x, _ = two_var_model () in
  let _, _, snap = Lp.Model.solve_ext m in
  let z = Lp.Model.var m "z" in
  Lp.Model.add_constraint m [ (1.0, x); (1.0, z) ] Lp.Model.Le 10.0;
  let o, s, _ = Lp.Model.resolve m ~prev:snap in
  check_float "grown model solved cold" (-7.0) (objective_exn "grown" o);
  Alcotest.(check bool) "fallback counted" true s.Lp.Simplex.fallback;
  Alcotest.(check bool) "no warm claim" false s.Lp.Simplex.warm_used

let test_simplex_warm_layout_mismatch () =
  (* Raw engine: a basis exported from one layout offered to another
     is rejected at import and the cold path answers. *)
  let _, _, basis =
    Lp.Simplex.solve_ext ~cost:[| 1.0 |]
      ~rows:[| ([| 1.0 |], Lp.Simplex.Ge, 3.0) |]
      ()
  in
  let o, s, _ =
    Lp.Simplex.solve_ext ?warm_basis:basis ~cost:[| 1.0; 0.0 |]
      ~rows:[| ([| 1.0; 1.0 |], Lp.Simplex.Ge, 3.0) |]
      ()
  in
  (match o with
  | Lp.Simplex.Optimal _ -> ()
  | _ -> Alcotest.fail "expected optimal from the cold path");
  Alcotest.(check bool) "rejected at import" true s.Lp.Simplex.fallback;
  Alcotest.(check bool) "no warm claim" false s.Lp.Simplex.warm_used

(* --- Brute-force oracle ------------------------------------------ *)

(* Enumerate basic solutions of {A x cmp b, x >= 0} for 2-variable
   LPs by intersecting all constraint-boundary pairs (including the
   axes) and keeping feasible points; the LP optimum, when bounded and
   feasible, is attained at one of them. *)
module Oracle = struct
  type row = { a : float; b : float; cmp : Lp.Model.cmp; rhs : float }

  let feasible rows (x, y) =
    x >= -1e-7 && y >= -1e-7
    && List.for_all
         (fun { a; b; cmp; rhs } ->
           let v = (a *. x) +. (b *. y) in
           match cmp with
           | Lp.Model.Le -> v <= rhs +. 1e-7
           | Lp.Model.Ge -> v >= rhs -. 1e-7
           | Lp.Model.Eq -> abs_float (v -. rhs) <= 1e-7)
         rows

  let intersect (a1, b1, c1) (a2, b2, c2) =
    let det = (a1 *. b2) -. (a2 *. b1) in
    if abs_float det < 1e-12 then None
    else Some (((c1 *. b2) -. (c2 *. b1)) /. det, ((a1 *. c2) -. (a2 *. c1)) /. det)

  let best rows ~cx ~cy =
    let lines =
      (0.0, 1.0, 0.0) :: (1.0, 0.0, 0.0)
      :: List.map (fun { a; b; rhs; _ } -> (a, b, rhs)) rows
    in
    let candidates =
      List.concat_map
        (fun l1 -> List.filter_map (fun l2 -> intersect l1 l2) lines)
        lines
    in
    List.fold_left
      (fun best pt ->
        if feasible rows pt then begin
          let x, y = pt in
          let v = (cx *. x) +. (cy *. y) in
          match best with Some b when b <= v -> best | _ -> Some v
        end
        else best)
      None candidates
end

let qcheck_vs_oracle =
  let open QCheck in
  let cmp_gen = Gen.oneofl [ Lp.Model.Le; Lp.Model.Ge ] in
  let row_gen =
    Gen.map4
      (fun a b cmp rhs -> { Oracle.a; b; cmp; rhs })
      (Gen.float_range (-5.0) 5.0)
      (Gen.float_range (-5.0) 5.0)
      cmp_gen
      (Gen.float_range 0.0 10.0)
  in
  let lp_gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 5) row_gen)
      (Gen.pair (Gen.float_range (-3.0) 3.0) (Gen.float_range (-3.0) 3.0))
  in
  Test.make ~count:300 ~name:"simplex agrees with 2-var vertex enumeration"
    (make lp_gen)
    (fun (rows, (cx, cy)) ->
      let m = Lp.Model.create () in
      let x = Lp.Model.var m "x" and y = Lp.Model.var m "y" in
      List.iter
        (fun { Oracle.a; b; cmp; rhs } ->
          Lp.Model.add_constraint m [ (a, x); (b, y) ] cmp rhs)
        rows;
      Lp.Model.set_objective m [ (cx, x); (cy, y) ];
      match (Lp.Model.solve m, Oracle.best rows ~cx ~cy) with
      | Lp.Model.Optimal sol, Some oracle ->
        (* Allow sloppy tolerance: the oracle uses naive arithmetic. *)
        abs_float (sol.Lp.Model.objective -. oracle) < 1e-4
                                                       *. (1.0 +. abs_float oracle)
      | Lp.Model.Infeasible, None -> true
      | Lp.Model.Unbounded, _ ->
        (* The oracle cannot certify unboundedness; accept when it
           found no better bounded answer contradiction.  Verify by
           checking the simplex did not miss a finite optimum: for an
           unbounded LP every vertex value is an upper bound on
           nothing, so just accept. *)
        true
      | Lp.Model.Optimal _, None -> false
      | Lp.Model.Infeasible, Some _ -> false)

let qcheck_feasibility =
  let open QCheck in
  (* Random LPs in 4 variables: whenever the solver says Optimal, the
     reported point must satisfy every constraint. *)
  let term_gen = Gen.float_range (-4.0) 4.0 in
  let row_gen =
    Gen.map3
      (fun coefs cmp rhs -> (coefs, cmp, rhs))
      (Gen.array_size (Gen.return 4) term_gen)
      (Gen.oneofl [ Lp.Model.Le; Lp.Model.Ge; Lp.Model.Eq ])
      (Gen.float_range 0.0 8.0)
  in
  Test.make ~count:300 ~name:"optimal solutions satisfy all constraints"
    (make
       (Gen.pair
          (Gen.list_size (Gen.int_range 1 6) row_gen)
          (Gen.array_size (Gen.return 4) term_gen)))
    (fun (rows, cost) ->
      let m = Lp.Model.create () in
      let vars = Array.init 4 (fun i -> Lp.Model.var m (Printf.sprintf "x%d" i)) in
      List.iter
        (fun (coefs, cmp, rhs) ->
          let terms = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs) in
          Lp.Model.add_constraint m terms cmp rhs)
        rows;
      Lp.Model.set_objective m
        (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) cost));
      match Lp.Model.solve m with
      | Lp.Model.Optimal sol ->
        List.for_all
          (fun (coefs, cmp, rhs) ->
            let v = ref 0.0 in
            Array.iteri (fun i c -> v := !v +. (c *. Lp.Model.value sol vars.(i))) coefs;
            match cmp with
            | Lp.Model.Le -> !v <= rhs +. 1e-5
            | Lp.Model.Ge -> !v >= rhs -. 1e-5
            | Lp.Model.Eq -> abs_float (!v -. rhs) <= 1e-5)
          rows
        && Array.for_all (fun var -> Lp.Model.value sol var >= -1e-7) vars
      | Lp.Model.Infeasible | Lp.Model.Unbounded -> true)

(* --- Warm/cold differential properties ---------------------------- *)

(* Shared generator scaffolding: random 4-variable LPs as in
   [qcheck_feasibility], plus a random small perturbation — new
   objective coefficients, one RHS, or one whole row. *)

let random_lp_gen =
  let open QCheck in
  let term_gen = Gen.float_range (-4.0) 4.0 in
  let row_gen =
    Gen.map3
      (fun coefs cmp rhs -> (coefs, cmp, rhs))
      (Gen.array_size (Gen.return 4) term_gen)
      (Gen.oneofl [ Lp.Model.Le; Lp.Model.Ge; Lp.Model.Eq ])
      (Gen.float_range 0.0 8.0)
  in
  ( Gen.pair
      (Gen.list_size (Gen.int_range 1 6) row_gen)
      (Gen.array_size (Gen.return 4) term_gen),
    row_gen,
    term_gen )

let build_random_lp (rows, cost) =
  let m = Lp.Model.create () in
  let vars = Array.init 4 (fun i -> Lp.Model.var m (Printf.sprintf "x%d" i)) in
  let terms coefs = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs) in
  List.iter
    (fun (coefs, cmp, rhs) -> Lp.Model.add_constraint m (terms coefs) cmp rhs)
    rows;
  Lp.Model.set_objective m (terms cost);
  (m, vars)

let qcheck_warm_vs_cold =
  let open QCheck in
  let lp_gen, row_gen, term_gen = random_lp_gen in
  let perturb_gen =
    Gen.oneof
      [
        Gen.map (fun c -> `Cost c) (Gen.array_size (Gen.return 4) term_gen);
        Gen.map2
          (fun i rhs -> `Rhs (i, rhs))
          (Gen.int_range 0 97)
          (Gen.float_range 0.0 8.0);
        Gen.map2 (fun i row -> `Row (i, row)) (Gen.int_range 0 97) row_gen;
      ]
  in
  Test.make ~count:300
    ~name:"warm resolve agrees with cold solve after a perturbation"
    (make (Gen.pair lp_gen perturb_gen))
    (fun ((rows, cost), perturb) ->
      let nrows = List.length rows in
      let apply (m, vars) =
        let terms coefs =
          Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs)
        in
        match perturb with
        | `Cost c -> Lp.Model.set_objective m (terms c)
        | `Rhs (i, rhs) -> Lp.Model.set_rhs m (i mod nrows) rhs
        | `Row (i, (coefs, cmp, rhs)) ->
          Lp.Model.replace_constraint m (i mod nrows) (terms coefs) cmp rhs
      in
      (* Warm chain: solve, edit in place, resolve from the snapshot. *)
      let wm, wvars = build_random_lp (rows, cost) in
      let _, _, snap = Lp.Model.solve_ext wm in
      apply (wm, wvars);
      let warm_o, _, _ = Lp.Model.resolve wm ~prev:snap in
      (* Cold reference: an independent model with the same edit. *)
      let cm, cvars = build_random_lp (rows, cost) in
      apply (cm, cvars);
      match (warm_o, Lp.Model.solve cm) with
      | Lp.Model.Optimal w, Lp.Model.Optimal c ->
        (* Two exact optima of the same LP, possibly different bases:
           allow a loose numerical tolerance. *)
        abs_float (w.Lp.Model.objective -. c.Lp.Model.objective)
        <= 1e-4 *. (1.0 +. abs_float c.Lp.Model.objective)
      | Lp.Model.Infeasible, Lp.Model.Infeasible -> true
      | Lp.Model.Unbounded, Lp.Model.Unbounded -> true
      | _ -> false)

let qcheck_warm_noop =
  let open QCheck in
  let lp_gen, _, _ = random_lp_gen in
  Test.make ~count:300
    ~name:"unperturbed re-solve: zero pivots warm, fallback otherwise"
    (make lp_gen)
    (fun (rows, cost) ->
      let m, _ = build_random_lp (rows, cost) in
      let o1, _, snap = Lp.Model.solve_ext m in
      let o2, s, _ = Lp.Model.resolve m ~prev:snap in
      match (o1, o2) with
      | Lp.Model.Optimal a, Lp.Model.Optimal b ->
        (* An optimal basis re-imports and is immediately optimal:
           exactly zero pivots, same objective.  Zero is trivially
           <= the cold pivot count. *)
        s.Lp.Simplex.warm_used && (not s.Lp.Simplex.fallback)
        && s.Lp.Simplex.pivots = 0
        && abs_float (a.Lp.Model.objective -. b.Lp.Model.objective)
           <= 1e-9 *. (1.0 +. abs_float a.Lp.Model.objective)
      | Lp.Model.Infeasible, Lp.Model.Infeasible
      | Lp.Model.Unbounded, Lp.Model.Unbounded ->
        (* No basis to carry: the cold path reran and the failed warm
           attempt is reported as a fallback. *)
        s.Lp.Simplex.fallback && not s.Lp.Simplex.warm_used
      | _ -> false)

let suite =
  [
    Alcotest.test_case "trivial min" `Quick test_trivial_min;
    Alcotest.test_case "two variables" `Quick test_two_var;
    Alcotest.test_case "equalities" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
    Alcotest.test_case "degenerate pivots" `Quick test_degenerate;
    Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
    Alcotest.test_case "min-max load shape" `Quick test_min_max_load_shape;
    Alcotest.test_case "pivot counters: phase 1 apart from phase 2" `Quick
      test_pivot_counters_disjoint;
    Alcotest.test_case "warm: no-op re-solve is free" `Quick
      test_warm_noop_zero_pivots;
    Alcotest.test_case "warm: cost perturbation" `Quick
      test_warm_cost_perturbation;
    Alcotest.test_case "warm: rhs perturbation" `Quick
      test_warm_rhs_perturbation;
    Alcotest.test_case "warm: empty model falls back" `Quick
      test_warm_empty_model;
    Alcotest.test_case "warm: all-zero cost" `Quick test_warm_zero_cost;
    Alcotest.test_case "warm: degenerate ties" `Quick test_warm_degenerate_ties;
    Alcotest.test_case "warm: unbounded perturbation falls back" `Quick
      test_warm_unbounded_perturbation;
    Alcotest.test_case "warm: infeasible perturbation falls back" `Quick
      test_warm_infeasible_perturbation;
    Alcotest.test_case "warm: sense flip falls back" `Quick
      test_warm_sense_flip_fallback;
    Alcotest.test_case "warm: structural growth falls back" `Quick
      test_warm_structural_growth;
    Alcotest.test_case "warm: raw engine rejects layout mismatch" `Quick
      test_simplex_warm_layout_mismatch;
    QCheck_alcotest.to_alcotest qcheck_vs_oracle;
    QCheck_alcotest.to_alcotest qcheck_feasibility;
    QCheck_alcotest.to_alcotest qcheck_warm_vs_cold;
    QCheck_alcotest.to_alcotest qcheck_warm_noop;
  ]
