type sense = Le | Ge | Eq

type result = Optimal of float array | Infeasible | Unbounded

(* A basis in layout-free terms: the basic structural columns and the
   rows whose slack or surplus is basic, both ascending.  A caller
   maps them onto a later problem by meaning; {!solve_ext} treats the
   result as a suggestion only. *)
type basis = { cols : int array; slack_rows : int array }

type stats = {
  pivots : int;          (* phase-2 pivots performed by this call *)
  phase1_pivots : int;   (* phase-1 and drive-out pivots, apart from [pivots] *)
  warm_used : bool;      (* a start basis seeded the solve *)
  fallback : bool;       (* a start basis was supplied but the cold
                            two-phase path answered *)
}

let eps = 1e-9

(* Tableau layout: [a] has [m] constraint rows and one objective row
   (index m).  Columns: [0, width) are variables (structural, then
   slack/surplus, then artificial), column [width] is the RHS.  The
   objective row holds reduced costs, and its RHS holds the negated
   objective value. *)
type tableau = {
  a : float array array;
  m : int;
  width : int;
  basis : int array; (* basic variable of each row *)
  nz : int array;    (* pivot-row scratch: its nonzero columns *)
}

(* The pivot kernel.  Scale the pivot row, recording its nonzero
   columns in [nz], then subtract [f] times it from every other row
   with [f <> 0.0] — over the recorded columns only.  The arithmetic
   is the dense update's, entry for entry; a skipped column would have
   computed [x -. f *. (±0.0)], which is [x] for every nonzero [x] and
   can differ only in the sign of a zero [x] (-0.0 -. -0.0 is +0.0).
   The solver never divides by a zero and its comparisons treat ±0
   alike, so the pivots and the answer are the dense pivot's, bit for
   bit.  Bounds: each recorded index is < [Array.length arow] (at most
   [width]), and every row has as many entries as [arow]. *)
let eliminate a ~nz ~row ~col =
  let arow = a.(row) in
  let inv = 1.0 /. arow.(col) in
  let k = ref 0 in
  for j = 0 to Array.length arow - 1 do
    let v = arow.(j) *. inv in
    arow.(j) <- v;
    if v <> 0.0 then begin
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to Array.length a - 1 do
    let ai = a.(i) in
    let f = ai.(col) in
    if i <> row && f <> 0.0 then
      for q = 0 to k - 1 do
        let j = Array.unsafe_get nz q in
        Array.unsafe_set ai j (Array.unsafe_get ai j -. (f *. Array.unsafe_get arow j))
      done
  done

let pivot a ~row ~col =
  let w = Array.length a.(row) in
  if Array.exists (fun r -> Array.length r <> w) a then
    invalid_arg "Simplex.pivot: ragged tableau";
  eliminate a ~nz:(Array.make w 0) ~row ~col

let pivot_basis t ~row ~col =
  eliminate t.a ~nz:t.nz ~row ~col;
  t.basis.(row) <- col

(* Entering column among [0, limit): Dantzig unless [bland].  Phase 2
   passes [art_first], barring the artificial columns. *)
let entering t ~bland ~limit =
  let obj = t.a.(t.m) in
  if bland then begin
    let rec find j =
      if j >= limit then None
      else if obj.(j) < -.eps then Some j
      else find (j + 1)
    in
    find 0
  end
  else begin
    let best = ref (-1) and best_v = ref (-.eps) in
    for j = 0 to limit - 1 do
      if obj.(j) < !best_v then begin
        best := j;
        best_v := obj.(j)
      end
    done;
    if !best = -1 then None else Some !best
  end

(* Leaving row: minimum ratio; ties by smallest basic variable index
   (lexicographic enough for Bland's rule to terminate). *)
let leaving t ~col =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let coef = t.a.(i).(col) in
    if coef > eps then begin
      let ratio = t.a.(i).(t.width) /. coef in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && (!best = -1 || t.basis.(i) < t.basis.(!best)))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  if !best = -1 then None else Some !best

exception Unbounded_lp

let iteration_cap = 2_000_000

(* Run simplex iterations until no entering column remains.  [count]
   only observes pivots — no float the tableau sees depends on it. *)
let optimise t ~count ~limit =
  let degenerate_streak = ref 0 in
  let bland = ref false in
  let iter = ref 0 in
  let continue = ref true in
  while !continue do
    incr iter;
    if !iter > iteration_cap then failwith "Simplex: iteration cap exceeded";
    match entering t ~bland:!bland ~limit with
    | None -> continue := false
    | Some col -> (
      match leaving t ~col with
      | None -> raise Unbounded_lp
      | Some row ->
        let ratio = t.a.(row).(t.width) /. t.a.(row).(col) in
        if ratio < eps then begin
          incr degenerate_streak;
          if !degenerate_streak > 1000 then bland := true
        end
        else degenerate_streak := 0;
        incr count;
        pivot_basis t ~row ~col)
  done

let solve_ext ?start ~cost ~rows () =
  let n = Array.length cost in
  let m = Array.length rows in
  Array.iter
    (fun (coefs, _, _) ->
      if Array.length coefs <> n then invalid_arg "Simplex.solve: ragged rows")
    rows;
  (* Auxiliary columns: one slack/surplus per inequality, one
     artificial per Ge/Eq row (and per Le row with negative RHS once
     normalised).  [slack_of] maps a row to its slack column (-1 for an
     equality), [slack_row] a slack column back to its row. *)
  let norm =
    Array.map
      (fun (coefs, sense, rhs) ->
        if rhs < 0.0 then
          ( Array.map (fun c -> -.c) coefs,
            (match sense with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.rhs )
        else (coefs, sense, rhs))
      rows
  in
  let slack_of = Array.make m (-1) in
  let slacks = ref 0 and artificials = ref 0 in
  Array.iteri
    (fun i (_, sense, _) ->
      if sense <> Eq then begin
        slack_of.(i) <- n + !slacks;
        incr slacks
      end;
      if sense <> Le then incr artificials)
    norm;
  let slack_row = Array.make !slacks 0 in
  Array.iteri (fun i c -> if c >= 0 then slack_row.(c - n) <- i) slack_of;
  let art_first = n + !slacks in
  let is_artificial j = j >= art_first in
  (* The starting tableau: slacks basic in Le rows, artificials in
     Ge/Eq rows, and [spare] zero columns after the artificials. *)
  let build ~spare =
    let width = art_first + !artificials + spare in
    let a = Array.make_matrix (m + 1) (width + 1) 0.0 in
    let basis = Array.make m (-1) in
    let art_col = ref art_first in
    Array.iteri
      (fun i (coefs, sense, rhs) ->
        Array.blit coefs 0 a.(i) 0 n;
        a.(i).(width) <- rhs;
        match sense with
        | Le ->
          a.(i).(slack_of.(i)) <- 1.0;
          basis.(i) <- slack_of.(i)
        | Ge | Eq ->
          if sense = Ge then a.(i).(slack_of.(i)) <- -1.0;
          a.(i).(!art_col) <- 1.0;
          basis.(i) <- !art_col;
          incr art_col)
      norm;
    { a; m; width; basis; nz = Array.make (width + 1) 0 }
  in
  let pivots = ref 0 and phase1_pivots = ref 0 in
  let export t =
    let sorted f =
      let a = Array.of_list (List.filter_map f (Array.to_list t.basis)) in
      Array.sort compare a;
      a
    in
    let slack b = if b >= n && b < art_first then Some slack_row.(b - n) else None in
    Some { cols = sorted (fun b -> if b < n then Some b else None); slack_rows = sorted slack }
  in
  (* Phase-2 objective row over the current basis, then optimise with
     artificial columns barred from entering. *)
  let phase2 t =
    let a = t.a and width = t.width in
    for j = 0 to width do
      a.(m).(j) <- 0.0
    done;
    for j = 0 to n - 1 do
      a.(m).(j) <- cost.(j)
    done;
    for i = 0 to m - 1 do
      let b = t.basis.(i) in
      if b < n && cost.(b) <> 0.0 then begin
        let f = cost.(b) in
        for j = 0 to width do
          a.(m).(j) <- a.(m).(j) -. (f *. a.(i).(j))
        done
      end
    done;
    optimise t ~count:pivots ~limit:art_first;
    let values = Array.make n 0.0 in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then values.(t.basis.(i)) <- a.(i).(width)
    done;
    (* Clamp the tiny negatives numerical noise can leave behind. *)
    Array.iteri (fun j v -> if v < 0.0 && v > -1e-7 then values.(j) <- 0.0) values;
    (values, export t)
  in
  (* From a primal-feasible tableau: phase 1 over every basic
     artificial, drive-out, phase 2.  Raises [Exit] when the LP is
     infeasible and [Unbounded_lp] when phase 2 is unbounded. *)
  let finish t =
    let a = t.a and width = t.width in
    if Array.exists is_artificial t.basis then begin
      (* Objective row = -(sum of artificial rows) expressed on
         non-basic columns: start from cost 1 on artificials, then
         eliminate the basic artificials row by row. *)
      for j = art_first to width - 1 do
        a.(m).(j) <- 1.0
      done;
      for i = 0 to m - 1 do
        if is_artificial t.basis.(i) then
          for j = 0 to width do
            a.(m).(j) <- a.(m).(j) -. a.(i).(j)
          done
      done;
      (try optimise t ~count:phase1_pivots ~limit:width
       with Unbounded_lp -> failwith "Simplex: phase 1 cannot be unbounded");
      if -.a.(m).(width) > 1e-6 then raise Exit
    end;
    (* Drive any zero-valued basic artificials out of the basis. *)
    for i = 0 to m - 1 do
      if is_artificial t.basis.(i) then begin
        let col = ref (-1) in
        for j = 0 to art_first - 1 do
          if !col = -1 && abs_float a.(i).(j) > eps then col := j
        done;
        if !col >= 0 then begin
          incr phase1_pivots;
          pivot_basis t ~row:i ~col:!col
        end
        (* Otherwise the row is redundant (all-zero over real
           columns); the artificial stays basic at value ~0 and,
           because phase 2 never lets artificial columns enter, its
           value can only change through pivots in this row, which
           the ratio test performs only at ratio 0 here. *)
      end
    done;
    phase2 t
  in
  (* ---- Seeded start: a crash basis from [start].  Rows whose slack
     was basic keep (or take) it; each suggested column still present
     is pivoted in at the unassigned row with the largest entry, and a
     column with no usable entry stays out.  A row left with a
     negative value gets a repair artificial — a spare column set to
     -1 in that row alone, pivoted in — so the tableau is primal
     feasible and [finish] runs phase 1 over every artificial.  These
     install and repair pivots refactorise and are not counted.  A
     seeded solve ending Infeasible or Unbounded gives up, so those
     verdicts only ever come from the cold path. *)
  let seeded { cols; slack_rows } =
    let t = build ~spare:m in
    let a = t.a and width = t.width in
    let assigned = Array.make m false in
    Array.iter
      (fun i ->
        if i >= 0 && i < m && slack_of.(i) >= 0 && not assigned.(i) then begin
          if t.basis.(i) <> slack_of.(i) then
            pivot_basis t ~row:i ~col:slack_of.(i);
          assigned.(i) <- true
        end)
      slack_rows;
    Array.iter
      (fun col ->
        if col >= 0 && col < n then begin
          let best = ref (-1) and best_v = ref 1e-7 in
          for i = 0 to m - 1 do
            if not assigned.(i) then begin
              let v = abs_float a.(i).(col) in
              if v > !best_v then begin
                best := i;
                best_v := v
              end
            end
          done;
          if !best >= 0 then begin
            pivot_basis t ~row:!best ~col;
            assigned.(!best) <- true
          end
        end)
      cols;
    let spare = ref (width - m) in
    for i = 0 to m - 1 do
      let v = a.(i).(width) in
      if v < -.eps then begin
        a.(i).(!spare) <- -1.0;
        pivot_basis t ~row:i ~col:!spare;
        incr spare
      end
      else if v < 0.0 then a.(i).(width) <- 0.0
    done;
    match finish t with
    | values, basis -> Some (values, basis)
    | exception (Exit | Unbounded_lp) -> None
  in
  let stats ~warm_used ~fallback =
    { pivots = !pivots; phase1_pivots = !phase1_pivots; warm_used; fallback }
  in
  match Option.bind start seeded with
  | Some (values, basis) ->
    (Optimal values, stats ~warm_used:true ~fallback:false, basis)
  | None ->
    let fallback = start <> None in
    let outcome, basis =
      match finish (build ~spare:0) with
      | values, basis -> (Optimal values, basis)
      | exception Exit -> (Infeasible, None)
      | exception Unbounded_lp -> (Unbounded, None)
    in
    (outcome, stats ~warm_used:false ~fallback, basis)

let solve ~cost ~rows =
  let outcome, _, _ = solve_ext ~cost ~rows () in
  outcome
