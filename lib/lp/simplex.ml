type sense = Le | Ge | Eq

type result = Optimal of float array | Infeasible | Unbounded

(* An exported optimal basis: the layout signature of the tableau it
   came from (variable count and per-row normalised senses — these fix
   the slack/artificial column assignment) plus the basic column of
   every constraint row.  Importing it into a compatible perturbed
   problem skips phase 1 entirely. *)
type basis = {
  b_n : int;
  b_senses : sense array;
  b_cols : int array;
}

type stats = {
  pivots : int;          (* phase-2 pivots performed by this call *)
  phase1_pivots : int;   (* phase-1 and drive-out pivots, apart from [pivots] *)
  warm_used : bool;      (* the warm basis carried the solve to optimality *)
  fallback : bool;       (* a warm basis was supplied but the cold
                            two-phase path had to run *)
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
}

let pivot t ~row ~col =
  let a = t.a in
  let piv = a.(row).(col) in
  let arow = a.(row) in
  let inv = 1.0 /. piv in
  for j = 0 to t.width do
    arow.(j) <- arow.(j) *. inv
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let f = a.(i).(col) in
      if f <> 0.0 then begin
        let ai = a.(i) in
        for j = 0 to t.width do
          ai.(j) <- ai.(j) -. (f *. arow.(j))
        done
      end
    end
  done;
  t.basis.(row) <- col

(* Entering column: Dantzig unless [bland]; [allowed col] filters out
   artificial columns during phase 2. *)
let entering t ~bland ~allowed =
  let obj = t.a.(t.m) in
  if bland then begin
    let rec find j =
      if j >= t.width then None
      else if allowed j && obj.(j) < -.eps then Some j
      else find (j + 1)
    in
    find 0
  end
  else begin
    let best = ref (-1) and best_v = ref (-.eps) in
    for j = 0 to t.width - 1 do
      if allowed j && obj.(j) < !best_v then begin
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
let optimise t ~count ~allowed =
  let degenerate_streak = ref 0 in
  let bland = ref false in
  let iter = ref 0 in
  let continue = ref true in
  while !continue do
    incr iter;
    if !iter > iteration_cap then failwith "Simplex: iteration cap exceeded";
    match entering t ~bland:!bland ~allowed with
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
        pivot t ~row ~col)
  done

let solve_ext ?warm_basis ~cost ~rows () =
  let n = Array.length cost in
  let m = Array.length rows in
  Array.iter
    (fun (coefs, _, _) ->
      if Array.length coefs <> n then invalid_arg "Simplex.solve: ragged rows")
    rows;
  (* Count auxiliary columns: one slack/surplus per inequality, one
     artificial per Ge/Eq row (and per Le row with negative RHS once
     normalised). *)
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
  let senses = Array.map (fun (_, sense, _) -> sense) norm in
  let slacks = ref 0 and artificials = ref 0 in
  Array.iter
    (fun (_, sense, _) ->
      match sense with
      | Le ->
        incr slacks
      | Ge ->
        incr slacks;
        incr artificials
      | Eq -> incr artificials)
    norm;
  let width = n + !slacks + !artificials in
  let art_first = n + !slacks in
  let build () =
    let a = Array.make_matrix (m + 1) (width + 1) 0.0 in
    let basis = Array.make m (-1) in
    let slack_col = ref n and art_col = ref art_first in
    Array.iteri
      (fun i (coefs, sense, rhs) ->
        Array.blit coefs 0 a.(i) 0 n;
        a.(i).(width) <- rhs;
        (match sense with
        | Le ->
          a.(i).(!slack_col) <- 1.0;
          basis.(i) <- !slack_col;
          incr slack_col
        | Ge ->
          a.(i).(!slack_col) <- -1.0;
          incr slack_col;
          a.(i).(!art_col) <- 1.0;
          basis.(i) <- !art_col;
          incr art_col
        | Eq ->
          a.(i).(!art_col) <- 1.0;
          basis.(i) <- !art_col;
          incr art_col))
      norm;
    { a; m; width; basis }
  in
  let is_artificial j = j >= art_first in
  let pivots = ref 0 and phase1_pivots = ref 0 in
  let export t =
    Some { b_n = n; b_senses = senses; b_cols = Array.copy t.basis }
  in
  (* Phase-2 objective row over the current basis, then optimise with
     artificial columns barred from entering.  Shared by both paths. *)
  let phase2 t =
    let a = t.a in
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
    optimise t ~count:pivots ~allowed:(fun j -> not (is_artificial j));
    let values = Array.make n 0.0 in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then values.(t.basis.(i)) <- a.(i).(width)
    done;
    (* Clamp the tiny negatives numerical noise can leave behind. *)
    Array.iteri (fun j v -> if v < 0.0 && v > -1e-7 then values.(j) <- 0.0) values;
    (values, export t)
  in
  (* ---- Warm path: refactorise to the imported basis, verify primal
     feasibility, run phase 2 only.  Any doubt — layout mismatch,
     singular basis, infeasible or inconsistent RHS, unboundedness
     claimed from the warm basis — abandons the attempt and reruns the
     authoritative cold two-phase path, so a warm answer is only ever
     an optimum the cold path would also have reached. *)
  let try_warm b =
    if
      b.b_n <> n || m = 0 || n = 0
      || Array.length b.b_senses <> m
      || b.b_senses <> senses
      || Array.length b.b_cols <> m
      || Array.exists (fun c -> c < 0 || c >= width) b.b_cols
    then None
    else begin
      let cols = Array.copy b.b_cols in
      Array.sort compare cols;
      let distinct = ref true in
      for i = 1 to m - 1 do
        if cols.(i) = cols.(i - 1) then distinct := false
      done;
      if not !distinct then None
      else begin
        let t = build () in
        (* Install the basis as a column set: for each basis column
           pick the unassigned row with the largest pivot element —
           insensitive to the row order the exporter happened to have,
           and singularity shows up as no usable pivot. *)
        let assigned = Array.make m false in
        let singular = ref false in
        Array.iter
          (fun col ->
            if not !singular then begin
              let best = ref (-1) and best_v = ref 0.0 in
              for i = 0 to m - 1 do
                if not assigned.(i) then begin
                  let v = abs_float t.a.(i).(col) in
                  if v > !best_v then begin
                    best := i;
                    best_v := v
                  end
                end
              done;
              if !best_v <= 1e-7 then singular := true
              else begin
                pivot t ~row:!best ~col;
                assigned.(!best) <- true
              end
            end)
          cols;
        if !singular then None
        else begin
          (* Primal feasibility of the imported basis under the new
             RHS; an artificial kept basic by the exporter (redundant
             row) must still carry value ~0 or the perturbed row is
             inconsistent. *)
          let feasible = ref true in
          for i = 0 to m - 1 do
            let rhs = t.a.(i).(width) in
            if is_artificial t.basis.(i) then begin
              if abs_float rhs > 1e-7 then feasible := false
            end
            else if rhs < -1e-7 then feasible := false
            else if rhs < 0.0 then t.a.(i).(width) <- 0.0
          done;
          if not !feasible then None
          else
            match phase2 t with
            | values, basis -> Some (Optimal values, basis)
            | exception Unbounded_lp -> None
        end
      end
    end
  in
  let warm =
    match warm_basis with None -> None | Some b -> try_warm b
  in
  match warm with
  | Some (outcome, basis) ->
    ( outcome,
      {
        pivots = !pivots;
        phase1_pivots = !phase1_pivots;
        warm_used = true;
        fallback = false;
      },
      basis )
  | None ->
    let fallback = warm_basis <> None in
    let stats () =
      {
        pivots = !pivots;
        phase1_pivots = !phase1_pivots;
        warm_used = false;
        fallback;
      }
    in
    let cold () =
      let t = build () in
      let a = t.a in
      (* ---- Phase 1: minimise the artificial sum. ---- *)
      if !artificials > 0 then begin
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
        (try optimise t ~count:phase1_pivots ~allowed:(fun _ -> true)
         with Unbounded_lp -> failwith "Simplex: phase 1 cannot be unbounded");
        let phase1 = -.a.(m).(width) in
        if phase1 > 1e-6 then raise Exit
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
            pivot t ~row:i ~col:!col
          end
          (* Otherwise the row is redundant (all-zero over real
             columns); the artificial stays basic at value ~0 and,
             because phase 2 never lets artificial columns enter, its
             value can only change through pivots in this row, which
             the ratio test performs only at ratio 0 here. *)
        end
      done;
      (* ---- Phase 2: real objective. ---- *)
      match phase2 t with
      | values, basis -> (Optimal values, stats (), basis)
      | exception Unbounded_lp -> (Unbounded, stats (), None)
    in
    (try cold () with Exit -> (Infeasible, stats (), None))

let solve ~cost ~rows =
  let outcome, _, _ = solve_ext ~cost ~rows () in
  outcome
