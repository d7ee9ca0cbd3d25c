(* Every registry entry against its committed golden line
   (test/golden.txt, rewritten by test/golden/golden_write.exe).  A
   mismatch names the entry and the first token that moved. *)

(* The file's lines by entry name; [Error] names what is missing, so a
   lost file fails these cases alone. *)
let expected =
  lazy
    (match List.find_opt Sys.file_exists [ "golden.txt"; "test/golden.txt" ] with
    | None -> Error "golden.txt not found"
    | Some file ->
      let ic = open_in file in
      let rec read acc =
        match input_line ic with
        | line -> read ((fst (Golden.tokens line), line) :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      Ok (read []))

let check (c : Golden.case) () =
  match Result.map (List.assoc_opt c.name) (Lazy.force expected) with
  | Error e -> Alcotest.failf "%s: %s" c.name e
  | Ok None -> Alcotest.failf "%s: no golden line in golden.txt" c.name
  | Ok (Some expected) -> (
    match Golden.first_difference ~expected ~actual:(Golden.line c) with
    | None -> ()
    | Some diff -> Alcotest.failf "golden %s: %s" c.name diff)

(* One case and one line per registry entry, in registry order: a new
   entry without a line, or a line left over from a removed entry,
   fails here rather than passing unchecked. *)
let coverage () =
  match Lazy.force expected with
  | Error e -> Alcotest.fail e
  | Ok lines ->
    let names = List.map (fun (e : Sim.Registry.entry) -> e.name) Sim.Registry.all in
    Alcotest.(check (list string)) "cases" names
      (List.map (fun (c : Golden.case) -> c.name) Golden.cases);
    Alcotest.(check (list string)) "golden.txt lines" names (List.map fst lines)

let suite =
  Alcotest.test_case "every registry entry has a line" `Quick coverage
  :: List.map
       (fun (c : Golden.case) -> Alcotest.test_case c.name `Slow (check c))
       Golden.cases
