(* Rewrites the golden file from the current code:

     dune exec test/golden/golden_write.exe            # writes test/golden.txt
     dune exec test/golden/golden_write.exe -- FILE    # writes FILE

   Run from the project root after a change that moves behaviour on
   purpose, and say in the change log which tokens moved and why. *)
let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden.txt" in
  let oc = open_out path in
  List.iter (fun c -> output_string oc (Golden.line c ^ "\n")) Golden.cases;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path (List.length Golden.cases)
