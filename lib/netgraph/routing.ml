type table = int array

(* The next hop of [src] towards [dst] is the first node after [src] on
   the shortest path, i.e. the last link of the reverse path from the
   destination-rooted view.  We compute it from the source-rooted SPT
   by walking predecessors back from [dst]. *)
let table_for g src =
  let n = Graph.node_count g in
  let tree = Dijkstra.run g src in
  let table = Array.make n (-1) in
  table.(src) <- src;
  for dst = 0 to n - 1 do
    if dst <> src && tree.Dijkstra.dist.(dst) < infinity then begin
      let rec back u = if tree.Dijkstra.prev.(u) = src then u else back tree.Dijkstra.prev.(u) in
      table.(dst) <- back dst
    end
  done;
  table

let build_all g = Array.init (Graph.node_count g) (fun u -> table_for g u)

let next_hop table dst =
  let hop = table.(dst) in
  if hop = -1 then None else Some hop

let walk tables ~src ~dst =
  let n = Array.length tables in
  let rec go u acc steps =
    if u = dst then List.rev (u :: acc)
    else if steps > n then failwith "Routing.walk: forwarding loop"
    else
      match next_hop tables.(u) dst with
      | None -> failwith "Routing.walk: unreachable destination"
      | Some hop -> go hop (u :: acc) (steps + 1)
  in
  go src [] 0
