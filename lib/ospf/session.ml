type t = {
  n : int;
  routers : Router.t array;
  engine : Dess.Engine.t;
  link_delay : float;
  failed : (int * int, unit) Hashtbl.t; (* key (u<v) *)
  recosted : (int * int, float) Hashtbl.t; (* key (u<v), current cost *)
  mutable message_count : int;
  original : Netgraph.Graph.t;
}

let key u v = (min u v, max u v)

(* Flood [lsa] outward from [node] over the CURRENT adjacencies. *)
let rec flood t node ~except lsa =
  List.iter
    (fun (nbr, _) ->
      if nbr <> except then begin
        t.message_count <- t.message_count + 1;
        ignore
          (Dess.Engine.schedule t.engine ~delay:t.link_delay (fun _ ->
               deliver t nbr ~from:node lsa))
      end)
    (Router.neighbors t.routers.(node))

and deliver t node ~from lsa =
  if Router.install t.routers.(node) lsa then flood t node ~except:from lsa

let start ?(link_delay = 1.0) ?(jitter_seed = 7) topo =
  let g = topo.Netgraph.Topology.graph in
  let n = Netgraph.Graph.node_count g in
  let rng = Stdx.Rng.create jitter_seed in
  let routers =
    Array.init n (fun i ->
        let neighbors =
          List.map
            (fun { Netgraph.Graph.dst; cost } -> (dst, cost))
            (Netgraph.Graph.neighbors g i)
        in
        Router.create ~id:i ~neighbors)
  in
  let t =
    {
      n;
      routers;
      engine = Dess.Engine.create ();
      link_delay;
      failed = Hashtbl.create 16;
      recosted = Hashtbl.create 16;
      message_count = 0;
      original = g;
    }
  in
  for i = 0 to n - 1 do
    let jitter = Stdx.Rng.float rng 0.5 in
    ignore
      (Dess.Engine.schedule t.engine ~delay:jitter (fun _ ->
           let lsa = Router.originate t.routers.(i) in
           flood t i ~except:i lsa))
  done;
  Dess.Engine.run t.engine;
  t

let link_is_failed t u v = Hashtbl.mem t.failed (key u v)

(* Both ends re-originate their changed adjacency and flood; the
   session then runs to quiescence. *)
let reconverge t u v =
  List.iter
    (fun endpoint ->
      let lsa = Router.originate t.routers.(endpoint) in
      flood t endpoint ~except:endpoint lsa)
    [ u; v ];
  Dess.Engine.run t.engine

let fail_link t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Session.fail_link: node out of range";
  if link_is_failed t u v then invalid_arg "Session.fail_link: already failed";
  if not (List.mem_assoc v (Router.neighbors t.routers.(u))) then
    invalid_arg "Session.fail_link: no such link";
  Hashtbl.replace t.failed (key u v) ();
  Router.remove_neighbor t.routers.(u) v;
  Router.remove_neighbor t.routers.(v) u;
  (* Both ends detect the loss and advertise their shrunken adjacency. *)
  reconverge t u v

let recover_link t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Session.recover_link: node out of range";
  if not (link_is_failed t u v) then
    invalid_arg "Session.recover_link: link is not failed";
  Hashtbl.remove t.failed (key u v);
  (* The link comes back at its last advertised cost: a recost made
     before the failure survives it. *)
  let cost =
    match Hashtbl.find_opt t.recosted (key u v) with
    | Some c -> c
    | None -> (
      match Netgraph.Graph.cost t.original u v with
      | Some c -> c
      | None -> assert false (* only ever failed via fail_link *))
  in
  Router.add_neighbor t.routers.(u) v cost;
  Router.add_neighbor t.routers.(v) u cost;
  reconverge t u v

let change_cost t u v cost =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Session.change_cost: node out of range";
  if cost <= 0.0 then invalid_arg "Session.change_cost: non-positive cost";
  if not (List.mem_assoc v (Router.neighbors t.routers.(u))) then
    invalid_arg "Session.change_cost: no such link";
  Hashtbl.replace t.recosted (key u v) cost;
  List.iter
    (fun (endpoint, nbr) ->
      Router.remove_neighbor t.routers.(endpoint) nbr;
      Router.add_neighbor t.routers.(endpoint) nbr cost)
    [ (u, v); (v, u) ];
  reconverge t u v

let tables t = Array.map (fun r -> Router.spf r ~node_count:t.n) t.routers

let surviving_graph t =
  let g = Netgraph.Graph.create t.n in
  List.iter
    (fun (u, v, cost) ->
      if not (link_is_failed t u v) then begin
        let cost =
          Option.value ~default:cost (Hashtbl.find_opt t.recosted (key u v))
        in
        Netgraph.Graph.add_edge g u v cost
      end)
    (Netgraph.Graph.edges t.original);
  g

let messages t = t.message_count
let convergence_time t = Dess.Engine.now t.engine
