type policy_class = Many_to_one | One_to_many | One_to_one

let class_chain = function
  | Many_to_one -> Policy.Action.[ FW; IDS ]
  | One_to_many -> Policy.Action.[ FW; IDS; WP ]
  | One_to_one -> Policy.Action.[ IDS; TM ]

let class_name = function
  | Many_to_one -> "many-to-one"
  | One_to_many -> "one-to-many"
  | One_to_one -> "one-to-one"

type flow_spec = {
  id : int;
  flow : Netpkt.Flow.t;
  src_proxy : int;
  dst_proxy : int;
  rule_id : int option;
  intended_class : policy_class;
  packets : int;
  packet_bytes : int;
}

type t = {
  rules : Policy.Rule.t list;
  flows : flow_spec array;
  total_packets : int;
}

(* Service ports: distinct ranges per class keep the generated rules
   from capturing each other's traffic more than realism requires. *)
let m2o_port i = 1024 + i
let o2o_port i = 2048 + i

type proto_policy = {
  p_class : policy_class option;
  desc : Policy.Descriptor.t;
  actions : Policy.Action.t;
  (* Concrete endpoints a matching flow should use; [None] = draw at
     random from all proxies. *)
  fixed_src : int option;
  fixed_dst : int option;
  dport : int;
}

let generate_protos ~deployment ~per_class ~rng =
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  if n_proxies < 2 then invalid_arg "Workload: need at least two proxies";
  let subnet i = Sdm.Deployment.subnet_of deployment i in
  let pick () = Stdx.Rng.int rng n_proxies in
  let pick_other s =
    let rec go () =
      let d = pick () in
      if d = s then go () else d
    in
    go ()
  in
  let m2o =
    List.init per_class (fun i ->
        let d = pick () in
        let port = m2o_port i in
        {
          p_class = Some Many_to_one;
          desc =
            Policy.Descriptor.make ~dst:(subnet d)
              ~dport:(Policy.Descriptor.Port port) ();
          actions = class_chain Many_to_one;
          fixed_src = None;
          fixed_dst = Some d;
          dport = port;
        })
  in
  let o2m =
    List.concat
      (List.init per_class (fun _ ->
           let s = pick () in
           let forward =
             {
               p_class = Some One_to_many;
               desc =
                 Policy.Descriptor.make ~src:(subnet s)
                   ~dport:(Policy.Descriptor.Port 80) ();
               actions = class_chain One_to_many;
               fixed_src = Some s;
               fixed_dst = None;
               dport = 80;
             }
           in
           (* Companion policy for the return web traffic (Sec. IV.A):
              the chain reversed, matching responses from port 80. *)
           let return_ =
             {
               p_class = None;
               desc =
                 Policy.Descriptor.make ~dst:(subnet s)
                   ~sport:(Policy.Descriptor.Port 80) ();
               actions = Policy.Action.[ WP; IDS; FW ];
               fixed_src = None;
               fixed_dst = Some s;
               dport = 0;
             }
           in
           [ forward; return_ ]))
  in
  let o2o =
    List.init per_class (fun i ->
        let s = pick () in
        let d = pick_other s in
        let port = o2o_port i in
        {
          p_class = Some One_to_one;
          desc =
            Policy.Descriptor.make ~src:(subnet s) ~dst:(subnet d)
              ~dport:(Policy.Descriptor.Port port) ();
          actions = class_chain One_to_one;
          fixed_src = Some s;
          fixed_dst = Some d;
          dport = port;
        })
  in
  m2o @ o2m @ o2o

let generate_rules ~deployment ~per_class ~rng =
  let protos = generate_protos ~deployment ~per_class ~rng in
  List.mapi
    (fun id proto ->
      ( Policy.Rule.make ~id ~descriptor:proto.desc ~actions:proto.actions,
        proto.p_class ))
    protos

(* Trimodal packet sizes: 40 B pure ACKs, 576 B legacy datagrams,
   1500 B full-MTU data.  Only the fragmentation ablation cares. *)
let draw_packet_bytes rng =
  let u = Stdx.Rng.float rng 1.0 in
  if u < 0.4 then 40 else if u < 0.5 then 576 else 1500

(* One sequential RNG across the whole flow population: the power-law
   draw, class mix, endpoint and port draws all advance the same
   stream, and flows are drawn in id order.  The pinned oracles depend
   on this exact sequence. *)
let generate ~deployment ?(per_class = 5) ?(seed = 42) ?rule_seed ?class_mix
    ~flows () =
  (* Policies and flows draw from separate streams so a volume sweep
     can scale traffic while holding the policy set fixed. *)
  let rule_seed = Option.value ~default:seed rule_seed in
  let rng_rules = Stdx.Rng.create rule_seed in
  let rng = Stdx.Rng.create (seed + 0x5D) in
  let protos = generate_protos ~deployment ~per_class ~rng:rng_rules in
  let rules =
    List.mapi
      (fun id p -> Policy.Rule.make ~id ~descriptor:p.desc ~actions:p.actions)
      protos
  in
  let matcher = Policy.Matcher.build rules in
  let by_class cls =
    List.filter (fun p -> p.p_class = Some cls) protos |> Array.of_list
  in
  let classes =
    [| (Many_to_one, by_class Many_to_one);
       (One_to_many, by_class One_to_many);
       (One_to_one, by_class One_to_one) |]
  in
  Array.iter
    (fun (cls, ps) ->
      if Array.length ps = 0 then
        invalid_arg ("Workload.generate: no policies in class " ^ class_name cls))
    classes;
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  (* Calibrated so that 30k flows ~ 1M packets, as in the paper. *)
  let sizes = Stdx.Power_law.calibrate ~lo:1 ~hi:5000 ~mean:(1e6 /. 30e3) in
  let host rng proxy =
    (* A random host inside the stub subnet, skipping .0 and .1. *)
    let subnet = Sdm.Deployment.subnet_of deployment proxy in
    Netpkt.Addr.Prefix.nth_addr subnet (2 + Stdx.Rng.int rng 250)
  in
  let pick_proxy () = Stdx.Rng.int rng n_proxies in
  let pick_other s =
    let rec go () =
      let d = pick_proxy () in
      if d = s then go () else d
    in
    go ()
  in
  let total_packets = ref 0 in
  let pick_class =
    match class_mix with
    | None -> fun id -> classes.(id mod 3)
    | Some (a, b, c) ->
      if a < 0.0 || b < 0.0 || c < 0.0 || a +. b +. c <= 0.0 then
        invalid_arg "Workload.generate: bad class mix";
      let total = a +. b +. c in
      fun _ ->
        let u = Stdx.Rng.float rng total in
        if u < a then classes.(0) else if u < a +. b then classes.(1) else classes.(2)
  in
  let make_flow id =
    let cls, ps = pick_class id in
    let proto = Stdx.Rng.choose rng ps in
    let src_proxy, dst_proxy =
      match (proto.fixed_src, proto.fixed_dst) with
      | Some s, Some d -> (s, d)
      | Some s, None -> (s, pick_other s)
      | None, Some d -> (pick_other d, d)
      | None, None -> assert false
    in
    let flow =
      Netpkt.Flow.make ~src:(host rng src_proxy) ~dst:(host rng dst_proxy)
        ~proto:6
        ~sport:(20000 + Stdx.Rng.int rng 40000)
        ~dport:proto.dport
    in
    let rule_id =
      Option.map (fun r -> r.Policy.Rule.id) (Policy.Matcher.first_match matcher flow)
    in
    let packets = Stdx.Power_law.sample sizes rng in
    total_packets := !total_packets + packets;
    {
      id;
      flow;
      src_proxy;
      dst_proxy;
      rule_id;
      intended_class = cls;
      packets;
      packet_bytes = draw_packet_bytes rng;
    }
  in
  (* [Array.init] calls [make_flow] in ascending id order. *)
  let flows = Array.init flows make_flow in
  { rules; flows; total_packets = !total_packets }

let measure t =
  let m = Sdm.Measurement.create () in
  Array.iter
    (fun fs ->
      match fs.rule_id with
      | None -> ()
      | Some rule ->
        Sdm.Measurement.add m ~src:fs.src_proxy ~dst:fs.dst_proxy ~rule
          (float_of_int fs.packets))
    t.flows;
  m

(* Partially applied once per run: the id-indexed table is built here,
   and each flow's lookup returns the option stored in it. *)
let rule_of t =
  let size = List.fold_left (fun m r -> max m (r.Policy.Rule.id + 1)) 0 t.rules in
  let by_id = Array.make size None in
  (* Reversed, so that among equal ids the rule listed first wins. *)
  List.iter (fun r -> by_id.(r.Policy.Rule.id) <- Some r) (List.rev t.rules);
  fun fs ->
    match fs.rule_id with
    | Some id when id >= 0 && id < size -> by_id.(id)
    | _ -> None
