type report = {
  controller_router : int;
  devices_managed : int;
  routers_total : int;
  config_messages : int;
  config_bytes : int;
  config_byte_hops : int;
  time_to_configure : float;
  report_bytes_per_epoch : int;
}

let bytes_per_policy_row = 16
let bytes_per_candidate = 4
let bytes_per_weight_cell = 12
let bytes_per_measurement_cell = 12

(* Flat device indexing shared by the live control plane and the audit
   layer: proxies first, then middleboxes.  A "device" is anything the
   controller pushes configuration to. *)
let device_count (dep : Sdm.Deployment.t) =
  Array.length dep.Sdm.Deployment.proxies
  + Array.length dep.Sdm.Deployment.middleboxes

let device_of_mbox (dep : Sdm.Deployment.t) id =
  Array.length dep.Sdm.Deployment.proxies + id

let device_of_entity dep = function
  | Mbox.Entity.Proxy i -> i
  | Mbox.Entity.Middlebox i -> device_of_mbox dep i

let entity_of_device (dep : Sdm.Deployment.t) dev =
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  if dev < 0 || dev >= device_count dep then
    invalid_arg "Controlplane.entity_of_device: device out of range";
  if dev < n_proxies then Mbox.Entity.Proxy dev
  else Mbox.Entity.Middlebox (dev - n_proxies)

let default_router (dep : Sdm.Deployment.t) =
  let topo = dep.Sdm.Deployment.topo in
  match Netgraph.Topology.gateways topo with
  | gw :: _ -> gw
  | [] -> List.hd (Netgraph.Topology.cores topo)

let replica_routers (dep : Sdm.Deployment.t) ~primary ~n =
  if n < 1 then invalid_arg "Controlplane.replica_routers: n must be positive";
  let topo = dep.Sdm.Deployment.topo in
  (* Deterministic placement: the primary keeps its router; standbys
     take the remaining gateways in order, then the cores — transit
     routers with the best reach, and a stable order whatever the
     seed did to the access layer. *)
  let pool =
    List.filter
      (fun r -> r <> primary)
      (Netgraph.Topology.gateways topo @ Netgraph.Topology.cores topo)
  in
  let rec take k = function
    | _ when k = 0 -> []
    | [] ->
      invalid_arg
        (Printf.sprintf
           "Controlplane.replica_routers: %d replicas but only %d distinct \
            transit routers"
           n
           (n - k))
    | r :: rest -> r :: take (k - 1) rest
  in
  primary :: take (n - 1) pool

(* Per-entity configuration size — also what the live control plane
   charges per config-push message. *)
let entity_bytes (c : Sdm.Controller.t) entity =
  let dep = c.Sdm.Controller.deployment in
  let functions = Sdm.Deployment.functions dep in
  let weights =
    match c.Sdm.Controller.strategy with
    | Sdm.Strategy.Load_balanced w -> Some w
    | _ -> None
  in
  let policy_rows = List.length (Sdm.Controller.policy_table_for c entity) in
  let candidates =
    List.fold_left
      (fun acc nf ->
        match Sdm.Candidate.get c.Sdm.Controller.candidates entity nf with
        | members -> acc + List.length members
        | exception Invalid_argument _ -> acc
        | exception Not_found -> acc)
      0 functions
  in
  let weight_cells =
    match weights with
    | None -> 0
    | Some w ->
      List.fold_left
        (fun acc rule ->
          List.fold_left
            (fun acc nf ->
              match
                Sdm.Weights.find w entity ~rule:rule.Policy.Rule.id ~nf
              with
              | Some row -> acc + Array.length row
              | None -> acc)
            acc functions)
        0 c.Sdm.Controller.rules
  in
  (policy_rows * bytes_per_policy_row)
  + (candidates * bytes_per_candidate)
  + (weight_cells * bytes_per_weight_cell)

let price ?controller_router ?(link_delay = 1.0) (c : Sdm.Controller.t) ~traffic =
  let dep = c.Sdm.Controller.deployment in
  let topo = dep.Sdm.Deployment.topo in
  let controller_router =
    match controller_router with
    | Some r -> r
    | None -> default_router dep
  in
  let entities = List.init (device_count dep) (entity_of_device dep) in
  let entity_bytes entity = entity_bytes c entity in
  let hops entity =
    let r = Sdm.Deployment.entity_router dep entity in
    (* +1 for the last hop from the attachment router to the device. *)
    int_of_float dep.Sdm.Deployment.dist.(controller_router).(r) + 1
  in
  let config_bytes = ref 0 and byte_hops = ref 0 and max_hops = ref 0 in
  List.iter
    (fun e ->
      let b = entity_bytes e and h = hops e in
      config_bytes := !config_bytes + b;
      byte_hops := !byte_hops + (b * h);
      if h > !max_hops then max_hops := h)
    entities;
  (* Measurement reports: each proxy ships its non-zero cells. *)
  let report_bytes = ref 0 in
  List.iter
    (fun rule ->
      List.iter
        (fun (_, _, _) -> report_bytes := !report_bytes + bytes_per_measurement_cell)
        (Sdm.Measurement.pairs_for traffic ~rule:rule.Policy.Rule.id))
    c.Sdm.Controller.rules;
  {
    controller_router;
    devices_managed = List.length entities;
    routers_total = Netgraph.Graph.node_count topo.Netgraph.Topology.graph;
    config_messages = List.length entities;
    config_bytes = !config_bytes;
    config_byte_hops = !byte_hops;
    time_to_configure = float_of_int !max_hops *. link_delay;
    report_bytes_per_epoch = !report_bytes;
  }

(* ---- Live control plane ------------------------------------------- *)

open Pktsim_types

let push_max_retries = 6 (* retries of one control message *)
let push_backoff = 2.0 (* first retry delay of the ladder *)

(* The retry ladder every control message climbs: 2, 4, ..., 64. *)
let backoff_delay ~attempt = push_backoff *. (2.0 ** float_of_int attempt)

(* Wire cost of the sweep protocol: an 8-byte digest query down, a
   24-byte report back (digest, installed version, entry count). *)
let sweep_query_bytes = 8
let sweep_reply_bytes = 24

(* Everything the control plane needs from the network it runs on. *)
type net = {
  hops : from:int -> target:int -> int option;
  control_lost : unit -> bool;
  device_up : Mbox.Entity.t -> bool;
  install : dev:int -> version:int -> unit;
  sweep_check : dev:int -> unit;
  believed_failed : unit -> int list;
  corruption_outstanding : unit -> bool;
}

(* Devices (proxies first, then middleboxes) are indexed flat;
   [configs.(v)] is the controller published as version [v], with
   version 0 the configuration the run started on.  Devices stage at
   most the two adjacent versions {installed-1, installed}: that is the
   invariant Verify.check_mixed certifies.  Replica [i] sits at
   [replica_router.(i)]; the leader is the lowest-id live replica and
   the only one that proposes, commits, and pushes.  A candidate
   configuration parks in [pending] while its quorum round is in flight
   and reaches [configs] only through a commit — the single gate into
   the staged window. *)
type t = {
  lcfg : live_config;
  dep : Sdm.Deployment.t;
  engine : Dess.Engine.t;
  stats : stats;
  audit : Audit.Checker.t option;
  net : net;
  link_delay : float;
  mutable configs : Sdm.Controller.t array;
  mutable latest : int;
  device_version : int array; (* installed at the device *)
  device_acked : int array;   (* highest version the controller saw acked *)
  meas : Sdm.Measurement.t;   (* per-(src, dst, rule) volumes observed so far *)
  mutable horizon : float;    (* time of the last scheduled injection *)
  mutable reconcile_rounds : int;
  mutable sweep_ticks : int;  (* sweep periods elapsed, leader or not *)
  mutable leader : int;
  replica_router : int array;
  replica_up : bool array;
  acceptors : Quorum.Acceptor.t array; (* durable across crashes *)
  mutable round : Quorum.Round.t option;
  mutable pending : Sdm.Controller.t option;
}

let create lcfg ~controller ~engine ~stats ~audit ~link_delay net =
  let dep = controller.Sdm.Controller.deployment in
  let n = device_count dep in
  {
    lcfg;
    dep;
    engine;
    stats;
    audit;
    net;
    link_delay;
    configs = [| controller |];
    latest = 0;
    device_version = Array.make n 0;
    device_acked = Array.make n 0;
    meas = Sdm.Measurement.create ();
    horizon = 0.0;
    reconcile_rounds = 0;
    sweep_ticks = 0;
    leader = 0;
    replica_router =
      Array.of_list
        (replica_routers dep ~primary:(default_router dep) ~n:lcfg.replicas);
    replica_up = Array.make lcfg.replicas true;
    acceptors = Array.init lcfg.replicas (fun _ -> Quorum.Acceptor.create ());
    round = None;
    pending = None;
  }

let set_replica_up cp id up =
  if id < Array.length cp.replica_up then cp.replica_up.(id) <- up

let regress_device cp dev = cp.device_version.(dev) <- cp.device_version.(dev) - 1

(* The event is built inside a thunk, never in an unaudited run; the
   thunk itself is allocated per control message, audited or not. *)
let emit cp f =
  match cp.audit with None -> () | Some a -> Audit.Checker.record a (f ())

let now cp = Dess.Engine.now cp.engine
let bump counts i = counts.(i) <- counts.(i) + 1

(* ---- One exchange, one retry ladder -------------------------------- *)

(* What one control message is: a config push to a device (install ack
   back), a sweep visit to a device (report back), or a quorum message
   to a standby replica (a proposal with its vote back, or a one-way
   commit notice).  The kind picks the target and the counters. *)
type traffic =
  | Push of { dev : int; bytes : int }
  | Sweep of int
  | Quorum of int

let target_router cp = function
  | Push { dev; _ } | Sweep dev ->
    Sdm.Deployment.entity_router cp.dep (entity_of_device cp.dep dev)
  | Quorum replica -> cp.replica_router.(replica)

let target_up cp = function
  | Push { dev; _ } | Sweep dev -> cp.net.device_up (entity_of_device cp.dep dev)
  | Quorum replica -> cp.replica_up.(replica)

(* Install acks are not counted as pushes; sweep reports and votes
   count as messages. *)
let count_leg s ~reply = function
  | Push { bytes; _ } ->
    if not reply then begin
      s.config_pushes <- s.config_pushes + 1;
      s.config_bytes <- s.config_bytes + bytes
    end
  | Sweep _ ->
    s.sweep_msgs <- s.sweep_msgs + 1;
    s.sweep_bytes <-
      s.sweep_bytes + if reply then sweep_reply_bytes else sweep_query_bytes
  | Quorum _ -> s.quorum_msgs <- s.quorum_msgs + 1

let count_lost s = function
  | Push { dev; _ } ->
    s.config_lost <- s.config_lost + 1;
    bump s.entity_control_lost dev
  | Sweep dev ->
    s.sweep_lost <- s.sweep_lost + 1;
    bump s.entity_control_lost dev
  | Quorum _ -> s.quorum_lost <- s.quorum_lost + 1

let count_retry s = function
  | Push { dev; _ } | Sweep dev -> bump s.entity_control_retries dev
  | Quorum _ -> ()

(* Carry one control message from the leader's router over the lossy
   control channel.  The route is walked on the current tables, so a
   partition shows up at once.  No retry timer helps until routing
   heals: a partitioned device counts a degradation (it keeps its
   last-known-good state) and the message is given up.  Otherwise the
   message is counted, drawn for loss and checked against the target's
   liveness; a delivered message [arrive]s one way later, and its
   reply leg (when there is one) is counted and drawn at once and
   handed to [reply] a round trip later.  A lost leg retries on the
   backoff ladder by re-entering the caller through [again], which
   re-checks that the message is still wanted; once the ladder is
   spent, [give_up] runs.  The retransmission timer is modelled as
   firing only when a leg was actually lost: receivers are idempotent,
   so suppressing the duplicates a real timer would also generate is
   observationally equivalent. *)
let exchange cp traffic ~attempt ~again ~give_up ~arrive ~reply =
  let s = cp.stats in
  match
    cp.net.hops ~from:cp.replica_router.(cp.leader)
      ~target:(target_router cp traffic)
  with
  | None ->
    (match traffic with
    | Push _ | Sweep _ -> s.config_degraded <- s.config_degraded + 1
    | Quorum _ -> ());
    give_up ()
  | Some h ->
    count_leg s ~reply:false traffic;
    let one_way = float_of_int (h + 1) *. cp.link_delay in
    let retry () =
      if attempt < push_max_retries then begin
        count_retry s traffic;
        ignore
          (Dess.Engine.schedule cp.engine ~delay:(backoff_delay ~attempt)
             (fun _ -> again (attempt + 1)))
      end
      else give_up ()
    in
    let lost () =
      count_lost s traffic;
      retry ()
    in
    if cp.net.control_lost () || not (target_up cp traffic) then lost ()
    else begin
      ignore (Dess.Engine.schedule cp.engine ~delay:one_way (fun _ -> arrive ()));
      match reply with
      | None -> ()
      | Some on_reply ->
        count_leg s ~reply:true traffic;
        if cp.net.control_lost () then lost ()
        else
          ignore
            (Dess.Engine.schedule cp.engine ~delay:(2.0 *. one_way) (fun _ ->
                 on_reply retry))
    end

(* ---- Config push -------------------------------------------------- *)

(* A device installs a configuration version: monotone, idempotent
   (duplicate deliveries from retried pushes are harmless).  The
   config store survives crashes — unlike the soft flow state — so a
   recovering box resumes from whatever version it last installed.
   The device side of the install (label purge, heal) is the
   network's. *)
let install_config cp ~dev ~version =
  if version > cp.device_version.(dev) then begin
    cp.device_version.(dev) <- version;
    emit cp (fun () ->
        Audit.Event.Config_install { dev; time = now cp; version });
    cp.net.install ~dev ~version
  end

(* Push one version to one device, acked.  A chain whose version has
   been superseded, or whose device has meanwhile acked, dies
   silently; the reconciliation loop is the backstop once retries are
   exhausted. *)
let rec push_config cp ~dev ~version ~attempt =
  if
    version = cp.latest
    && cp.device_acked.(dev) < version
    && cp.replica_up.(cp.leader)
  then
    let bytes = entity_bytes cp.configs.(version) (entity_of_device cp.dep dev) in
    exchange cp (Push { dev; bytes }) ~attempt
      ~again:(fun attempt -> push_config cp ~dev ~version ~attempt)
      ~give_up:ignore
      ~arrive:(fun () -> install_config cp ~dev ~version)
      ~reply:
        (Some
           (fun _ ->
             if version > cp.device_acked.(dev) then begin
               cp.device_acked.(dev) <- version;
               cp.stats.config_acks <- cp.stats.config_acks + 1
             end))

(* ---- Anti-entropy sweep ------------------------------------------- *)

(* The report half of a sweep visit, back at the controller: a device
   whose installed version trails the latest published one is re-pushed
   — crucially *resetting its ack watermark first*, because a silently
   lost install left the stale ack in place and the ack-driven
   reconciliation loop trusts it. *)
let sweep_reply cp ~dev =
  let v = cp.device_version.(dev) in
  if v < cp.latest && cp.replica_up.(cp.leader) then begin
    if cp.device_acked.(dev) > v then cp.device_acked.(dev) <- v;
    push_config cp ~dev ~version:cp.latest ~attempt:0
  end

(* Visit one device.  The query reaching the device is what triggers
   the local scrub; losing only the report costs the version check,
   not the repair of soft state. *)
let rec sweep_device cp ~dev ~attempt =
  if cp.replica_up.(cp.leader) then
    exchange cp (Sweep dev) ~attempt
      ~again:(fun attempt -> sweep_device cp ~dev ~attempt)
      ~give_up:ignore
      ~arrive:(fun () -> cp.net.sweep_check ~dev)
      ~reply:(Some (fun _ -> sweep_reply cp ~dev))

(* One anti-entropy round: visit every device, then re-arm.  The loop
   keeps ticking through the traffic window and until every registered
   corruption is repaired, with the same generous cap the
   reconciliation loop uses as its safety valve.  The cap counts ticks,
   not rounds: with no live leader no round runs, nothing gets
   repaired, and a cap on rounds would never be reached. *)
let rec sweep_round cp ~period =
  cp.sweep_ticks <- cp.sweep_ticks + 1;
  if cp.replica_up.(cp.leader) then begin
    cp.stats.sweep_rounds <- cp.stats.sweep_rounds + 1;
    for dev = 0 to device_count cp.dep - 1 do
      sweep_device cp ~dev ~attempt:0
    done
  end;
  if
    (now cp < cp.horizon || cp.net.corruption_outstanding ())
    && cp.sweep_ticks < 10_000
  then
    ignore
      (Dess.Engine.schedule cp.engine ~delay:period (fun _ ->
           sweep_round cp ~period))

(* ---- Quorum rounds (replicated controller) ------------------------ *)

let quorum_n cp = Array.length cp.replica_up

(* Publish a committed configuration: append it to the staged window,
   bump the shared version, emit the audit events, and push to every
   device from the leader's router.  Only a quorum commit calls this
   in a run — the single gate into the staged window. *)
let publish cp next =
  cp.configs <- Array.append cp.configs [| next |];
  cp.latest <- cp.latest + 1;
  cp.stats.reoptimizations <- cp.stats.reoptimizations + 1;
  (match cp.audit with
  | None -> ()
  | Some a ->
    Audit.Checker.register_config a ~version:cp.latest next;
    Audit.Checker.record a
      (Audit.Event.Config_publish { time = now cp; version = cp.latest }));
  for dev = 0 to device_count cp.dep - 1 do
    push_config cp ~dev ~version:cp.latest ~attempt:0
  done

(* Spread a commit to one standby replica.  [Acceptor.commit] is
   idempotent, so duplicates from retries are harmless; a partitioned
   or crashed standby simply stays at its last-known-good commit until
   the reconciliation of a later round reaches it. *)
let rec commit_notice cp ~replica ~version ~digest ~attempt =
  let behind () = Quorum.Acceptor.committed cp.acceptors.(replica) < version in
  if cp.replica_up.(cp.leader) && behind () then
    exchange cp (Quorum replica) ~attempt
      ~again:(fun attempt ->
        commit_notice cp ~replica ~version ~digest ~attempt)
      ~give_up:ignore
      ~arrive:(fun () ->
        if cp.replica_up.(replica) && behind () then
          match Quorum.Acceptor.commit cp.acceptors.(replica) ~version ~digest with
          | Ok () ->
            emit cp (fun () ->
                Audit.Event.Quorum_commit
                  { time = now cp; version; replica; digest })
          | Error _ -> ())
      ~reply:None

(* Commit as soon as the votes form a quorum: the leader commits its
   own acceptor, publishes the pending candidate, and spreads the
   commit to the standbys.  With one replica this runs synchronously
   inside the proposal — no quorum traffic ever hits the wire. *)
let maybe_commit cp r =
  if Quorum.Round.outcome r = Quorum.Round.Pending && Quorum.Round.has_quorum r
  then begin
    Quorum.Round.mark_committed r;
    let version = Quorum.Round.version r in
    let digest = Quorum.Round.digest r in
    cp.stats.quorum_commits <- cp.stats.quorum_commits + 1;
    ignore (Quorum.Acceptor.commit cp.acceptors.(cp.leader) ~version ~digest);
    emit cp (fun () ->
        Audit.Event.Quorum_commit
          { time = now cp; version; replica = cp.leader; digest });
    (match cp.pending with
    | Some next ->
      cp.pending <- None;
      publish cp next
    | None -> ());
    for i = 0 to quorum_n cp - 1 do
      if i <> cp.leader then
        commit_notice cp ~replica:i ~version ~digest ~attempt:0
    done
  end

(* The minority-side rule: once the reachable votes can no longer form
   a quorum, the round is dead and the candidate is discarded — the
   control plane refuses to publish and degrades to last-known-good. *)
let abandon_if_dead cp r =
  if
    Quorum.Round.outcome r = Quorum.Round.Pending
    && not (Quorum.Round.can_reach_quorum r)
  then begin
    Quorum.Round.mark_abandoned r;
    cp.stats.quorum_aborts <- cp.stats.quorum_aborts + 1;
    cp.stats.config_degraded <- cp.stats.config_degraded + 1;
    cp.pending <- None
  end

(* Propose the round's candidate to one standby acceptor: proposal out,
   vote back.  A refusal, a partition or exhausted retries loses this
   acceptor's vote for the round — the only message whose giving up
   does anything. *)
let rec propose_to cp r ~replica ~attempt =
  if Quorum.Round.outcome r = Quorum.Round.Pending && cp.replica_up.(cp.leader)
  then begin
    let version = Quorum.Round.version r in
    let digest = Quorum.Round.digest r in
    let lose_vote () =
      Quorum.Round.fail r ~acceptor:replica;
      abandon_if_dead cp r
    in
    let verdict = ref None in
    exchange cp (Quorum replica) ~attempt
      ~again:(fun attempt -> propose_to cp r ~replica ~attempt)
      ~give_up:lose_vote
      ~arrive:(fun () ->
        if cp.replica_up.(replica) then begin
          let v = Quorum.Acceptor.receive cp.acceptors.(replica) ~version ~digest in
          (match v with
          | Quorum.Acceptor.Accept ->
            emit cp (fun () ->
                Audit.Event.Quorum_accept
                  { time = now cp; version; replica; digest })
          | Repeat | Stale | Conflict -> ());
          verdict := Some v
        end)
      ~reply:
        (Some
           (fun retry ->
             match !verdict with
             | Some (Quorum.Acceptor.Accept | Quorum.Acceptor.Repeat)
               when Quorum.Round.outcome r = Quorum.Round.Pending ->
               Quorum.Round.accept r ~acceptor:replica;
               maybe_commit cp r
             | Some (Quorum.Acceptor.Stale | Quorum.Acceptor.Conflict) ->
               lose_vote ()
             | None ->
               (* the replica crashed while the proposal was in flight —
                  no vote will come; keep retrying *)
               retry ()
             | Some _ -> ()))
  end

(* ---- Re-optimization, re-election, reconciliation ----------------- *)

(* Re-optimize from what the run has measured: rebuild candidate sets
   around the believed-failed boxes, re-solve the LP over the in-run
   traffic matrix, and submit the result to a quorum round — the
   candidate is published as a new version only once a quorum of
   replicas accepted it, and only after Verify certified both the new
   configuration alone and every reachable version mix with the
   still-installed previous one.  A failed solve, a verification veto,
   or a dead round keeps the last-known-good configuration (graceful
   degradation, counted). *)
let reoptimize cp =
  let s = cp.stats in
  if cp.replica_up.(cp.leader) then begin
    let failed = cp.net.believed_failed () in
    let current = cp.configs.(cp.latest) in
    match
      Sdm.Controller.reoptimize current ~failed
        ~use_warm:cp.lcfg.warm_start ~traffic:cp.meas ()
    with
    | Error _ -> s.config_degraded <- s.config_degraded + 1
    | Ok next -> (
      (* Solver-work accounting happens whether or not verification or
         the quorum later vetoes the plan — the pivots were spent. *)
      (match next.Sdm.Controller.lp with
      | Some lp ->
        s.reopt_pivots <- s.reopt_pivots + lp.Sdm.Lp_formulation.lp_pivots;
        s.reopt_phase1_pivots <-
          s.reopt_phase1_pivots + lp.Sdm.Lp_formulation.lp_phase1_pivots;
        if lp.Sdm.Lp_formulation.lp_warm_used then
          s.reopt_warm_used <- s.reopt_warm_used + 1;
        if lp.Sdm.Lp_formulation.lp_fallback then
          s.reopt_fallback <- s.reopt_fallback + 1
      | None -> ());
      match
        match Sdm.Verify.check next with
        | Error _ as e -> e
        | Ok () -> Sdm.Verify.check_window [ current; next ]
      with
      | Error _ -> s.config_degraded <- s.config_degraded + 1
      | Ok () ->
        (* A fresher candidate supersedes any round still in flight. *)
        (match cp.round with
        | Some r when Quorum.Round.outcome r = Quorum.Round.Pending ->
          Quorum.Round.mark_abandoned r;
          s.quorum_aborts <- s.quorum_aborts + 1
        | _ -> ());
        let version = cp.latest + 1 in
        (* Structural digest of the candidate, salted with the version
           so re-proposals of distinct candidates under one version
           number stay distinguishable to the auditor. *)
        let digest =
          Int64.logxor
            (Sdm.Controller.fingerprint next)
            (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int version))
        in
        let r = Quorum.Round.start ~n:(quorum_n cp) ~version ~digest in
        cp.round <- Some r;
        cp.pending <- Some next;
        s.quorum_rounds <- s.quorum_rounds + 1;
        emit cp (fun () ->
            Audit.Event.Quorum_propose
              { time = now cp; version; replica = cp.leader; digest });
        (* The leader votes for its own proposal locally — no message,
           no loss draw. *)
        (match
           Quorum.Acceptor.receive cp.acceptors.(cp.leader) ~version ~digest
         with
        | Quorum.Acceptor.Accept ->
          Quorum.Round.accept r ~acceptor:cp.leader;
          emit cp (fun () ->
              Audit.Event.Quorum_accept
                { time = now cp; version; replica = cp.leader; digest })
        | Repeat -> Quorum.Round.accept r ~acceptor:cp.leader
        | Stale | Conflict -> Quorum.Round.fail r ~acceptor:cp.leader);
        maybe_commit cp r;
        if Quorum.Round.outcome r = Quorum.Round.Pending then
          for i = 0 to quorum_n cp - 1 do
            if i <> cp.leader then propose_to cp r ~replica:i ~attempt:0
          done)
  end

(* A detection delay after a controller crash: if the dead replica led,
   the lowest-id live replica takes over — deterministic re-election —
   and immediately re-optimizes, re-doing whatever in-flight work died
   with the old leader. *)
let handle_ctrl_crash cp crashed =
  if cp.leader = crashed && not cp.replica_up.(crashed) then begin
    let n = quorum_n cp in
    let rec first i =
      if i >= n then None
      else if cp.replica_up.(i) then Some i
      else first (i + 1)
    in
    match first 0 with
    | None -> () (* total control-plane outage: devices keep running *)
    | Some nl ->
      let prev = cp.leader in
      cp.leader <- nl;
      cp.stats.leader_changes <- cp.stats.leader_changes + 1;
      emit cp (fun () ->
          Audit.Event.Leader_elect { time = now cp; replica = nl; previous = prev });
      if Sdm.Measurement.total cp.meas > 0.0 then reoptimize cp
  end

(* The reconciliation loop: periodically re-push the latest version to
   every device whose ack is missing, however its retry chain died
   (loss burst, crash window, partition).  Keeps ticking through the
   traffic window and until every device has acked, with a generous
   round cap as the safety valve against a permanently partitioned
   device. *)
let rec reconcile cp =
  cp.reconcile_rounds <- cp.reconcile_rounds + 1;
  let stale = ref false in
  Array.iteri
    (fun dev acked ->
      if acked < cp.latest then begin
        stale := true;
        push_config cp ~dev ~version:cp.latest ~attempt:0
      end)
    cp.device_acked;
  if (!stale || now cp < cp.horizon) && cp.reconcile_rounds < 10_000 then
    ignore
      (Dess.Engine.schedule cp.engine ~delay:cp.lcfg.reconcile_interval
         (fun _ -> reconcile cp))

(* Arm the loops once the traffic is scheduled: epoch re-optimizations
   across the traffic window, the reconciliation heartbeat, and the
   anti-entropy sweep ([None] arms nothing — no events, no draws). *)
let start cp ~horizon =
  cp.horizon <- horizon;
  let rec epochs k =
    let t = float_of_int k *. cp.lcfg.epoch_interval in
    if t <= horizon then begin
      ignore
        (Dess.Engine.schedule_at cp.engine ~time:t (fun _ ->
             (* Nothing measured yet means nothing to re-optimize
                from; failure reactions have their own trigger. *)
             if Sdm.Measurement.total cp.meas > 0.0 then reoptimize cp));
      epochs (k + 1)
    end
  in
  epochs 1;
  ignore
    (Dess.Engine.schedule_at cp.engine ~time:cp.lcfg.reconcile_interval
       (fun _ -> reconcile cp));
  match cp.lcfg.sweep_period with
  | None -> ()
  | Some p ->
    ignore
      (Dess.Engine.schedule_at cp.engine ~time:p (fun _ ->
           sweep_round cp ~period:p))
