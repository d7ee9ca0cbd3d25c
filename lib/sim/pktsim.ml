include Pktsim_types

let default_live =
  {
    epoch_interval = 25.0;
    reconcile_interval = 5.0;
    replicas = 1;
    sweep_period = None;
    warm_start = false;
  }

(* Model constants no experiment varies. *)
let link_delay = 0.1 (* per router hop *)
let cache_timeout = 1e9 (* flow-cache soft state never expires *)
let ctrl_retry_timeout = 5.0 (* label-control retransmission timer *)
let ctrl_max_retries = 3 (* label-control retransmissions per message *)

type config = {
  label_switching : bool;
  packet_interval : float;
  start_window : float;
  seed : int;
  service_rate : float;
  wp_cache_hit_ratio : float;
  cache_capacity : int option;
  faults : Fault.Schedule.t option;
  detection_delay : float;
  failover : bool;
  live : live_config option;
  audit : bool;
  debug_bypass_chain : int option;
}

let default_config =
  {
    label_switching = true;
    packet_interval = 1.0;
    start_window = 50.0;
    seed = 99;
    service_rate = infinity;
    wp_cache_hit_ratio = 0.0;
    cache_capacity = None;
    faults = None;
    detection_delay = 10.0;
    failover = true;
    live = None;
    audit = false;
    debug_bypass_chain = None;
  }

(* Messages on the wire: ordinary data packets, or the control packet
   the chain's last middlebox sends back to the proxy (Sec. III.E).
   One data message per injected packet travels every leg (each leg
   replaces its [pkt]), carrying the packet's audit identity (the
   injected-packet counter at admission). *)
type msg =
  | Data of { mutable pkt : Netpkt.Packet.t; born : float; aid : int }
  | Control of { dst : Netpkt.Addr.t; flow : Netpkt.Flow.t }
  | Teardown of { dst : Netpkt.Addr.t; label : int }
      (* a label-switched path lost its entry downstream (crash-wiped
         or corrupted): the proxy must fall back to IP-over-IP and
         re-establish *)

(* Where a destination address lives: the attachment router plus the
   endpoint to hand the message to on arrival. *)
type endpoint = To_subnet of int | To_mbox of int

(* A segment arrival in flight: the slot's engine action, built once,
   delivers whatever the slot holds.  Delivered slots are reused. *)
type slot = { mutable msg : msg; mutable ep : endpoint; act : Dess.Engine.t -> unit }
type transit = { mutable free : slot array; mutable n_free : int }

(* One injected corruption, tracked from injection to repair so the
   repair-window statistics and the audit's Repair invariant have
   ground truth to measure against. *)
type corruption_record = {
  cr_cid : int;
  cr_dev : int;  (* device owning the corrupted state, flat indexing *)
  cr_kind : Audit.Event.corrupt_kind;
  cr_site : Audit.Event.corrupt_site;
  cr_injected_at : float;
  mutable cr_manifested : bool;
  mutable cr_repaired : bool;
}

(* Armed only when the schedule carries corruption events.  The RNG is
   a derived child of the loss seed — a fresh stream, so arming the
   machinery never perturbs the loss draws of a corruption-free run.
   The site tables index live (unrepaired) corruptions by where a
   data-path lookup would trip over them; [graveyard] keeps the entries
   each install purged, which is what [Stale_resurrect] re-installs. *)
type corrupt_state = {
  crng : Stdx.Rng.t;
  mutable next_cid : int;
  records : (int, corruption_record) Hashtbl.t;
  label_sites : (int * Netpkt.Addr.t * int, int) Hashtbl.t;
  cache_sites : (int * Netpkt.Flow.t, int) Hashtbl.t;
  config_sites : (int, int) Hashtbl.t;
  graveyard : (Mbox.Label_table.key * Mbox.Label_table.entry) list array;
  want_graveyard : bool;
  mutable repair_sum : float; (* summed inject-to-repair windows *)
}

(* Live fault machinery for a run with a schedule: the ground-truth /
   believed-state failure detector, the RNG behind the loss draws, and
   (only when links fail mid-run) the OSPF session whose reconverged
   tables replace the world's on every topology change. *)
type fault_state = {
  detector : Fault.Detector.t;
  alive : (int -> bool) option; (* the detector's belief, for failover *)
  schedule : Fault.Schedule.t;
  loss_rng : Stdx.Rng.t;
  session : Ospf.Session.t option;
  corrupt : corrupt_state option;
}

type world = {
  cfg : config;
  controller : Sdm.Controller.t;
  dep : Sdm.Deployment.t;
  engine : Dess.Engine.t;
  mutable tables : Netgraph.Routing.table array;
  fault : fault_state option;
  mutable live : Controlplane.t option; (* set once, right after creation *)
  (* The run's counters.  Per-device control-channel accounting is
     maintained for static runs too: label establishment/teardown
     retransmissions are attributed to the sending middlebox, config
     pushes to the target device. *)
  stats : stats;
  latencies : Stdx.Fvec.t; (* delivered-packet end-to-end times *)
  busy_until : float array; (* per-middlebox FIFO server horizon *)
  loads : float array;
  (* Per-proxy and per-middlebox soft state. *)
  proxy_caches : Policy.Flow_cache.t array;
  proxy_match : Policy.Matcher.t array;
  mutable_label : int array; (* next label per proxy *)
  (* reverse index: label -> flow, so a teardown (which carries only
     src|label) can find the proxy's flow-cache entry; flat-keyed on
     (label, 0) so installs on the first-packet path stay cheap *)
  proxy_label_index : Netpkt.Flow.t Stdx.Flat_table.t array;
  mbox_caches : Policy.Flow_cache.t array;
  mbox_match : Policy.Matcher.t array;
  mbox_labels : Mbox.Label_table.t array;
  proxy_entity : Mbox.Entity.t array; (* built once, not per decision *)
  mbox_entity : Mbox.Entity.t array;
  (* Address resolution, memoized per address (middleboxes up front;
     stub subnets via the deployment's prefix index on first sight). *)
  endpoints : (int * endpoint) option Stdx.Flat_table.t;
  transit : transit;
  rule_by_id : (int, Policy.Rule.t) Hashtbl.t;
  (* Online invariant auditor (None unless [config.audit]).  Emission
     is a pure side-channel: no randomness, no engine work, no float
     arithmetic the data path sees — an audited run is bit-identical
     to an unaudited one in every other statistic. *)
  audit : Audit.Checker.t option;
}

(* ---- Fault plumbing --------------------------------------------- *)

(* A packet of an enforced flow escaped its middlebox chain — the
   dependability metric ABL-CHAOS sweeps. *)
let policy_violation w =
  w.stats.policy_violations <- w.stats.policy_violations + 1;
  w.stats.last_violation_time <- Dess.Engine.now w.engine

let bump counts i = counts.(i) <- counts.(i) + 1

let mbox_is_down w id =
  match w.fault with
  | Some f -> not (Fault.Detector.actually_up f.detector id)
  | None -> false

(* ---- Audit emission ---------------------------------------------- *)

(* Sites are guarded, [if auditing w then record w ev], so an unaudited
   run builds no event — nor a thunk, which would capture the site's
   variables and be allocated on every call. *)
let auditing w = match w.audit with None -> false | Some _ -> true

let record w ev =
  match w.audit with None -> () | Some a -> Audit.Checker.record a ev

let msg_aid = function
  | Data { aid; _ } -> aid
  | Control _ | Teardown _ -> -1 (* control traffic: counted, not traced *)

(* ---- Silent-corruption bookkeeping ------------------------------- *)

let corrupt_of w =
  match w.fault with Some { corrupt; _ } -> corrupt | None -> None

(* The Repair invariant's bound: a corruption must be repaired within
   two sweep periods of injection (one period to be visited, one for
   the lossy query/reply/re-push ladder).  No sweep, no bound. *)
let repair_deadline w ~now =
  match w.cfg.live with
  | Some { sweep_period = Some p; _ } -> now +. (2.0 *. p)
  | _ -> infinity

(* Register one injected corruption and announce the ground truth to
   the auditor, which arms its Repair invariant on the first one. *)
let register_corruption w cs ~dev ~kind ~site =
  let cid = cs.next_cid in
  cs.next_cid <- cid + 1;
  let now = Dess.Engine.now w.engine in
  Hashtbl.replace cs.records cid
    { cr_cid = cid; cr_dev = dev; cr_kind = kind; cr_site = site;
      cr_injected_at = now; cr_manifested = false; cr_repaired = false };
  (match site with
  | Audit.Event.Label_site { mbox; src; label } ->
    Hashtbl.replace cs.label_sites (mbox, src, label) cid
  | Audit.Event.Cache_site { proxy; flow } ->
    Hashtbl.replace cs.cache_sites (proxy, flow) cid
  | Audit.Event.Config_site { dev } -> Hashtbl.replace cs.config_sites dev cid);
  w.stats.corruptions_injected <- w.stats.corruptions_injected + 1;
  if auditing w then
    record w
      (Audit.Event.Corrupt_inject
         { time = now; cid; kind; site; deadline = repair_deadline w ~now })

(* The corrupted state just influenced the data plane.  The distinct-
   corruption counter advances once; packet-scoped manifestations are
   announced every time so the auditor can excuse each hit packet's
   chain ([aid] = -1 for decision-scoped ones, announced once). *)
let manifest_corruption w cs ~cid ~aid =
  match Hashtbl.find_opt cs.records cid with
  | None -> ()
  | Some r ->
    let first = not r.cr_manifested in
    if first then begin
      r.cr_manifested <- true;
      w.stats.corruptions_manifested <- w.stats.corruptions_manifested + 1
    end;
    if (aid >= 0 || first) && auditing w then
      record w
        (Audit.Event.Corrupt_manifest
           { time = Dess.Engine.now w.engine; cid; aid })

(* Mark one corruption repaired: record the inject-to-repair window,
   retire its site (later lookups there see clean state) and announce
   the repair.  Idempotent — a corruption repairs at most once. *)
let resolve_corruption w cs ~dev ~action r =
  if not r.cr_repaired then begin
    r.cr_repaired <- true;
    let now = Dess.Engine.now w.engine in
    let window = now -. r.cr_injected_at in
    w.stats.corruptions_repaired <- w.stats.corruptions_repaired + 1;
    cs.repair_sum <- cs.repair_sum +. window;
    if window > w.stats.repair_window_max then
      w.stats.repair_window_max <- window;
    (match r.cr_site with
    | Audit.Event.Label_site { mbox; src; label } ->
      Hashtbl.remove cs.label_sites (mbox, src, label)
    | Audit.Event.Cache_site { proxy; flow } ->
      Hashtbl.remove cs.cache_sites (proxy, flow)
    | Audit.Event.Config_site { dev } -> Hashtbl.remove cs.config_sites dev);
    if auditing w then
      record w
        (Audit.Event.Corrupt_repair { time = now; cid = r.cr_cid; dev; action })
  end

let resolve_cid w cs ~cid ~dev ~action =
  match Hashtbl.find_opt cs.records cid with
  | None -> ()
  | Some r -> resolve_corruption w cs ~dev ~action r

(* The liveness view a steering decision saw: the signature of the
   believed-failed set when failover consults the detector, 0 when no
   liveness filtering applies (the stickiness invariant holds per
   view). *)
let steer_view w =
  match w.fault with
  | Some f when w.cfg.failover ->
    Fault.Detector.belief_signature f.detector ~now:(Dess.Engine.now w.engine)
  | _ -> 0L

let installed_version w entity =
  match w.live with
  | None -> 0
  | Some ls ->
    ls.Controlplane.device_version.(Controlplane.device_of_entity w.dep entity)

(* A steering decision at a device whose config install was silently
   lost runs under regressed weights: that is the lost install
   manifesting.  Not a policy violation — regression by exactly one
   version stays inside the certified staged window — but the Repair
   invariant starts its clock. *)
let note_config_use w entity =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match
      Hashtbl.find_opt cs.config_sites (Controlplane.device_of_entity w.dep entity)
    with
    | Some cid -> manifest_corruption w cs ~cid ~aid:(-1)
    | None -> ())

(* A legitimate label insert overwriting a corrupted entry replaces it
   with freshly certified state: the corruption is gone before the
   sweep ever saw it.  Count that as a (free) repair so the registry
   stays honest and later hits at the site are not misread as
   manifestations. *)
let note_label_overwrite w ~mbox ~src ~label =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid ->
      resolve_cid w cs ~cid ~dev:(Controlplane.device_of_mbox w.dep mbox)
        ~action:Audit.Event.Rebased
    | None -> ())

(* A label-switched packet matched a corrupted (mis-steering or
   resurrected) entry: it is now travelling somewhere the current
   configuration never certified.  That is both a manifestation and a
   policy violation. *)
let note_label_hit w ~mbox ~src ~label ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid ->
      manifest_corruption w cs ~cid ~aid;
      policy_violation w
    | None -> ())

(* A label miss at the site of a silently dropped entry: the packet of
   an established path is lost unenforced, a policy violation.  A miss
   anywhere else (a table a crash wiped) is a plain drop plus a
   teardown. *)
let note_label_miss w ~mbox ~src ~label ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid -> (
      match Hashtbl.find_opt cs.records cid with
      | Some r when r.cr_kind = Audit.Event.Lost_entry ->
        manifest_corruption w cs ~cid ~aid;
        policy_violation w
      | Some _ | None -> ())
    | None -> ())

(* A proxy admission decided from a poisoned cache entry: the packet
   bypasses (or short-circuits) the chain its policy demands. *)
let note_cache_bypass w ~proxy ~flow ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.cache_sites (proxy, flow) with
    | Some cid ->
      manifest_corruption w cs ~cid ~aid;
      policy_violation w
    | None -> ())

(* The configuration an entity decides with: its installed version —
   or, when the decision belongs to a flow admitted under an older
   version, the admitting version clamped into the staged adjacent
   window {installed-1, installed}.  Clamping keeps in-flight flows
   sticky to the weights that admitted them for exactly one update
   boundary; beyond that the flow is re-steered under newer weights
   (its stale label entries have been purged by then).  A middlebox's
   own decisions have no admitting version: [unadmitted]. *)
let unadmitted = max_int

let decision_version w ~admitted entity =
  let inst = installed_version w entity in
  if admitted < inst then Stdlib.max admitted (inst - 1) else inst

let decision_controller w ~admitted entity =
  match w.live with
  | None -> w.controller
  | Some ls -> ls.Controlplane.configs.(decision_version w ~admitted entity)

exception No_live_candidate

(* Steering decision under faults: with failover on, entities consult
   the failure detector's (delayed) view; with it off they keep using
   the static configuration.  The no-fault path calls the raising
   variant directly — candidate sets are non-empty by construction, so
   it cannot raise, and it skips all liveness filtering.  Raises
   [No_live_candidate] when every candidate is believed dead. *)
let controller_next_hop w ~admitted entity ~rule ~nf flow =
  note_config_use w entity;
  let c = decision_controller w ~admitted entity in
  match w.fault with
  | None -> Sdm.Controller.next_hop c entity ~rule ~nf flow
  | Some f -> (
    match Sdm.Controller.next_hop_result ?alive:f.alive c entity ~rule ~nf flow with
    | Ok m -> m
    | Error `No_live_candidate -> raise_notrace No_live_candidate)

(* Traffic measurement feeding re-optimization: each enforced packet a
   proxy admits adds one unit at its (source, destination, rule) cell,
   the granularity the Eq. (2) LP consumes. *)
let note_traffic w (fs : Workload.flow_spec) ~rule_id =
  match w.live with
  | None -> ()
  | Some ls ->
    Sdm.Measurement.add ls.Controlplane.meas ~src:fs.Workload.src_proxy
      ~dst:fs.Workload.dst_proxy ~rule:rule_id 1.0

(* One Bernoulli draw per data packet per link crossed; control-packet
   loss is modelled at transmission granularity in [send_control]. *)
let link_lost w msg =
  match (w.fault, msg) with
  | Some f, Data _ when f.schedule.Fault.Schedule.link_loss > 0.0 ->
    Stdx.Rng.float f.loss_rng 1.0 < f.schedule.Fault.Schedule.link_loss
  | _ -> false

(* One Bernoulli draw per control-plane transmission (label control and
   config pushes alike share the channel and the loss process). *)
let control_loss_draw w =
  match w.fault with
  | Some f when f.schedule.Fault.Schedule.control_loss > 0.0 ->
    Stdx.Rng.float f.loss_rng 1.0 < f.schedule.Fault.Schedule.control_loss
  | _ -> false

(* A message dies on the data path: counted, and announced to the
   auditor ([aid] = -1 for control traffic). *)
let drop w ~aid reason =
  w.stats.dropped_packets <- w.stats.dropped_packets + 1;
  if auditing w then
    record w (Audit.Event.Dropped { aid; time = Dess.Engine.now w.engine; reason })

let drop_to_fault w ~aid reason =
  w.stats.fault_dropped <- w.stats.fault_dropped + 1;
  drop w ~aid reason

let resolve w addr =
  let d = Stdx.Flat_table.find_slot w.endpoints addr 0 in
  if d >= 0 then Stdx.Flat_table.value w.endpoints d
  else begin
    let r =
      match Sdm.Deployment.proxy_of_addr w.dep addr with
      | Some p -> Some (p.Mbox.Proxy.router, To_subnet p.Mbox.Proxy.id)
      | None -> None
    in
    Stdx.Flat_table.replace w.endpoints addr 0 r;
    r
  end

let msg_dst = function
  | Data { pkt; _ } -> pkt.Netpkt.Packet.header.Netpkt.Header.dst
  | Control { dst; _ } -> dst
  | Teardown { dst; _ } -> dst

(* Count the fragments a data packet would shatter into when it first
   hits a link; the logical packet keeps travelling whole (tunnel
   endpoints would reassemble anyway), only the statistic records the
   overhead label switching exists to avoid. *)
let note_fragments w = function
  | Data { pkt; aid; _ } ->
    let extra =
      Netpkt.Fragment.count ~mtu:Netpkt.Fragment.default_mtu
        (Netpkt.Packet.size pkt)
      - 1
    in
    w.stats.fragments_created <- w.stats.fragments_created + extra;
    if extra > 0 && auditing w then
      record w (Audit.Event.Fragmented { aid; time = Dess.Engine.now w.engine; extra })
  | Control _ | Teardown _ -> ()

(* Figure 3: a web proxy holding the requested page "honors" the
   request — the packet stops here and a response goes back, skipping
   the rest of the chain and the origin server.  The decision must be
   per-flow sticky across tunnelled and label-switched packets, so it
   hashes the fields both forms share: source address and label when
   present, the full 5-tuple otherwise.  Only a run with a positive
   hit ratio, at a WP box, computes the hash. *)
let wp_caching w (mb : Mbox.Middlebox.t) =
  w.cfg.wp_cache_hit_ratio > 0.0
  && Policy.Action.equal_nf mb.Mbox.Middlebox.nf Policy.Action.WP

let wp_label_key ~src l = Stdx.Xhash.combine3 src l 0x77AC

let wp_serves_from_cache w key =
  Stdx.Xhash.to_unit_interval key < w.cfg.wp_cache_hit_ratio

(* The cached response: modelled as immediate delivery back to the
   client (the reverse path carries no policy work in our classes). *)
let serve_from_cache w ~born ~aid ~mbox =
  w.stats.wp_cache_served <- w.stats.wp_cache_served + 1;
  w.stats.delivered_packets <- w.stats.delivered_packets + 1;
  Stdx.Fvec.push w.latencies (Dess.Engine.now w.engine -. born);
  if auditing w then
    record w (Audit.Event.Wp_served { aid; time = Dess.Engine.now w.engine; mbox })

(* Every candidate for the next function is believed dead: degrade
   gracefully by dropping just this packet instead of aborting the
   run. *)
let drop_no_candidate w ~aid =
  drop w ~aid Audit.Event.No_candidate;
  policy_violation w

let audit_enforced w ~aid (mb : Mbox.Middlebox.t) =
  if auditing w then
    record w
      (Audit.Event.Enforced
         { aid; time = Dess.Engine.now w.engine; mbox = mb.id; nf = mb.nf })

let audit_steered w ~aid ~entity ~admitted ~rule_id ~nf (y : Mbox.Middlebox.t) =
  if auditing w then
    record w
      (Audit.Event.Steered
         { aid; time = Dess.Engine.now w.engine; entity; rule_id; nf;
           version = decision_version w ~admitted entity; view = steer_view w;
           mbox = y.Mbox.Middlebox.id })

(* Middlebox [id] stores a label-switched path's entry under its
   installed configuration version. *)
let insert_label w id ~src ~label ~actions ~next ~final_dst =
  note_label_overwrite w ~mbox:id ~src ~label;
  let version = installed_version w w.mbox_entity.(id) in
  Mbox.Label_table.insert w.mbox_labels.(id) ~now:(Dess.Engine.now w.engine)
    ~version { Mbox.Label_table.src; label } ~actions ~next ~final_dst;
  if auditing w then
    record w
      (Audit.Event.Label_insert
         { mbox = id; time = Dess.Engine.now w.engine; src; label; version })

(* The cache entry classifying a tunnelled flow at a middlebox: flow
   cache first, then the local policy table (Sec. III.D applies to
   middleboxes too); negative when no rule matches. *)
let mbox_classify w id flow =
  let now = Dess.Engine.now w.engine in
  let cache = w.mbox_caches.(id) in
  match Policy.Flow_cache.lookup cache ~now flow with
  | Some ({ actions = Some _; _ } as hit) ->
    w.stats.cache_hits <- w.stats.cache_hits + 1;
    hit
  | Some ({ actions = None; _ } as negative) ->
    w.stats.cache_negative_hits <- w.stats.cache_negative_hits + 1;
    negative
  | None -> (
    w.stats.multi_field_lookups <- w.stats.multi_field_lookups + 1;
    match Policy.Matcher.first_match w.mbox_match.(id) flow with
    | None -> Policy.Flow_cache.insert_negative cache ~now flow
    | Some rule ->
      Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
        ~actions:rule.Policy.Rule.actions ())

(* Hop fast-forwarding: the routers between two policy decision points
   are policy-oblivious and their tables are fixed between topology
   changes, so transit is fully deterministic.  Instead of paying one
   event-queue cycle per router hop, walk the tables inline here and
   schedule a single arrival event at the segment's endpoint.  The
   arrival time accumulates [link_delay] by repeated addition — the
   same float operations the per-hop event cascade performed — so every
   timestamp, and hence every statistic, is bit-identical to per-hop
   execution. *)
let rec send w ~from_router msg =
  note_fragments w msg;
  match resolve w (msg_dst msg) with
  | None -> drop w ~aid:(msg_aid msg) Audit.Event.Unroutable
  | Some (target, endpoint) ->
    (* Walk to the target, a table hole (unroutable) or a lost link —
       as a loop, so no closure and no boxed [time]. *)
    let router = ref from_router and time = ref (Dess.Engine.now w.engine) in
    while
      !router <> target && w.tables.(!router).(target) >= 0 && not (link_lost w msg)
    do
      w.stats.router_hops <- w.stats.router_hops + 1;
      router := w.tables.(!router).(target);
      time := !time +. link_delay
    done;
    if !router <> target && w.tables.(!router).(target) < 0 then
      drop w ~aid:(msg_aid msg) Audit.Event.Unroutable
    else if !router <> target || link_lost w msg then
      drop_to_fault w ~aid:(msg_aid msg) Audit.Event.Link_loss
    else arrive_at w ~time:(!time +. link_delay) endpoint msg

(* A data message's next leg: the same message, carrying [pkt]. *)
and forward w ~from_router msg pkt =
  (match msg with Data d -> d.pkt <- pkt | Control _ | Teardown _ -> ());
  send w ~from_router msg

and arrive_at w ~time ep msg =
  let t = w.transit in
  let s =
    if t.n_free = 0 then
      let rec s = { msg; ep; act = (fun _ -> arrive w s) } in
      s
    else begin
      t.n_free <- t.n_free - 1;
      let s = t.free.(t.n_free) in
      s.msg <- msg;
      s.ep <- ep;
      s
    end
  in
  ignore (Dess.Engine.schedule_at w.engine ~time s.act)

and arrive w s =
  let t = w.transit and msg = s.msg and ep = s.ep in
  if t.n_free = Array.length t.free then
    t.free <- Array.append t.free (Array.make (Stdlib.max 16 t.n_free) s);
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1;
  deliver w ep msg

(* Control-plane reliability (Sec. III.E under faults): label
   establishment and teardown notifications are retransmitted on a
   timer until acknowledged or out of retries.  The retransmission is
   modelled as firing only when the transmission was actually lost —
   receivers are idempotent, so suppressing the redundant duplicates a
   real timer would generate is observationally equivalent. *)
and send_control w ~from_router ~sender msg =
  control_attempt w ~from_router ~sender ~retries_left:ctrl_max_retries
    msg

and control_attempt w ~from_router ~sender ~retries_left msg =
  let lost = control_loss_draw w in
  if not lost then send w ~from_router msg
  else begin
    w.stats.control_lost <- w.stats.control_lost + 1;
    bump w.stats.entity_control_lost sender;
    if retries_left > 0 then begin
      w.stats.control_retries <- w.stats.control_retries + 1;
      bump w.stats.entity_control_retries sender;
      ignore
        (Dess.Engine.schedule w.engine ~delay:ctrl_retry_timeout (fun _ ->
             control_attempt w ~from_router ~sender
               ~retries_left:(retries_left - 1) msg))
    end
  end

and deliver w endpoint msg =
  match (endpoint, msg) with
  | To_subnet _, Data { pkt; born; aid } ->
    (* Arrived in its stub network.  Encapsulated packets must not
       reach subnets; plain ones are final deliveries. *)
    if Netpkt.Packet.is_encapsulated pkt then
      drop w ~aid Audit.Event.Encap_at_subnet
    else begin
      w.stats.delivered_packets <- w.stats.delivered_packets + 1;
      Stdx.Fvec.push w.latencies (Dess.Engine.now w.engine -. born);
      if auditing w then
        record w
          (Audit.Event.Delivered
             { aid; time = Dess.Engine.now w.engine; bytes = Netpkt.Packet.size pkt })
    end
  | To_subnet proxy_id, Control { flow; _ } ->
    w.stats.control_packets <- w.stats.control_packets + 1;
    ignore (Policy.Flow_cache.mark_ls_ready w.proxy_caches.(proxy_id) flow);
    if auditing w then
      record w
        (Audit.Event.Ls_confirm
           { proxy = proxy_id; time = Dess.Engine.now w.engine; flow })
  | To_subnet proxy_id, Teardown { label; _ } -> (
    (* A downstream label entry is gone: drop back to IP-over-IP until
       a fresh first packet re-establishes the path. *)
    w.stats.teardowns <- w.stats.teardowns + 1;
    if auditing w then
      record w
        (Audit.Event.Ls_teardown
           { proxy = proxy_id; time = Dess.Engine.now w.engine; label });
    match Stdx.Flat_table.find w.proxy_label_index.(proxy_id) label 0 with
    | None -> ()
    | Some flow -> (
      let now = Dess.Engine.now w.engine in
      match Policy.Flow_cache.lookup w.proxy_caches.(proxy_id) ~now flow with
      | Some entry -> entry.Policy.Flow_cache.ls_ready <- false
      | None -> ()))
  | To_mbox id, Data { pkt; born; aid } ->
    (* FIFO service: a busy middlebox queues the packet; the wait is
       end-to-end latency, which is how overload becomes visible. *)
    if w.cfg.service_rate = infinity then
      mbox_receive w id msg ~pkt ~born ~aid
    else begin
      let now = Dess.Engine.now w.engine in
      let start = Stdlib.max now w.busy_until.(id) in
      let depart = start +. (1.0 /. w.cfg.service_rate) in
      w.busy_until.(id) <- depart;
      ignore
        (Dess.Engine.schedule_at w.engine ~time:depart (fun _ ->
             mbox_receive w id msg ~pkt ~born ~aid))
    end
  | To_mbox _, (Control _ | Teardown _) ->
    drop w ~aid:(-1) Audit.Event.Unroutable

(* ---- Middlebox data path ---------------------------------------- *)

and mbox_receive w id msg ~pkt ~born ~aid =
  if mbox_is_down w id then begin
    (* Steered into a crashed middlebox (the detection window, or
       failover disabled): the packet is lost unenforced. *)
    drop_to_fault w ~aid Audit.Event.Dead_mbox;
    policy_violation w
  end
  else mbox_process w id msg ~pkt ~born ~aid

and mbox_process w id msg ~pkt ~born ~aid =
  let mb = w.dep.Sdm.Deployment.middleboxes.(id) in
  let from_router = mb.Mbox.Middlebox.router in
  match pkt.Netpkt.Packet.body with
  | Netpkt.Packet.Encap inner -> (
    (* Tunnelled leg: strip the outer header, apply the function. *)
    w.stats.tunneled_packets <- w.stats.tunneled_packets + 1;
    w.loads.(id) <- w.loads.(id) +. 1.0;
    audit_enforced w ~aid mb;
    let flow = Netpkt.Packet.inner_flow pkt in
    let proxy_addr = pkt.Netpkt.Packet.header.Netpkt.Header.src in
    match mbox_classify w id flow with
    | { actions = None; _ } ->
      (* A tunnelled packet the middlebox cannot classify: forward the
         inner packet onward unprocessed. *)
      forward w ~from_router msg inner
    | { actions = Some actions; rule_id; _ } -> (
      let rule = Hashtbl.find w.rule_by_id rule_id in
      let src = flow.Netpkt.Flow.src in
      let label = inner.Netpkt.Packet.header.Netpkt.Header.label in
      if
        wp_caching w mb
        && wp_serves_from_cache w
             (match label with
             | Some l -> wp_label_key ~src l
             | None -> Stdx.Xhash.fold_int (Netpkt.Flow.hash flow) 0x77AC)
      then serve_from_cache w ~born ~aid ~mbox:id
      else
      match Policy.Action.next_after actions mb.Mbox.Middlebox.nf with
      | Some nf' -> (
        let entity = w.mbox_entity.(id) in
        match
          controller_next_hop w ~admitted:unadmitted entity ~rule ~nf:nf' flow
        with
        | exception No_live_candidate -> drop_no_candidate w ~aid
        | y ->
          audit_steered w ~aid ~entity ~admitted:unadmitted ~rule_id ~nf:nf' y;
          (match (label, w.cfg.label_switching) with
          | Some l, true ->
            insert_label w id ~src ~label:l ~actions
              ~next:(Some y.Mbox.Middlebox.addr) ~final_dst:None
          | _ -> ());
          forward w ~from_router msg
            (Netpkt.Packet.encapsulate ~src:proxy_addr
               ~dst:y.Mbox.Middlebox.addr inner))
      | None ->
        (* Last function of the chain: restore normal routing and
           confirm the label-switched path to the proxy. *)
        (match (label, w.cfg.label_switching) with
        | Some l, true ->
          insert_label w id ~src ~label:l ~actions ~next:None
            ~final_dst:(Some flow.Netpkt.Flow.dst);
          send_control w ~from_router
            ~sender:(Controlplane.device_of_mbox w.dep id)
            (Control { dst = proxy_addr; flow })
        | _ -> ());
        forward w ~from_router msg inner))
  | Netpkt.Packet.Payload _ -> (
    (* No outer header: a label-switched packet addressed to us. *)
    let header = pkt.Netpkt.Packet.header in
    let src = header.Netpkt.Header.src in
    match header.Netpkt.Header.label with
    | None -> drop w ~aid Audit.Event.No_label
    | Some l -> (
      (* The flat [find] entry point: no key record on the per-packet
         label-switched path. *)
      match
        Mbox.Label_table.find w.mbox_labels.(id)
          ~now:(Dess.Engine.now w.engine) ~src ~label:l
      with
      | None ->
        (* Crash-wiped (or never-installed) path: the packet cannot be
           forwarded — its original destination is unknown here — but
           the proxy is told to re-establish. *)
        w.stats.label_misses <- w.stats.label_misses + 1;
        drop w ~aid Audit.Event.Label_miss;
        note_label_miss w ~mbox:id ~src ~label:l ~aid;
        (match Sdm.Deployment.proxy_of_addr w.dep src with
        | Some p ->
          send_control w ~from_router
            ~sender:(Controlplane.device_of_mbox w.dep id)
            (Teardown { dst = p.Mbox.Proxy.addr; label = l })
        | None -> () (* orphaned source: nothing to notify *))
      | Some entry ->
        w.stats.label_switched_packets <- w.stats.label_switched_packets + 1;
        w.loads.(id) <- w.loads.(id) +. 1.0;
        if auditing w then
          record w
            (Audit.Event.Label_hit
               { mbox = id; time = Dess.Engine.now w.engine; src; label = l;
                 version = entry.Mbox.Label_table.version });
        audit_enforced w ~aid mb;
        note_label_hit w ~mbox:id ~src ~label:l ~aid;
        if wp_caching w mb && wp_serves_from_cache w (wp_label_key ~src l) then
          serve_from_cache w ~born ~aid ~mbox:id
        else
          (* One header copy per rewrite: re-addressed, and unlabelled
             at the chain's end. *)
          let header =
            match
              (entry.Mbox.Label_table.next, entry.Mbox.Label_table.final_dst)
            with
            | Some next, None -> { header with Netpkt.Header.dst = next }
            | None, Some dst -> { header with Netpkt.Header.dst; label = None }
            | _ -> assert false (* Label_table.insert forbids *)
          in
          forward w ~from_router msg { pkt with Netpkt.Packet.header }))

(* ---- Proxy data path -------------------------------------------- *)

(* The packet [fs] leaves its proxy with: the flow's header (labelled
   and re-addressed on a label-switched path) over its payload. *)
let flow_packet (fs : Workload.flow_spec) ?label ~dst () =
  let f = fs.Workload.flow in
  Netpkt.Packet.plain
    (Netpkt.Header.make ?label ~src:f.Netpkt.Flow.src ~dst ~proto:f.proto
       ~sport:f.sport ~dport:f.dport ())
    ~payload_bytes:(max 0 (fs.Workload.packet_bytes - Netpkt.Header.size))

(* A fresh data message for [fs], on the wire at its proxy. *)
let launch w (fs : Workload.flow_spec) ~aid pkt =
  send w ~from_router:w.dep.Sdm.Deployment.proxies.(fs.src_proxy).Mbox.Proxy.router
    (Data { pkt; born = Dess.Engine.now w.engine; aid })

let audit_admitted w (fs : Workload.flow_spec) ~aid ~admission ~version ~label =
  record w
    (Audit.Event.Admitted
       { aid; time = Dess.Engine.now w.engine; flow = fs.flow; proxy = fs.src_proxy;
         admission; version; bytes = Netpkt.Packet.size (flow_packet fs ~dst:0 ());
         label })

(* The first function of an IP-over-IP chain: steer, then tunnel the
   (labelled, when label switching) packet to the chosen middlebox. *)
let tunnel_first w (fs : Workload.flow_spec) ~aid ~rule ~label ~admitted =
  match w.cfg.debug_bypass_chain with
  | Some n when aid mod n = 0 ->
    (* Test-only corruption hook: every n-th packet skips its chain
       entirely and travels straight to the destination — exactly
       the escape the audit's chain invariant must catch. *)
    launch w fs ~aid (flow_packet fs ~dst:fs.flow.dst ())
  | _ -> (
    let proxy_id = fs.Workload.src_proxy in
    let entity = w.proxy_entity.(proxy_id) in
    let flow = fs.Workload.flow in
    let nf = List.hd rule.Policy.Rule.actions in
    match controller_next_hop w ~admitted entity ~rule ~nf flow with
    | exception No_live_candidate -> drop_no_candidate w ~aid
    | mb ->
      audit_steered w ~aid ~entity ~admitted ~rule_id:rule.Policy.Rule.id ~nf
        mb;
      launch w fs ~aid
        (Netpkt.Packet.encapsulate
           ~src:w.dep.Sdm.Deployment.proxies.(proxy_id).Mbox.Proxy.addr
           ~dst:mb.Mbox.Middlebox.addr
           (flow_packet fs ?label ~dst:flow.Netpkt.Flow.dst ())))

(* The proxy's decision for one outbound packet of [fs].  [aid] is the
   packet's audit identity — the injected-packet counter at admission,
   carried on the wire for the auditor's benefit only. *)
let proxy_emit w (fs : Workload.flow_spec) ~aid =
  let proxy_id = fs.Workload.src_proxy in
  let now = Dess.Engine.now w.engine in
  let cache = w.proxy_caches.(proxy_id) in
  let flow = fs.Workload.flow in
  let entity = w.proxy_entity.(proxy_id) in
  match Policy.Flow_cache.lookup cache ~now flow with
  | Some { actions = Some a; rule_id; _ } when Policy.Action.is_permit a ->
    w.stats.cache_hits <- w.stats.cache_hits + 1;
    if auditing w then
      audit_admitted w fs ~aid
        ~admission:(Audit.Event.Permit (Some rule_id))
        ~version:(installed_version w entity) ~label:None;
    note_cache_bypass w ~proxy:proxy_id ~flow ~aid;
    launch w fs ~aid (flow_packet fs ~dst:fs.flow.dst ())
  | Some ({ actions = Some _; rule_id; label; cfg_version; _ } as entry) ->
    w.stats.cache_hits <- w.stats.cache_hits + 1;
    note_traffic w fs ~rule_id;
    let rule = Hashtbl.find w.rule_by_id rule_id in
    let ls_path = entry.Policy.Flow_cache.ls_ready && w.cfg.label_switching in
    if auditing w then
      audit_admitted w fs ~aid
        ~admission:
          (Audit.Event.Chained
             { rule_id;
               mode = (if ls_path then Audit.Event.Label else Audit.Event.Tunnel) })
        ~version:(decision_version w ~admitted:cfg_version entity)
        ~label;
    if ls_path then begin
      (* Established label-switched path: embed the label, address the
         packet straight to the first middlebox, no outer header. *)
      let nf = List.hd rule.Policy.Rule.actions in
      match controller_next_hop w ~admitted:cfg_version entity ~rule ~nf flow with
      | exception No_live_candidate -> drop_no_candidate w ~aid
      | mb ->
        audit_steered w ~aid ~entity ~admitted:cfg_version ~rule_id ~nf mb;
        launch w fs ~aid (flow_packet fs ?label ~dst:mb.Mbox.Middlebox.addr ())
    end
    else tunnel_first w fs ~aid ~rule ~label ~admitted:cfg_version
  | Some { actions = None; _ } ->
    w.stats.cache_negative_hits <- w.stats.cache_negative_hits + 1;
    if auditing w then
      audit_admitted w fs ~aid ~admission:Audit.Event.Unmatched
        ~version:(installed_version w entity) ~label:None;
    note_cache_bypass w ~proxy:proxy_id ~flow ~aid;
    launch w fs ~aid (flow_packet fs ~dst:fs.flow.dst ())
  | None -> (
    w.stats.multi_field_lookups <- w.stats.multi_field_lookups + 1;
    match Policy.Matcher.first_match w.proxy_match.(proxy_id) flow with
    | None ->
      ignore (Policy.Flow_cache.insert_negative cache ~now flow);
      if auditing w then
        audit_admitted w fs ~aid ~admission:Audit.Event.Unmatched
          ~version:(installed_version w entity) ~label:None;
      launch w fs ~aid (flow_packet fs ~dst:fs.flow.dst ())
    | Some rule when Policy.Action.is_permit rule.Policy.Rule.actions ->
      ignore
        (Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
           ~actions:Policy.Action.permit ());
      if auditing w then
        audit_admitted w fs ~aid
          ~admission:(Audit.Event.Permit (Some rule.Policy.Rule.id))
          ~version:(installed_version w entity) ~label:None;
      launch w fs ~aid (flow_packet fs ~dst:fs.flow.dst ())
    | Some rule ->
      let label =
        if w.cfg.label_switching then begin
          let l = w.mutable_label.(proxy_id) land Netpkt.Header.max_label in
          w.mutable_label.(proxy_id) <- l + 1;
          Stdx.Flat_table.replace w.proxy_label_index.(proxy_id) l 0 flow;
          Some l
        end
        else None
      in
      note_traffic w fs ~rule_id:rule.Policy.Rule.id;
      let admitted = installed_version w entity in
      ignore
        (Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
           ~actions:rule.Policy.Rule.actions ?label ~cfg_version:admitted ());
      if auditing w then begin
        audit_admitted w fs ~aid
          ~admission:
            (Audit.Event.Chained
               { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel })
          ~version:admitted ~label;
        record w
          (Audit.Event.Cache_insert
             { proxy = proxy_id; time = now; flow; version = admitted })
      end;
      tunnel_first w fs ~aid ~rule ~label ~admitted)

(* ---- Fault-schedule execution ----------------------------------- *)

(* A mid-run topology change: swap in the OSPF session's reconverged
   tables.  In-flight segments already scheduled keep their old paths —
   they were committed to the wire before the change. *)
let refresh_tables w session = w.tables <- Ospf.Session.tables session

(* ---- Silent-corruption injection -------------------------------- *)

(* The k-th live entry of a label table, in its (stable, unseeded)
   iteration order — deterministic for a fixed mutation history, so a
   seeded index draw picks the same victim on every run. *)
let nth_label_entry t k =
  let i = ref 0 and found = ref None in
  Mbox.Label_table.iter
    (fun key entry ->
      if !i = k then found := Some (key, entry);
      incr i)
    t;
  Option.get !found

(* Rewrite one label entry's steering field to some *other* middlebox
   address — the bit-flip that silently mis-steers every later packet
   of the path.  Degenerate single-middlebox deployments have no wrong
   address to point at, so the event no-ops there. *)
let inject_label_corrupt w cs id =
  let t = w.mbox_labels.(id) in
  let n = Mbox.Label_table.length t in
  if (not (mbox_is_down w id)) && n > 0 then begin
    let key, entry = nth_label_entry t (Stdx.Rng.int cs.crng n) in
    let mboxes = w.dep.Sdm.Deployment.middleboxes in
    let current =
      match (entry.Mbox.Label_table.next, entry.Mbox.Label_table.final_dst) with
      | Some a, _ | None, Some a -> a
      | None, None -> assert false (* Label_table.insert forbids *)
    in
    let pick = Stdx.Rng.int cs.crng (Array.length mboxes) in
    let redirect =
      let a = mboxes.(pick).Mbox.Middlebox.addr in
      if a <> current then a
      else mboxes.((pick + 1) mod Array.length mboxes).Mbox.Middlebox.addr
    in
    if redirect <> current && Mbox.Label_table.unsafe_corrupt t key ~redirect
    then
      register_corruption w cs ~dev:(Controlplane.device_of_mbox w.dep id)
        ~kind:Audit.Event.Wrong_steer
        ~site:
          (Audit.Event.Label_site
             { mbox = id; src = key.Mbox.Label_table.src;
               label = key.Mbox.Label_table.label })
  end

let inject_label_drop w cs id =
  let t = w.mbox_labels.(id) in
  let n = Mbox.Label_table.length t in
  if (not (mbox_is_down w id)) && n > 0 then begin
    let key, _ = nth_label_entry t (Stdx.Rng.int cs.crng n) in
    if Mbox.Label_table.unsafe_drop t key then
      register_corruption w cs ~dev:(Controlplane.device_of_mbox w.dep id)
        ~kind:Audit.Event.Lost_entry
        ~site:
          (Audit.Event.Label_site
             { mbox = id; src = key.Mbox.Label_table.src;
               label = key.Mbox.Label_table.label })
  end

(* Poison one proxy cache entry.  Only chained (positive, non-permit)
   entries make observable victims: half the draws flip the entry to a
   bogus negative, half to an unconditional permit — either way later
   packets of the flow skip the chain their policy demands. *)
let inject_cache_poison w cs id =
  let c = w.proxy_caches.(id) in
  let victims = ref [] and n = ref 0 in
  Policy.Flow_cache.iter
    (fun flow e ->
      match e.Policy.Flow_cache.actions with
      | Some a when not (Policy.Action.is_permit a) ->
        victims := flow :: !victims;
        incr n
      | Some _ | None -> ())
    c;
  if !n > 0 then begin
    let flow = List.nth (List.rev !victims) (Stdx.Rng.int cs.crng !n) in
    let poisoned =
      if Stdx.Rng.int cs.crng 2 = 0 then
        Policy.Flow_cache.unsafe_poison_negative c flow
      else
        Policy.Flow_cache.unsafe_poison_actions c flow
          ~actions:Policy.Action.permit
    in
    if poisoned then
      register_corruption w cs ~dev:id ~kind:Audit.Event.Poisoned
        ~site:(Audit.Event.Cache_site { proxy = id; flow })
  end

(* Silently regress a device's installed version by one: the device
   keeps acking the lost version, so the ack-driven reconciliation
   loop can never notice — only the sweep's version report can.  A
   device still at version 0, or one already carrying an unrepaired
   loss, has nothing further inside the certified staged window to
   take back, so the event no-ops. *)
let inject_config_lose w cs dev =
  match w.live with
  | None -> ()
  | Some ls ->
    if
      ls.Controlplane.device_version.(dev) > 0
      && not (Hashtbl.mem cs.config_sites dev)
    then begin
      Controlplane.regress_device ls dev;
      register_corruption w cs ~dev ~kind:Audit.Event.Lost_config
        ~site:(Audit.Event.Config_site { dev })
    end

(* Re-install one entry a past config install had purged (recorded in
   the graveyard at purge time): stale steering state coming back from
   the dead after the partition heals.  If the key is live again the
   resurrection loses the race and no-ops. *)
let inject_stale_resurrect w cs id =
  if not (mbox_is_down w id) then
    match cs.graveyard.(id) with
    | [] -> ()
    | g ->
      let k = Stdx.Rng.int cs.crng (List.length g) in
      let key, entry = List.nth g k in
      cs.graveyard.(id) <- List.filteri (fun i _ -> i <> k) g;
      if Mbox.Label_table.unsafe_resurrect w.mbox_labels.(id) key entry then
        register_corruption w cs ~dev:(Controlplane.device_of_mbox w.dep id)
          ~kind:Audit.Event.Resurrected
          ~site:
            (Audit.Event.Label_site
               { mbox = id; src = key.Mbox.Label_table.src;
                 label = key.Mbox.Label_table.label })

let with_corrupt f inject target =
  match f.corrupt with Some cs -> inject cs target | None -> ()

let apply_fault w f what =
  let now = Dess.Engine.now w.engine in
  match what with
  | Fault.Schedule.Mbox_crash id ->
    Fault.Detector.crash f.detector ~now id;
    (* A crash loses the box's soft state: its flow cache and label
       table come back empty if the box ever recovers.  Any injected
       soft-state corruption living there dies with it — repair by
       destruction, which the registry must record or the Repair
       invariant would demand fixing state that no longer exists. *)
    w.mbox_caches.(id) <-
      Policy.Flow_cache.create ~timeout:cache_timeout
        ?capacity:w.cfg.cache_capacity ();
    w.mbox_labels.(id) <- Mbox.Label_table.create ();
    w.busy_until.(id) <- now;
    (match f.corrupt with
    | None -> ()
    | Some cs ->
      let dev = Controlplane.device_of_mbox w.dep id in
      Hashtbl.iter
        (fun _ r ->
          match r.cr_site with
          | Audit.Event.Label_site { mbox; _ }
            when mbox = id && not r.cr_repaired ->
            resolve_corruption w cs ~dev ~action:Audit.Event.Purged r
          | _ -> ())
        cs.records)
  | Fault.Schedule.Mbox_recover id -> Fault.Detector.recover f.detector ~now id
  | Fault.Schedule.Link_fail (u, v) -> (
    match f.session with
    | Some s ->
      Ospf.Session.fail_link s u v;
      refresh_tables w s
    | None -> assert false (* session exists iff the schedule has link events *))
  | Fault.Schedule.Link_restore (u, v) -> (
    match f.session with
    | Some s ->
      Ospf.Session.recover_link s u v;
      refresh_tables w s
    | None -> assert false)
  | Fault.Schedule.Ctrl_crash id -> (
    (* The replica's in-flight chains die via their [replica_up] and
       leadership guards; its acceptor state is durable.  Re-election
       happens one detection delay later (scheduled alongside the
       fault), not here. *)
    match w.live with
    | Some ls -> Controlplane.set_replica_up ls id false
    | None -> ())
  | Fault.Schedule.Ctrl_recover id -> (
    (* Recovery is quiet: the replica rejoins as a standby (stable
       leadership — no failback) and resumes voting from its durable
       acceptor state. *)
    match w.live with
    | Some ls -> Controlplane.set_replica_up ls id true
    | None -> ())
  (* Silent state corruption: each event draws its victim from the
     corruption RNG (a derived child of the loss stream, so the loss
     draws are unperturbed) and registers the ground truth with the
     auditor.  Without a [corrupt] state (no corruption events in the
     schedule) these arms are unreachable. *)
  | Fault.Schedule.Label_corrupt id -> with_corrupt f (inject_label_corrupt w) id
  | Fault.Schedule.Label_drop id -> with_corrupt f (inject_label_drop w) id
  | Fault.Schedule.Cache_poison id -> with_corrupt f (inject_cache_poison w) id
  | Fault.Schedule.Config_lose dev -> with_corrupt f (inject_config_lose w) dev
  | Fault.Schedule.Stale_resurrect id -> with_corrupt f (inject_stale_resurrect w) id

(* ---- The network under the live control plane ------------------- *)

(* Hop count from a controller replica's router to a target router,
   walking the *current* routing tables (so a partition shows up as
   None, and a reconverged detour is priced at its real length). *)
let route_hops w ~from ~target =
  match Netgraph.Routing.walk w.tables ~src:from ~dst:target with
  | path -> Some (List.length path - 1)
  | exception Failure _ -> None (* dead end or forwarding loop *)

(* The device side of a config install.  A middlebox purges label
   entries more than one version old: only the adjacent version stays
   staged, which is exactly the mix Verify.check_mixed certified
   before the push went out. *)
let install_at_device w ~dev ~version =
  (match Controlplane.entity_of_device w.dep dev with
  | Mbox.Entity.Middlebox id ->
    (* When the schedule can resurrect stale entries, remember what
       this install is about to purge — the resurrection pool is
       exactly the state that legitimately died here. *)
    (match corrupt_of w with
    | Some cs when cs.want_graveyard ->
      Mbox.Label_table.iter
        (fun key e ->
          if e.Mbox.Label_table.version < version - 1 then
            cs.graveyard.(id) <- (key, e) :: cs.graveyard.(id))
        w.mbox_labels.(id)
    | _ -> ());
    ignore
      (Mbox.Label_table.purge_versions_below w.mbox_labels.(id)
         ~version:(version - 1))
  | Mbox.Entity.Proxy _ -> ());
  (* A fresh install heals a silently regressed device: the device
     is back on a published version at least as new as the one the
     loss took back. *)
  match corrupt_of w with
  | Some cs -> (
    match Hashtbl.find_opt cs.config_sites dev with
    | Some cid ->
      resolve_cid w cs ~cid ~dev ~action:(Audit.Event.Reinstalled version)
    | None -> ())
  | None -> ()

(* The device-side half of a sweep visit: compare the incrementally
   maintained digest against a fresh walk of the table.  On mismatch,
   scrub — purge entries whose checksum disagrees with their payload
   (bit flips, poisonings) or whose version fell out of the staged
   window (resurrections), and rebase the digest so silently dropped
   entries stop haunting it.  Each purged site's corruption is
   resolved; whatever registered corruption remains at this device
   afterwards no longer has any state to find (purged, evicted, or
   crashed away) and is retired as rebased. *)
let sweep_check w ~dev =
  match corrupt_of w with
  | None -> ()
  | Some cs ->
    let detect () =
      w.stats.corruptions_detected <- w.stats.corruptions_detected + 1;
      if auditing w then
        record w
          (Audit.Event.Corrupt_detect { time = Dess.Engine.now w.engine; dev })
    in
    (match Controlplane.entity_of_device w.dep dev with
    | Mbox.Entity.Proxy i ->
      let c = w.proxy_caches.(i) in
      if
        not
          (Int64.equal (Policy.Flow_cache.digest c)
             (Policy.Flow_cache.recompute_digest c))
      then begin
        detect ();
        List.iter
          (fun flow ->
            match Hashtbl.find_opt cs.cache_sites (i, flow) with
            | Some cid ->
              resolve_cid w cs ~cid ~dev ~action:Audit.Event.Purged
            | None -> ())
          (Policy.Flow_cache.scrub c)
      end
    | Mbox.Entity.Middlebox id ->
      if not (mbox_is_down w id) then begin
        let t = w.mbox_labels.(id) in
        if
          not
            (Int64.equal (Mbox.Label_table.digest t)
               (Mbox.Label_table.recompute_digest t))
        then begin
          detect ();
          let floor =
            match w.live with
            | Some ls -> ls.Controlplane.device_version.(dev) - 1
            | None -> 0
          in
          List.iter
            (fun (key : Mbox.Label_table.key) ->
              match
                Hashtbl.find_opt cs.label_sites (id, key.src, key.label)
              with
              | Some cid ->
                resolve_cid w cs ~cid ~dev ~action:Audit.Event.Purged
              | None -> ())
            (Mbox.Label_table.scrub t ~version_floor:floor)
        end
      end);
    Hashtbl.iter
      (fun _ r ->
        if r.cr_dev = dev && not r.cr_repaired then
          match r.cr_site with
          | Audit.Event.Config_site _ -> () (* repaired by re-install only *)
          | Audit.Event.Label_site { mbox; src; label } ->
            Mbox.Label_table.remove w.mbox_labels.(mbox)
              { Mbox.Label_table.src; label };
            resolve_corruption w cs ~dev ~action:Audit.Event.Rebased r
          | Audit.Event.Cache_site _ ->
            resolve_corruption w cs ~dev ~action:Audit.Event.Rebased r)
      cs.records

(* All counters zero: what a run starts counting from. *)
let zero_stats ~n_mboxes ~n_devices =
  {
    loads = Array.make n_mboxes 0.0;
    injected_packets = 0;
    delivered_packets = 0;
    dropped_packets = 0;
    control_packets = 0;
    multi_field_lookups = 0;
    cache_hits = 0;
    cache_negative_hits = 0;
    tunneled_packets = 0;
    label_switched_packets = 0;
    fragments_created = 0;
    router_hops = 0;
    sim_time = 0.0;
    latency_mean = 0.0;
    latency_p50 = 0.0;
    latency_p99 = 0.0;
    label_misses = 0;
    teardowns = 0;
    wp_cache_served = 0;
    cache_evictions = 0;
    events_scheduled = 0;
    events_processed = 0;
    policy_violations = 0;
    fault_dropped = 0;
    control_retries = 0;
    control_lost = 0;
    last_violation_time = 0.0;
    config_pushes = 0;
    config_acks = 0;
    config_lost = 0;
    config_bytes = 0;
    reoptimizations = 0;
    config_degraded = 0;
    final_config_version = 0;
    stale_devices = 0;
    entity_control_retries = Array.make n_devices 0;
    entity_control_lost = Array.make n_devices 0;
    entity_config_version = [||];
    quorum_rounds = 0;
    quorum_commits = 0;
    quorum_aborts = 0;
    quorum_msgs = 0;
    quorum_lost = 0;
    leader_changes = 0;
    replica_versions = [||];
    corruptions_injected = 0;
    corruptions_manifested = 0;
    corruptions_detected = 0;
    corruptions_repaired = 0;
    sweep_rounds = 0;
    sweep_msgs = 0;
    sweep_lost = 0;
    sweep_bytes = 0;
    repair_window_mean = 0.0;
    repair_window_max = 0.0;
    reopt_pivots = 0;
    reopt_phase1_pivots = 0;
    reopt_warm_used = 0;
    reopt_fallback = 0;
    audit_report = None;
  }

let run ?(config = default_config) ~controller ~workload () =
  let dep = controller.Sdm.Controller.deployment in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let n_mboxes = Array.length dep.Sdm.Deployment.middleboxes in
  (* Reject out-of-range knobs up front instead of failing mid-run or
     silently running a meaningless model.  Every test is phrased so
     that NaN, which fails all comparisons, is rejected too. *)
  let require ok what = if not ok then invalid_arg ("Pktsim.run: " ^ what) in
  let finite_nonneg x = Float.is_finite x && x >= 0.0 in
  let at_least_one = function Some n -> n >= 1 | None -> true in
  require (finite_nonneg config.packet_interval)
    "packet_interval must be finite and >= 0";
  require (finite_nonneg config.start_window)
    "start_window must be finite and >= 0";
  require (config.service_rate > 0.0) "service_rate must be > 0";
  require
    (config.wp_cache_hit_ratio >= 0.0 && config.wp_cache_hit_ratio <= 1.0)
    "wp_cache_hit_ratio must be in [0, 1]";
  require (at_least_one config.cache_capacity) "cache_capacity must be >= 1";
  require (finite_nonneg config.detection_delay)
    "detection_delay must be finite and >= 0";
  require (at_least_one config.debug_bypass_chain)
    "debug_bypass_chain must be >= 1";
  (* Reject a schedule that does not fit this deployment up front,
     instead of letting it silently no-op or blow up mid-run. *)
  (match config.faults with
  | None -> ()
  | Some schedule -> (
    let g = dep.Sdm.Deployment.topo.Netgraph.Topology.graph in
    match
      Fault.Schedule.validate
        ~n_controllers:
          (match config.live with Some l -> l.replicas | None -> 0)
        ~n_proxies ~n_mboxes
        ~link_exists:(fun u v -> Netgraph.Graph.has_edge g u v)
        schedule
    with
    | Ok () -> ()
    | Error e -> invalid_arg ("Pktsim.run: invalid fault schedule: " ^ e)));
  (match config.live with
  | None -> ()
  | Some l ->
    (* NaN-safe: [finite_pos] rejects non-finite intervals outright
       ([<= 0.0] would let a NaN through). *)
    let finite_pos x = Float.is_finite x && x > 0.0 in
    if
      (not (finite_pos l.epoch_interval))
      || (not (finite_pos l.reconcile_interval))
      || (match l.sweep_period with
         | Some p -> not (finite_pos p)
         | None -> false)
    then invalid_arg "Pktsim.run: invalid live-control-plane config";
    if l.replicas < 1 then
      invalid_arg "Pktsim.run: replicas must be >= 1");
  let engine = Dess.Engine.create () in
  let n_flows = Array.length workload.Workload.flows in
  (* Capacity hints from the deployment and flow counts instead of a
     blanket 64: the tables reach these sizes on every large run, so
     sizing them up front removes the rehash churn on the hot path.
     A hint never changes behaviour, only when Hashtbl grows. *)
  let endpoints = Stdx.Flat_table.create ~initial:(max 16 n_mboxes) () in
  Array.iter
    (fun (m : Mbox.Middlebox.t) ->
      Stdx.Flat_table.replace endpoints m.addr 0 (Some (m.router, To_mbox m.id)))
    dep.Sdm.Deployment.middleboxes;
  let rule_by_id =
    Hashtbl.create (max 16 (List.length controller.Sdm.Controller.rules))
  in
  List.iter
    (fun r -> Hashtbl.replace rule_by_id r.Policy.Rule.id r)
    controller.Sdm.Controller.rules;
  (* Expected live entries per flow table: flows spread across the
     proxies (plus chain fan-in on middleboxes, where each flow visits
     two or three boxes). *)
  let proxy_flow_hint = max 64 (n_flows / max 1 n_proxies) in
  let mbox_flow_hint = max 64 (3 * n_flows / max 1 n_mboxes) in
  let proxy_entity = Array.init n_proxies (fun i -> Mbox.Entity.Proxy i) in
  let mbox_entity = Array.init n_mboxes (fun i -> Mbox.Entity.Middlebox i) in
  let entity_table entity =
    Policy.Matcher.build (Sdm.Controller.policy_table_for controller entity)
  in
  let fault =
    match config.faults with
    | None -> None
    | Some schedule ->
      let session =
        (* Only pay for a live OSPF session when links actually change
           mid-run; pure middlebox faults leave routing alone. *)
        if Fault.Schedule.has_link_events schedule then
          Some (Ospf.Session.start dep.Sdm.Deployment.topo)
        else None
      in
      (* The corruption RNG is a *derived child* of the loss stream's
         seed: drawing victims never advances the loss RNG, so the
         loss/ack draw sequence — and with it every schedule without
         corruption events — is bit-identical to before. *)
      let corrupt =
        if Fault.Schedule.has_corruption_events schedule then
          Some
            {
              repair_sum = 0.0;
              crng =
                Stdx.Rng.derive
                  (Stdx.Rng.create schedule.Fault.Schedule.loss_seed)
                  1;
              next_cid = 0;
              records = Hashtbl.create 64;
              label_sites = Hashtbl.create 64;
              cache_sites = Hashtbl.create 64;
              config_sites = Hashtbl.create 16;
              graveyard = Array.make n_mboxes [];
              want_graveyard =
                List.exists
                  (fun { Fault.Schedule.what; _ } ->
                    match what with
                    | Fault.Schedule.Stale_resurrect _ -> true
                    | _ -> false)
                  schedule.Fault.Schedule.events;
            }
        else None
      in
      let detector =
        Fault.Detector.create ~n:n_mboxes ~delay:config.detection_delay
      in
      Some
        {
          detector;
          alive =
            (if config.failover then
               Some
                 (fun id ->
                   Fault.Detector.believed_alive detector
                     ~now:(Dess.Engine.now engine) id)
             else None);
          schedule;
          loss_rng = Stdx.Rng.create schedule.Fault.Schedule.loss_seed;
          session;
          corrupt;
        }
  in
  let n_devs = Controlplane.device_count dep in
  let stats = zero_stats ~n_mboxes ~n_devices:n_devs in
  let w =
    {
      cfg = config;
      controller;
      dep;
      engine;
      tables =
        (* One Dijkstra per source router. *)
        (let g = dep.Sdm.Deployment.topo.Netgraph.Topology.graph in
         Array.init (Netgraph.Graph.node_count g) (fun u ->
             Netgraph.Routing.table_for g u));
      stats;
      latencies = Stdx.Fvec.create ();
      busy_until = Array.make n_mboxes 0.0;
      loads = stats.loads;
      proxy_caches =
        Array.init n_proxies (fun _ ->
            Policy.Flow_cache.create ~timeout:cache_timeout
              ?capacity:config.cache_capacity ~expected:proxy_flow_hint ());
      proxy_match = Array.map entity_table proxy_entity;
      mutable_label = Array.make n_proxies 0;
      mbox_caches =
        Array.init n_mboxes (fun _ ->
            Policy.Flow_cache.create ~timeout:cache_timeout
              ?capacity:config.cache_capacity ~expected:mbox_flow_hint ());
      mbox_match =
        Array.map entity_table mbox_entity;
      mbox_labels =
        Array.init n_mboxes (fun _ -> Mbox.Label_table.create ());
      proxy_label_index =
        Array.init n_proxies (fun _ ->
            Stdx.Flat_table.create ~initial:proxy_flow_hint ());
      proxy_entity;
      mbox_entity;
      endpoints;
      transit = { free = [||]; n_free = 0 };
      rule_by_id;
      fault;
      audit =
        (if config.audit then Some (Audit.Checker.create ~controller ())
         else None);
      live = None;
    }
  in
  (* The live control plane reaches the network only through [net]. *)
  w.live <-
    Option.map
      (fun lcfg ->
        Controlplane.create lcfg ~controller ~engine ~stats ~audit:w.audit
          ~link_delay
          {
            Controlplane.hops = route_hops w;
            control_lost = (fun () -> control_loss_draw w);
            device_up =
              (function
              | Mbox.Entity.Middlebox id -> not (mbox_is_down w id)
              | Mbox.Entity.Proxy _ -> true);
            install = install_at_device w;
            sweep_check = sweep_check w;
            believed_failed =
              (fun () ->
                match w.fault with
                | Some f ->
                  Fault.Detector.believed_failed f.detector
                    ~now:(Dess.Engine.now engine)
                | None -> []);
            corruption_outstanding =
              (fun () ->
                match corrupt_of w with
                | None -> false
                | Some cs ->
                  Hashtbl.fold
                    (fun _ r acc -> acc || not r.cr_repaired)
                    cs.records false);
          })
      config.live;
  (* Schedule the fault events before the traffic so that a fault tied
     with a packet injection applies first (the engine breaks time ties
     in FIFO order). *)
  (match w.fault with
  | None -> ()
  | Some f ->
    List.iter
      (fun { Fault.Schedule.at; what } ->
        ignore
          (Dess.Engine.schedule_at w.engine ~time:at (fun _ ->
               apply_fault w f what));
        (* The live controller reacts to middlebox transitions as soon
           as its detector reports them — one detection delay after
           the ground-truth event. *)
        match (what, w.live) with
        | (Fault.Schedule.Mbox_crash _ | Fault.Schedule.Mbox_recover _), Some ls
          ->
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(at +. config.detection_delay) (fun _ ->
                 Controlplane.reoptimize ls))
        (* A controller crash is detected by the surviving replicas one
           detection delay after the fact; re-election (if the dead
           replica led) happens then. *)
        | Fault.Schedule.Ctrl_crash id, Some ls ->
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(at +. config.detection_delay) (fun _ ->
                 Controlplane.handle_ctrl_crash ls id))
        | _, _ -> ())
      f.schedule.Fault.Schedule.events);
  (* Inject flows: first packet at a jittered start, each subsequent
     packet scheduled by its predecessor (keeps the heap small).  One
     injection action per flow serves all its packets. *)
  let rng = Stdx.Rng.create config.seed in
  let horizon = ref 0.0 in
  Array.iter
    (fun (fs : Workload.flow_spec) ->
      let start = Stdx.Rng.float rng config.start_window in
      let last =
        start
        +. (float_of_int (Stdlib.max 0 (fs.Workload.packets - 1))
            *. config.packet_interval)
      in
      if last > !horizon then horizon := last;
      let next = ref 0 in
      let rec inject _ =
        let aid = w.stats.injected_packets in
        w.stats.injected_packets <- aid + 1;
        proxy_emit w fs ~aid;
        incr next;
        schedule_next ()
      and schedule_next () =
        if !next < fs.Workload.packets then
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(start +. (float_of_int !next *. config.packet_interval))
               inject)
      in
      schedule_next ())
    workload.Workload.flows;
  (match w.live with
  | None -> ()
  | Some ls -> Controlplane.start ls ~horizon:!horizon);
  Dess.Engine.run engine;
  let audit_report =
    match w.audit with
    | None -> None
    | Some a ->
      Some
        (Audit.Checker.finalize
           ~expect:
             {
               Audit.Checker.injected = w.stats.injected_packets;
               delivered = w.stats.delivered_packets;
               dropped = w.stats.dropped_packets;
               wp_served = w.stats.wp_cache_served;
               fragments = w.stats.fragments_created;
               loads = w.loads;
             }
           a)
  in
  let latency_mean, latency_p50, latency_p99 =
    let samples = Stdx.Fvec.to_array w.latencies in
    let n = Array.length samples in
    if n = 0 then (0.0, 0.0, 0.0)
    else begin
      (* Sum newest delivery first: float addition is order-sensitive
         in the last ulp, and the regression oracles pin the mean this
         historical cons-list accumulation produced. *)
      let total = ref 0.0 in
      for i = n - 1 downto 0 do
        total := !total +. samples.(i)
      done;
      match Stdx.Stats.percentiles samples [ 0.5; 0.99 ] with
      | [ p50; p99 ] -> (!total /. float_of_int n, p50, p99)
      | _ -> assert false
    end
  in
  {
    stats with
    sim_time = Dess.Engine.now engine;
    latency_mean;
    latency_p50;
    latency_p99;
    cache_evictions =
      (let sum caches =
         Array.fold_left
           (fun acc c ->
             acc + (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions)
           0 caches
       in
       sum w.proxy_caches + sum w.mbox_caches);
    events_scheduled = Dess.Engine.events_scheduled engine;
    events_processed = Dess.Engine.events_processed engine;
    final_config_version =
      (match w.live with None -> 0 | Some ls -> ls.Controlplane.latest);
    stale_devices =
      (match w.live with
      | None -> 0
      | Some ls ->
        Array.fold_left
          (fun acc v -> if v < ls.Controlplane.latest then acc + 1 else acc)
          0 ls.Controlplane.device_version);
    entity_config_version =
      (match w.live with
      | None -> Array.make n_devs 0
      | Some ls -> Array.copy ls.Controlplane.device_version);
    replica_versions =
      (match w.live with
      | None -> [||]
      | Some ls -> Array.map Quorum.Acceptor.committed ls.Controlplane.acceptors);
    repair_window_mean =
      (match corrupt_of w with
      | Some cs when stats.corruptions_repaired > 0 ->
        cs.repair_sum /. float_of_int stats.corruptions_repaired
      | _ -> 0.0);
    audit_report;
  }
