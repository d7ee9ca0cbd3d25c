type entry = {
  actions : Action.t option;
  rule_id : int;
  label : int option;
  cfg_version : int;
  check : int64;
  mutable ls_ready : bool;
  mutable last_used : float;
}

type stats = {
  mutable hits : int;
  mutable negative_hits : int;
  mutable misses : int;
  mutable expirations : int;
  mutable evictions : int;
}

(* Keyed on the packed 104-bit flow identity ([Flow.key]/[key2]), so
   the per-packet lookup probes parallel int arrays and allocates
   nothing.  Iteration is insertion order (a property of the
   operation sequence, not of hash layout) — what the corruption
   machinery and the scrub rely on for seeded reproducibility. *)
type t = {
  table : entry Stdx.Flat_table.t;
  timeout : float;
  negative_timeout : float;
  capacity : int option;
  stats : stats;
  mutable digest : int64;
}

let create ?(timeout = 60.0) ?negative_timeout ?capacity ?expected () =
  if timeout <= 0.0 then invalid_arg "Flow_cache.create: timeout must be positive";
  let negative_timeout =
    match negative_timeout with
    | None -> timeout
    | Some nt ->
      if nt <= 0.0 then
        invalid_arg "Flow_cache.create: negative_timeout must be positive";
      nt
  in
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Flow_cache.create: capacity must be >= 1"
  | _ -> ());
  (match expected with
  | Some e when e < 0 -> invalid_arg "Flow_cache.create: expected must be >= 0"
  | _ -> ());
  (* Initial bucket count: the caller's expected population, clamped
     by the capacity bound when there is one (a bounded cache can
     never hold more than [capacity] live entries). *)
  let hint =
    let e = match expected with None -> 256 | Some e -> max 16 e in
    match capacity with None -> e | Some c -> min e (max 16 c)
  in
  {
    table = Stdx.Flat_table.create ~initial:hint ();
    timeout;
    negative_timeout;
    capacity;
    stats = { hits = 0; negative_hits = 0; misses = 0; expirations = 0; evictions = 0 };
    digest = 0L;
  }

(* Hash of the flow identity and the entry's immutable payload.
   [ls_ready] and [last_used] are legitimately mutated in place and
   are excluded, so neither refreshes nor the label-switching control
   packet perturb the digest.  One [Xhash.state] fold: the same bytes
   as folding boxed [int64]s, with no box per int. *)
let entry_hash flow ~actions ~rule_id ~label ~cfg_version =
  let h = Stdx.Xhash.start () in
  Stdx.Xhash.add h flow.Netpkt.Flow.src;
  Stdx.Xhash.add h flow.Netpkt.Flow.dst;
  Stdx.Xhash.add h flow.Netpkt.Flow.proto;
  Stdx.Xhash.add h flow.Netpkt.Flow.sport;
  Stdx.Xhash.add h flow.Netpkt.Flow.dport;
  (* [Int64.to_int (Netpkt.Flow.hash flow)] opens the entry's fold. *)
  let flow_hash = Stdx.Xhash.value h in
  Stdx.Xhash.reset h;
  Stdx.Xhash.add h flow_hash;
  (match actions with
  | None -> Stdx.Xhash.add h (-2)
  | Some acts ->
    Stdx.Xhash.add h 2;
    Action.add_salts h acts);
  Stdx.Xhash.add h rule_id;
  (match label with
  | None -> Stdx.Xhash.add h (-1)
  | Some l ->
    Stdx.Xhash.add h 1;
    Stdx.Xhash.add h l);
  Stdx.Xhash.add h cfg_version;
  Stdx.Xhash.finish h

let entry_hash_packed k1 k2 (e : entry) =
  entry_hash (Netpkt.Flow.of_key k1 k2) ~actions:e.actions ~rule_id:e.rule_id
    ~label:e.label ~cfg_version:e.cfg_version

(* Legitimate mutations XOR the *stored* checksum in or out, so an
   insert/remove pair cancels exactly even if the payload was silently
   poisoned in between; only the unsafe_* faults skip this. *)
let forget t entry = t.digest <- Int64.logxor t.digest entry.check

let remember t entry = t.digest <- Int64.logxor t.digest entry.check

(* Negative entries (no policy matched) live on their own, typically
   shorter, TTL: a bogus negative entry must not shadow a real policy
   match — or pin a cache slot — any longer than that. *)
let ttl t entry =
  match entry.actions with None -> t.negative_timeout | Some _ -> t.timeout

let drop t k1 k2 entry =
  forget t entry;
  Stdx.Flat_table.remove t.table k1 k2

let lookup t ~now flow =
  let k1 = Netpkt.Flow.key flow and k2 = Netpkt.Flow.key2 flow in
  let d = Stdx.Flat_table.find_slot t.table k1 k2 in
  if d < 0 then begin
    t.stats.misses <- t.stats.misses + 1;
    None
  end
  else begin
    let entry = Stdx.Flat_table.value t.table d in
    if now -. entry.last_used > ttl t entry then begin
      drop t k1 k2 entry;
      t.stats.expirations <- t.stats.expirations + 1;
      t.stats.misses <- t.stats.misses + 1;
      None
    end
    else begin
      entry.last_used <- now;
      (match entry.actions with
      | None -> t.stats.negative_hits <- t.stats.negative_hits + 1
      | Some _ -> t.stats.hits <- t.stats.hits + 1);
      Some entry
    end
  end

(* Bounded caches behave like a hardware hash table: when full, expired
   entries go first (each against its own TTL), then the
   least-recently-used live one (first-inserted wins age ties). *)
let make_room t ~now flow =
  match t.capacity with
  | None -> ()
  | Some cap ->
    if
      Stdx.Flat_table.length t.table >= cap
      && not
           (Stdx.Flat_table.mem t.table (Netpkt.Flow.key flow)
              (Netpkt.Flow.key2 flow))
    then begin
      let expired =
        Stdx.Flat_table.fold
          (fun k1 k2 e acc ->
            if now -. e.last_used > ttl t e then (k1, k2, e) :: acc else acc)
          t.table []
      in
      List.iter (fun (k1, k2, e) -> drop t k1 k2 e) expired;
      t.stats.expirations <- t.stats.expirations + List.length expired;
      while Stdx.Flat_table.length t.table >= cap do
        let victim =
          Stdx.Flat_table.fold
            (fun k1 k2 e acc ->
              match acc with
              | Some (_, _, oldest, _) when oldest <= e.last_used -> acc
              | _ -> Some (k1, k2, e.last_used, e))
            t.table None
        in
        match victim with
        | Some (k1, k2, _, e) ->
          drop t k1 k2 e;
          t.stats.evictions <- t.stats.evictions + 1
        | None -> assert false (* table non-empty while >= cap >= 1 *)
      done
    end

let stash t flow entry =
  let k1 = Netpkt.Flow.key flow and k2 = Netpkt.Flow.key2 flow in
  let d = Stdx.Flat_table.find_slot t.table k1 k2 in
  if d >= 0 then forget t (Stdx.Flat_table.value t.table d);
  remember t entry;
  Stdx.Flat_table.replace t.table k1 k2 entry

let insert t ~now flow ~rule_id ~actions ?label ?(cfg_version = 0) () =
  make_room t ~now flow;
  let check =
    entry_hash flow ~actions:(Some actions) ~rule_id ~label ~cfg_version
  in
  let entry =
    { actions = Some actions; rule_id; label; cfg_version; check;
      ls_ready = false; last_used = now }
  in
  stash t flow entry;
  entry

let insert_negative t ~now flow =
  make_room t ~now flow;
  let check =
    entry_hash flow ~actions:None ~rule_id:(-1) ~label:None ~cfg_version:0
  in
  let entry =
    { actions = None; rule_id = -1; label = None; cfg_version = 0; check;
      ls_ready = false; last_used = now }
  in
  stash t flow entry;
  entry

let mark_ls_ready t flow =
  match
    Stdx.Flat_table.find t.table (Netpkt.Flow.key flow) (Netpkt.Flow.key2 flow)
  with
  | Some ({ actions = Some _; _ } as entry) ->
    entry.ls_ready <- true;
    true
  | Some { actions = None; _ } | None -> false

let purge t ~now =
  let expired =
    Stdx.Flat_table.fold
      (fun k1 k2 entry acc ->
        if now -. entry.last_used > ttl t entry then (k1, k2, entry) :: acc
        else acc)
      t.table []
  in
  List.iter (fun (k1, k2, entry) -> drop t k1 k2 entry) expired;
  let n = List.length expired in
  t.stats.expirations <- t.stats.expirations + n;
  n

let size t = Stdx.Flat_table.length t.table

let iter f t =
  Stdx.Flat_table.iter (fun k1 k2 e -> f (Netpkt.Flow.of_key k1 k2) e) t.table

let stats t = t.stats
let timeout t = t.timeout
let negative_timeout t = t.negative_timeout

let digest t = t.digest

let recompute_digest t =
  Stdx.Flat_table.fold
    (fun k1 k2 e acc -> Int64.logxor acc (entry_hash_packed k1 k2 e))
    t.table 0L

(* Fault-injection back doors: poison an entry the way a bit flip
   would — without maintaining checksum or digest — so the
   anti-entropy sweep has something real to find. *)

let unsafe_poison_negative t flow =
  let k1 = Netpkt.Flow.key flow and k2 = Netpkt.Flow.key2 flow in
  match Stdx.Flat_table.find t.table k1 k2 with
  | Some ({ actions = Some _; _ } as e) ->
    Stdx.Flat_table.replace t.table k1 k2 { e with actions = None };
    true
  | Some { actions = None; _ } | None -> false

let unsafe_poison_actions t flow ~actions =
  let k1 = Netpkt.Flow.key flow and k2 = Netpkt.Flow.key2 flow in
  match Stdx.Flat_table.find t.table k1 k2 with
  | None -> false
  | Some e ->
    Stdx.Flat_table.replace t.table k1 k2 { e with actions = Some actions };
    true

let scrub t =
  let bad =
    Stdx.Flat_table.fold
      (fun k1 k2 e acc ->
        if not (Int64.equal (entry_hash_packed k1 k2 e) e.check) then
          (k1, k2) :: acc
        else acc)
      t.table []
  in
  List.iter (fun (k1, k2) -> Stdx.Flat_table.remove t.table k1 k2) bad;
  t.digest <- recompute_digest t;
  List.rev_map (fun (k1, k2) -> Netpkt.Flow.of_key k1 k2) bad
