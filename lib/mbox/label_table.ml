type key = { src : Netpkt.Addr.t; label : int }

type entry = {
  actions : Policy.Action.t;
  next : Netpkt.Addr.t option;
  final_dst : Netpkt.Addr.t option;
  version : int;
  check : int64;
  mutable last_used : float;
}

(* Keyed directly on the (src, label) int pair in a flat
   open-addressing table, so the per-packet label lookup probes two
   int arrays and allocates nothing.  Iteration is insertion order —
   deterministic under a seeded run, which the corruption-target
   selection and the sweep rely on. *)
type t = {
  table : entry Stdx.Flat_table.t;
  timeout : float;
  mutable digest : int64;
}

let create ?(timeout = infinity) () =
  if timeout <= 0.0 then invalid_arg "Label_table.create: timeout must be positive";
  { table = Stdx.Flat_table.create ~initial:256 (); timeout; digest = 0L }

let add_addr_opt h = function
  | None -> Stdx.Xhash.add h (-1)
  | Some a ->
    Stdx.Xhash.add h 1;
    Stdx.Xhash.add h a

(* Per-entry hash over the key and the immutable payload ([last_used]
   is refreshed on every hit and must not perturb the digest).  The
   avalanche finalizer matters here: entries differing only in the
   label or version would otherwise produce correlated FNV values
   whose XOR could cancel.  Top-level folds over one [Xhash.state]:
   the same FNV-1a bytes as folding [int64]s, without a box per int
   or a closure per call. *)
let entry_hash key ~actions ~next ~final_dst ~version =
  let h = Stdx.Xhash.start () in
  Stdx.Xhash.add h key.src;
  Stdx.Xhash.add h key.label;
  Policy.Action.add_salts h actions;
  add_addr_opt h next;
  add_addr_opt h final_dst;
  Stdx.Xhash.add h version;
  Stdx.Xhash.finish h

let entry_hash_packed src label (e : entry) =
  entry_hash { src; label } ~actions:e.actions ~next:e.next
    ~final_dst:e.final_dst ~version:e.version

(* Legitimate mutations XOR the *stored* checksum in or out, so an
   insert/remove pair cancels exactly even if the payload was silently
   corrupted in between; only the unsafe_* faults below skip this. *)
let forget t entry = t.digest <- Int64.logxor t.digest entry.check

let insert t ~now ?(version = 0) key ~actions ~next ~final_dst =
  (match (next, final_dst) with
  | Some _, Some _ -> invalid_arg "Label_table.insert: both next and final_dst"
  | None, None -> invalid_arg "Label_table.insert: neither next nor final_dst"
  | Some _, None | None, Some _ -> ());
  if key.label < 0 || key.label > Netpkt.Header.max_label then
    invalid_arg
      (Printf.sprintf "Label_table.insert: label %d outside [0, %d]" key.label
         Netpkt.Header.max_label);
  let d = Stdx.Flat_table.find_slot t.table key.src key.label in
  if d >= 0 then forget t (Stdx.Flat_table.value t.table d);
  let check = entry_hash key ~actions ~next ~final_dst ~version in
  t.digest <- Int64.logxor t.digest check;
  Stdx.Flat_table.replace t.table key.src key.label
    { actions; next; final_dst; version; check; last_used = now }

(* The per-packet entry point: key fields passed flat so the hot path
   builds no key record. *)
let find t ~now ~src ~label =
  let d = Stdx.Flat_table.find_slot t.table src label in
  if d < 0 then None
  else begin
    let entry = Stdx.Flat_table.value t.table d in
    if now -. entry.last_used > t.timeout then begin
      forget t entry;
      Stdx.Flat_table.remove t.table src label;
      None
    end
    else begin
      entry.last_used <- now;
      Some entry
    end
  end

let lookup t ~now key = find t ~now ~src:key.src ~label:key.label

let size t = Stdx.Flat_table.length t.table
let length = size

let iter f t =
  Stdx.Flat_table.iter (fun src label e -> f { src; label } e) t.table

let remove t key =
  match Stdx.Flat_table.find t.table key.src key.label with
  | None -> ()
  | Some entry ->
    forget t entry;
    Stdx.Flat_table.remove t.table key.src key.label

let purge t ~now =
  let expired =
    Stdx.Flat_table.fold
      (fun src label entry acc ->
        if now -. entry.last_used > t.timeout then (src, label, entry) :: acc
        else acc)
      t.table []
  in
  List.iter
    (fun (src, label, entry) ->
      forget t entry;
      Stdx.Flat_table.remove t.table src label)
    expired;
  List.length expired

let purge_versions_below t ~version =
  let stale =
    Stdx.Flat_table.fold
      (fun src label entry acc ->
        if entry.version < version then (src, label, entry) :: acc else acc)
      t.table []
  in
  List.iter
    (fun (src, label, entry) ->
      forget t entry;
      Stdx.Flat_table.remove t.table src label)
    stale;
  List.length stale

let digest t = t.digest

let recompute_digest t =
  Stdx.Flat_table.fold
    (fun src label e acc -> Int64.logxor acc (entry_hash_packed src label e))
    t.table 0L

(* Fault-injection back doors: mutate the table the way a bit flip or
   a lost install would — without touching the incremental digest or
   the per-entry checksum — so the anti-entropy sweep has something
   real to find. *)

let unsafe_corrupt t key ~redirect =
  match Stdx.Flat_table.find t.table key.src key.label with
  | None -> false
  | Some e ->
    let corrupted =
      match e.next with
      | Some _ -> { e with next = Some redirect }
      | None -> { e with final_dst = Some redirect }
    in
    Stdx.Flat_table.replace t.table key.src key.label corrupted;
    true

let unsafe_drop t key =
  if Stdx.Flat_table.mem t.table key.src key.label then begin
    Stdx.Flat_table.remove t.table key.src key.label;
    true
  end
  else false

let unsafe_resurrect t key entry =
  if not (Stdx.Flat_table.mem t.table key.src key.label) then begin
    Stdx.Flat_table.replace t.table key.src key.label entry;
    true
  end
  else false

let scrub t ~version_floor =
  let bad =
    Stdx.Flat_table.fold
      (fun src label e acc ->
        if
          not (Int64.equal (entry_hash_packed src label e) e.check)
          || e.version < version_floor
        then (src, label) :: acc
        else acc)
      t.table []
  in
  List.iter (fun (src, label) -> Stdx.Flat_table.remove t.table src label) bad;
  t.digest <- recompute_digest t;
  List.rev_map (fun (src, label) -> { src; label }) bad
