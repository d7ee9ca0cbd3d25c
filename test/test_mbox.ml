(* Tests for enforcement entities, middlebox/proxy descriptors and the
   label table. *)

let test_entity_keys () =
  let entities =
    [ Mbox.Entity.Proxy 0; Mbox.Entity.Proxy 1; Mbox.Entity.Middlebox 0;
      Mbox.Entity.Middlebox 1 ]
  in
  let keys = List.map Mbox.Entity.hash_key entities in
  Alcotest.(check int) "keys distinct" 4 (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "equal" true
    (Mbox.Entity.equal (Mbox.Entity.Proxy 3) (Mbox.Entity.Proxy 3));
  Alcotest.(check bool) "kind matters" false
    (Mbox.Entity.equal (Mbox.Entity.Proxy 3) (Mbox.Entity.Middlebox 3));
  Alcotest.(check string) "to_string" "mbox7"
    (Mbox.Entity.to_string (Mbox.Entity.Middlebox 7))

let test_middlebox_make () =
  let m =
    Mbox.Middlebox.make ~id:2 ~nf:Policy.Action.FW ~router:5
      ~addr:(Netpkt.Addr.of_string "192.168.0.2") ()
  in
  Alcotest.(check (float 1e-9)) "default capacity" 1.0 m.Mbox.Middlebox.capacity;
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Middlebox.make: capacity must be positive") (fun () ->
      ignore
        (Mbox.Middlebox.make ~id:0 ~nf:Policy.Action.FW ~capacity:0.0 ~router:0
           ~addr:0 ()))

let key src label = { Mbox.Label_table.src = Netpkt.Addr.of_string src; label }

(* One entry's digest is its checksum: the boxed [int64] fold over the
   key, the action salts, both addresses and the version. *)
let test_label_digest_value () =
  let t = Mbox.Label_table.create () in
  Mbox.Label_table.insert t ~now:0.0 ~version:4 (key "10.0.0.1" 7)
    ~actions:Policy.Action.[ IDS; TM ] ~next:None
    ~final_dst:(Some (Netpkt.Addr.of_string "10.2.0.9"));
  let salt nf = Int64.to_int (Stdx.Xhash.string (Policy.Action.nf_to_string nf)) in
  let expected =
    Stdx.Xhash.fmix64
      (List.fold_left Stdx.Xhash.fold_int Stdx.Xhash.fnv_offset
         [ Netpkt.Addr.of_string "10.0.0.1"; 7; salt IDS; salt TM; -1; 1;
           Netpkt.Addr.of_string "10.2.0.9"; 4 ])
  in
  Alcotest.(check int64) "digest" expected (Mbox.Label_table.digest t)

(* Minor words per [insert] of a fresh key: the entry, its checksum
   and the digest update, folded in one [Xhash.state] with constant
   salts.  Measured 16 words per call; the ceiling is that plus 15%. *)
let test_label_insert_words () =
  let n = 2000 in
  let keys = Array.init n (fun i -> { Mbox.Label_table.src = 0x0A000001; label = i }) in
  let next = Some 0xC0A80003 in
  let actions = Policy.Action.[ FW; IDS; WP ] in
  let t = Mbox.Label_table.create () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Mbox.Label_table.insert t ~now:1.0 keys.(i) ~actions ~next ~final_dst:None
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "all inserted" n (Mbox.Label_table.size t);
  if per_call > 18.4 then
    Alcotest.failf "Label_table.insert allocates %.2f minor words/call" per_call

let test_label_table_roundtrip () =
  let t = Mbox.Label_table.create () in
  Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 7)
    ~actions:Policy.Action.[ FW; IDS ]
    ~next:(Some (Netpkt.Addr.of_string "192.168.0.3"))
    ~final_dst:None;
  (match Mbox.Label_table.lookup t ~now:1.0 (key "10.0.0.1" 7) with
  | Some e ->
    Alcotest.(check bool) "next present" true (e.Mbox.Label_table.next <> None)
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "other label absent" true
    (Mbox.Label_table.lookup t ~now:1.0 (key "10.0.0.1" 8) = None);
  (* Same label from a different source is a different key — the
     paper's src|l concatenation. *)
  Alcotest.(check bool) "other source absent" true
    (Mbox.Label_table.lookup t ~now:1.0 (key "10.0.0.2" 7) = None);
  Alcotest.(check int) "size" 1 (Mbox.Label_table.size t);
  Mbox.Label_table.remove t (key "10.0.0.1" 7);
  Alcotest.(check int) "removed" 0 (Mbox.Label_table.size t)

let test_label_table_invariants () =
  let t = Mbox.Label_table.create () in
  Alcotest.check_raises "both next and dst"
    (Invalid_argument "Label_table.insert: both next and final_dst") (fun () ->
      Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 1) ~actions:[]
        ~next:(Some 1) ~final_dst:(Some 2));
  Alcotest.check_raises "neither next nor dst"
    (Invalid_argument "Label_table.insert: neither next nor final_dst")
    (fun () ->
      Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 1) ~actions:[]
        ~next:None ~final_dst:None)

let test_label_table_last_hop () =
  let t = Mbox.Label_table.create () in
  Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 3)
    ~actions:Policy.Action.[ IDS ]
    ~next:None
    ~final_dst:(Some (Netpkt.Addr.of_string "10.5.0.9"));
  match Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 3) with
  | Some { Mbox.Label_table.final_dst = Some d; next = None; _ } ->
    Alcotest.(check string) "restores destination" "10.5.0.9"
      (Netpkt.Addr.to_string d)
  | _ -> Alcotest.fail "expected last-hop entry"

let test_label_table_soft_state () =
  let t = Mbox.Label_table.create ~timeout:10.0 () in
  Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 5)
    ~actions:Policy.Action.[ FW ]
    ~next:None
    ~final_dst:(Some (Netpkt.Addr.of_string "10.5.0.9"));
  Alcotest.(check bool) "alive before timeout" true
    (Mbox.Label_table.lookup t ~now:9.0 (key "10.0.0.1" 5) <> None);
  (* The lookup refreshed last_used; still alive at 18. *)
  Alcotest.(check bool) "refreshed" true
    (Mbox.Label_table.lookup t ~now:18.0 (key "10.0.0.1" 5) <> None);
  Alcotest.(check bool) "expired" true
    (Mbox.Label_table.lookup t ~now:40.0 (key "10.0.0.1" 5) = None);
  Alcotest.(check int) "gone from table" 0 (Mbox.Label_table.size t)

let test_label_table_purge () =
  let t = Mbox.Label_table.create ~timeout:5.0 () in
  for i = 0 to 9 do
    Mbox.Label_table.insert t ~now:(float_of_int i)
      (key "10.0.0.1" i)
      ~actions:Policy.Action.[ FW ]
      ~next:(Some 1) ~final_dst:None
  done;
  let dropped = Mbox.Label_table.purge t ~now:11.0 in
  Alcotest.(check int) "entries older than 5 dropped" 6 dropped;
  Alcotest.(check int) "survivors" 4 (Mbox.Label_table.size t)

let test_label_table_versions () =
  let t = Mbox.Label_table.create () in
  (* Entries carry the configuration version that installed them;
     the default is 0 (static configuration). *)
  Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 1)
    ~actions:Policy.Action.[ FW ]
    ~next:(Some 1) ~final_dst:None;
  Mbox.Label_table.insert t ~now:0.0 ~version:1 (key "10.0.0.1" 2)
    ~actions:Policy.Action.[ FW ]
    ~next:(Some 1) ~final_dst:None;
  Mbox.Label_table.insert t ~now:0.0 ~version:2 (key "10.0.0.1" 3)
    ~actions:Policy.Action.[ FW ]
    ~next:(Some 1) ~final_dst:None;
  (match Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 1) with
  | Some e -> Alcotest.(check int) "default version" 0 e.Mbox.Label_table.version
  | None -> Alcotest.fail "expected entry");
  (* Installing version 2 keeps the adjacent version 1 staged and
     expires everything older — the update-boundary semantics. *)
  let dropped = Mbox.Label_table.purge_versions_below t ~version:1 in
  Alcotest.(check int) "one entry below the floor" 1 dropped;
  Alcotest.(check int) "survivors" 2 (Mbox.Label_table.size t);
  Alcotest.(check bool) "v0 entry expired across the boundary" true
    (Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 1) = None);
  Alcotest.(check bool) "adjacent version survives" true
    (Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 2) <> None);
  Alcotest.(check bool) "current version survives" true
    (Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 3) <> None);
  (* Purging below a floor no entry reaches empties the table. *)
  Alcotest.(check int) "purge everything" 2
    (Mbox.Label_table.purge_versions_below t ~version:10);
  Alcotest.(check int) "empty" 0 (Mbox.Label_table.size t);
  (* Idempotent on an empty table. *)
  Alcotest.(check int) "nothing left to purge" 0
    (Mbox.Label_table.purge_versions_below t ~version:10)

let test_label_table_accessors () =
  let t = Mbox.Label_table.create () in
  Alcotest.(check int) "empty length" 0 (Mbox.Label_table.length t);
  for i = 0 to 4 do
    Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" i)
      ~actions:Policy.Action.[ FW ]
      ~next:(Some 1) ~final_dst:None
  done;
  Alcotest.(check int) "length = size" (Mbox.Label_table.size t)
    (Mbox.Label_table.length t);
  Alcotest.(check int) "length" 5 (Mbox.Label_table.length t);
  let seen = ref [] in
  Mbox.Label_table.iter
    (fun k _ -> seen := k.Mbox.Label_table.label :: !seen)
    t;
  Alcotest.(check (list int)) "iter visits every entry once" [ 0; 1; 2; 3; 4 ]
    (List.sort compare !seen)

let test_label_table_label_range () =
  let t = Mbox.Label_table.create () in
  let insert label =
    Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" label)
      ~actions:Policy.Action.[ FW ]
      ~next:(Some 1) ~final_dst:None
  in
  Alcotest.check_raises "negative label"
    (Invalid_argument
       (Printf.sprintf "Label_table.insert: label -1 outside [0, %d]"
          Netpkt.Header.max_label))
    (fun () -> insert (-1));
  Alcotest.check_raises "label beyond the 21-bit field"
    (Invalid_argument
       (Printf.sprintf "Label_table.insert: label %d outside [0, %d]"
          (Netpkt.Header.max_label + 1)
          Netpkt.Header.max_label))
    (fun () -> insert (Netpkt.Header.max_label + 1));
  Alcotest.(check int) "rejected inserts left no entry" 0
    (Mbox.Label_table.length t);
  (* The boundary labels themselves are legal. *)
  insert 0;
  insert Netpkt.Header.max_label;
  Alcotest.(check int) "boundary labels accepted" 2
    (Mbox.Label_table.length t)

let test_label_table_digest_incremental () =
  let t = Mbox.Label_table.create () in
  Alcotest.(check int64) "empty digest" 0L (Mbox.Label_table.digest t);
  Mbox.Label_table.insert t ~now:0.0 (key "10.0.0.1" 1)
    ~actions:Policy.Action.[ FW ]
    ~next:(Some 1) ~final_dst:None;
  Mbox.Label_table.insert t ~now:0.0 ~version:2 (key "10.0.0.2" 2)
    ~actions:Policy.Action.[ IDS ]
    ~next:None ~final_dst:(Some 9);
  Alcotest.(check int64) "incremental = recomputed"
    (Mbox.Label_table.recompute_digest t)
    (Mbox.Label_table.digest t);
  (* Legitimate mutations keep the two in lockstep. *)
  Mbox.Label_table.remove t (key "10.0.0.2" 2);
  Alcotest.(check int64) "after remove"
    (Mbox.Label_table.recompute_digest t)
    (Mbox.Label_table.digest t);
  Mbox.Label_table.remove t (key "10.0.0.1" 1);
  Alcotest.(check int64) "insert/remove cancels to empty" 0L
    (Mbox.Label_table.digest t)

let test_label_table_unsafe_and_scrub () =
  let t = Mbox.Label_table.create () in
  for i = 0 to 3 do
    Mbox.Label_table.insert t ~now:0.0 ~version:1 (key "10.0.0.1" i)
      ~actions:Policy.Action.[ FW ]
      ~next:(Some 1) ~final_dst:None
  done;
  let clean = Mbox.Label_table.digest t in
  (* A silent steering rewrite leaves the incremental digest stale. *)
  Alcotest.(check bool) "corrupt hits" true
    (Mbox.Label_table.unsafe_corrupt t (key "10.0.0.1" 0) ~redirect:42);
  Alcotest.(check int64) "incremental digest untouched" clean
    (Mbox.Label_table.digest t);
  Alcotest.(check bool) "mismatch detectable" true
    (Mbox.Label_table.digest t <> Mbox.Label_table.recompute_digest t);
  (* Scrub locates the checksum mismatch, purges it, rebases. *)
  let purged = Mbox.Label_table.scrub t ~version_floor:0 in
  Alcotest.(check (list int)) "corrupted key purged" [ 0 ]
    (List.map (fun k -> k.Mbox.Label_table.label) purged);
  Alcotest.(check int64) "digest rebased"
    (Mbox.Label_table.recompute_digest t)
    (Mbox.Label_table.digest t);
  (* A silent drop leaves a ghost contribution; scrub clears it even
     though no live entry is at fault. *)
  Alcotest.(check bool) "drop hits" true
    (Mbox.Label_table.unsafe_drop t (key "10.0.0.1" 1));
  Alcotest.(check bool) "ghost detectable" true
    (Mbox.Label_table.digest t <> Mbox.Label_table.recompute_digest t);
  Alcotest.(check (list int)) "nothing live to purge" []
    (List.map
       (fun k -> k.Mbox.Label_table.label)
       (Mbox.Label_table.scrub t ~version_floor:0));
  Alcotest.(check int64) "ghost cleared"
    (Mbox.Label_table.recompute_digest t)
    (Mbox.Label_table.digest t);
  (* Resurrect a stale-version entry verbatim: its checksum still
     validates, so only the version floor catches it. *)
  let stale =
    match Mbox.Label_table.lookup t ~now:0.0 (key "10.0.0.1" 2) with
    | Some e -> e
    | None -> Alcotest.fail "expected survivor"
  in
  Mbox.Label_table.remove t (key "10.0.0.1" 2);
  Alcotest.(check bool) "resurrect hits" true
    (Mbox.Label_table.unsafe_resurrect t (key "10.0.0.1" 2) stale);
  Alcotest.(check bool) "occupied slot refuses" false
    (Mbox.Label_table.unsafe_resurrect t (key "10.0.0.1" 3) stale);
  (* Bring the other survivor inside the staged window so only the
     revenant sits below the floor. *)
  Mbox.Label_table.insert t ~now:0.0 ~version:2 (key "10.0.0.1" 3)
    ~actions:Policy.Action.[ FW ]
    ~next:(Some 1) ~final_dst:None;
  Alcotest.(check (list int)) "version floor purges the revenant" [ 2 ]
    (List.map
       (fun k -> k.Mbox.Label_table.label)
       (Mbox.Label_table.scrub t ~version_floor:2));
  (* Misses report false and change nothing. *)
  Alcotest.(check bool) "corrupt miss" false
    (Mbox.Label_table.unsafe_corrupt t (key "10.0.0.9" 7) ~redirect:1);
  Alcotest.(check bool) "drop miss" false
    (Mbox.Label_table.unsafe_drop t (key "10.0.0.9" 7))

(* One arbitrary-but-deterministic entry per (label, version) pair. *)
let perm_entry i (label, version) =
  ( key (Printf.sprintf "10.0.%d.%d" (i mod 200) (label mod 200)) label,
    version )

let qcheck_digest_order_independent =
  QCheck.Test.make ~count:200 ~name:"label-table digest is order-independent"
    QCheck.(small_list (pair (int_bound 100) (int_bound 5)))
    (fun entries ->
      let entries = List.mapi perm_entry entries in
      let build es =
        let t = Mbox.Label_table.create () in
        List.iter
          (fun (k, version) ->
            Mbox.Label_table.insert t ~now:0.0 ~version k
              ~actions:Policy.Action.[ FW ]
              ~next:(Some 1) ~final_dst:None)
          es;
        t
      in
      let a = build entries and b = build (List.rev entries) in
      Mbox.Label_table.digest a = Mbox.Label_table.digest b
      && Mbox.Label_table.digest a = Mbox.Label_table.recompute_digest a)

let qcheck_digest_perturbation_sensitive =
  (* Collision resistance in the sense the sweep needs: perturbing a
     single entry's version — the cheapest single-field corruption —
     must move the digest, whatever the rest of the table holds. *)
  QCheck.Test.make ~count:200
    ~name:"label-table digest moves under single-entry perturbation"
    QCheck.(pair (small_list (pair (int_bound 100) (int_bound 5))) (int_bound 100))
    (fun (entries, victim_label) ->
      let entries = List.mapi perm_entry entries in
      let build extra_version =
        let t = Mbox.Label_table.create () in
        List.iter
          (fun (k, version) ->
            Mbox.Label_table.insert t ~now:0.0 ~version k
              ~actions:Policy.Action.[ FW ]
              ~next:(Some 1) ~final_dst:None)
          entries;
        Mbox.Label_table.insert t ~now:0.0 ~version:extra_version
          (key "10.9.9.9" victim_label)
          ~actions:Policy.Action.[ FW; IDS ]
          ~next:None ~final_dst:(Some 3);
        t
      in
      Mbox.Label_table.digest (build 7) <> Mbox.Label_table.digest (build 8))

let test_proxy_make () =
  let subnet = Netpkt.Addr.Prefix.of_string "10.3.0.0/16" in
  let p =
    Mbox.Proxy.make ~id:3 ~subnet ~router:7
      ~addr:(Netpkt.Addr.of_string "10.3.0.1") ()
  in
  Alcotest.(check int) "id" 3 p.Mbox.Proxy.id;
  Alcotest.(check int) "router" 7 p.Mbox.Proxy.router;
  Alcotest.(check bool) "in-path by default" true
    (p.Mbox.Proxy.attachment = Mbox.Proxy.In_path);
  let rendered = Format.asprintf "%a" Mbox.Proxy.pp p in
  Alcotest.(check string) "pp" "proxy3(10.3.0.0/16@r7)" rendered;
  match Mbox.Proxy.make ~id:(-1) ~subnet ~router:0 ~addr:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative id accepted"

let test_proxy_off_path () =
  let subnet = Netpkt.Addr.Prefix.of_string "10.4.0.0/16" in
  let p =
    Mbox.Proxy.make ~id:4 ~subnet ~router:2 ~attachment:Mbox.Proxy.Off_path
      ~addr:(Netpkt.Addr.of_string "10.4.0.1") ()
  in
  Alcotest.(check bool) "off-path preserved" true
    (p.Mbox.Proxy.attachment = Mbox.Proxy.Off_path);
  Alcotest.(check bool) "subnet covers its own address" true
    (Netpkt.Addr.Prefix.contains p.Mbox.Proxy.subnet p.Mbox.Proxy.addr)

let suite =
  [
    Alcotest.test_case "entity keys" `Quick test_entity_keys;
    Alcotest.test_case "label insert allocation ceiling" `Quick
      test_label_insert_words;
    Alcotest.test_case "label digest value" `Quick test_label_digest_value;
    Alcotest.test_case "proxy make" `Quick test_proxy_make;
    Alcotest.test_case "proxy off-path" `Quick test_proxy_off_path;
    Alcotest.test_case "middlebox make" `Quick test_middlebox_make;
    Alcotest.test_case "label table roundtrip" `Quick test_label_table_roundtrip;
    Alcotest.test_case "label table invariants" `Quick test_label_table_invariants;
    Alcotest.test_case "label table last hop" `Quick test_label_table_last_hop;
    Alcotest.test_case "label table soft state" `Quick test_label_table_soft_state;
    Alcotest.test_case "label table purge" `Quick test_label_table_purge;
    Alcotest.test_case "label table versions" `Quick test_label_table_versions;
    Alcotest.test_case "label table accessors" `Quick
      test_label_table_accessors;
    Alcotest.test_case "label table label range" `Quick
      test_label_table_label_range;
    Alcotest.test_case "label table digest incremental" `Quick
      test_label_table_digest_incremental;
    Alcotest.test_case "label table unsafe ops and scrub" `Quick
      test_label_table_unsafe_and_scrub;
    QCheck_alcotest.to_alcotest qcheck_digest_order_independent;
    QCheck_alcotest.to_alcotest qcheck_digest_perturbation_sensitive;
  ]
