(* Tests for actions, descriptors, rules, the compiled matcher and the
   flow cache. *)

let p = Netpkt.Addr.Prefix.of_string

let flow ?(proto = 6) ?(sport = 1000) ?(dport = 80) src dst =
  Netpkt.Flow.make ~src:(Netpkt.Addr.of_string src)
    ~dst:(Netpkt.Addr.of_string dst) ~proto ~sport ~dport

(* --- Action lists -------------------------------------------------- *)

let test_action_structure () =
  let a = Policy.Action.[ FW; IDS; WP ] in
  Alcotest.(check (list (pair string string))) "adjacent pairs"
    [ ("FW", "IDS"); ("IDS", "WP") ]
    (List.map
       (fun (x, y) -> Policy.Action.(nf_to_string x, nf_to_string y))
       (Policy.Action.adjacent_pairs a));
  Alcotest.(check (option string)) "first" (Some "FW")
    (Option.map Policy.Action.nf_to_string (Policy.Action.first a));
  Alcotest.(check (option string)) "last" (Some "WP")
    (Option.map Policy.Action.nf_to_string (Policy.Action.last a));
  Alcotest.(check (option string)) "next after FW" (Some "IDS")
    (Option.map Policy.Action.nf_to_string
       (Policy.Action.next_after a Policy.Action.FW));
  Alcotest.(check (option string)) "next after WP" None
    (Option.map Policy.Action.nf_to_string
       (Policy.Action.next_after a Policy.Action.WP));
  Alcotest.(check bool) "permit" true (Policy.Action.is_permit Policy.Action.permit);
  Alcotest.(check bool) "no duplicates" false (Policy.Action.has_duplicates a);
  Alcotest.(check bool) "duplicates detected" true
    (Policy.Action.has_duplicates Policy.Action.[ FW; IDS; FW ])

let test_action_strings () =
  Alcotest.(check string) "chain" "FW -> IDS"
    (Policy.Action.to_string Policy.Action.[ FW; IDS ]);
  Alcotest.(check string) "permit" "permit" (Policy.Action.to_string []);
  List.iter
    (fun nf ->
      Alcotest.(check bool) "roundtrip" true
        (Policy.Action.equal_nf nf
           (Policy.Action.nf_of_string (Policy.Action.nf_to_string nf))))
    Policy.Action.builtin

(* --- Descriptors ---------------------------------------------------- *)

let test_descriptor_matching () =
  let d =
    Policy.Descriptor.make ~src:(p "10.0.0.0/24")
      ~dport:(Policy.Descriptor.Port 80) ()
  in
  Alcotest.(check bool) "match" true
    (Policy.Descriptor.matches d (flow "10.0.0.5" "99.0.0.1"));
  Alcotest.(check bool) "wrong source" false
    (Policy.Descriptor.matches d (flow "10.1.0.5" "99.0.0.1"));
  Alcotest.(check bool) "wrong port" false
    (Policy.Descriptor.matches d (flow ~dport:443 "10.0.0.5" "99.0.0.1"))

let test_descriptor_port_range () =
  let d =
    Policy.Descriptor.make ~dport:(Policy.Descriptor.Port_range (8000, 8100)) ()
  in
  Alcotest.(check bool) "inside range" true
    (Policy.Descriptor.matches d (flow ~dport:8050 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check bool) "boundary" true
    (Policy.Descriptor.matches d (flow ~dport:8100 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check bool) "outside" false
    (Policy.Descriptor.matches d (flow ~dport:8101 "1.1.1.1" "2.2.2.2"))

let test_descriptor_proto () =
  let d = Policy.Descriptor.make ~proto:(Policy.Descriptor.Proto 17) () in
  Alcotest.(check bool) "udp" true
    (Policy.Descriptor.matches d (flow ~proto:17 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check bool) "tcp" false
    (Policy.Descriptor.matches d (flow ~proto:6 "1.1.1.1" "2.2.2.2"))

let test_descriptor_rejects_bad_proto () =
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "proto %d" p)
        (Invalid_argument "Descriptor.make: bad proto") (fun () ->
          ignore (Policy.Descriptor.make ~proto:(Policy.Descriptor.Proto p) ())))
    [ -1; 256; max_int ];
  List.iter
    (fun p -> ignore (Policy.Descriptor.make ~proto:(Policy.Descriptor.Proto p) ()))
    [ 0; 255 ]

let test_descriptor_overlap () =
  let d = Policy.Descriptor.make ~src:(p "10.0.0.0/16") () in
  Alcotest.(check bool) "overlapping subnet" true
    (Policy.Descriptor.src_overlaps d (p "10.0.1.0/24"));
  Alcotest.(check bool) "disjoint subnet" false
    (Policy.Descriptor.src_overlaps d (p "10.1.0.0/24"));
  Alcotest.(check bool) "wildcard overlaps everything" true
    (Policy.Descriptor.src_overlaps (Policy.Descriptor.make ()) (p "10.1.0.0/24"))

(* --- Rules ----------------------------------------------------------- *)

let table_one_rules = Policy.Rule.table_one (p "128.40.0.0/16")

let test_table_one_first_match () =
  (* Internal web traffic hits rule 0 (permit), not rule 2. *)
  let internal = flow "128.40.1.1" "128.40.2.2" in
  (match Policy.Rule.first_match table_one_rules internal with
  | Some r ->
    Alcotest.(check int) "internal -> rule 0" 0 r.Policy.Rule.id;
    Alcotest.(check bool) "permit" true (Policy.Action.is_permit r.Policy.Rule.actions)
  | None -> Alcotest.fail "internal traffic should match");
  (* External client to internal server: rule 2 (FW, IDS). *)
  match Policy.Rule.first_match table_one_rules (flow "99.0.0.1" "128.40.2.2") with
  | Some r -> Alcotest.(check int) "external -> rule 2" 2 r.Policy.Rule.id
  | None -> Alcotest.fail "external traffic should match"

let test_table_one_outbound () =
  (* Internal host to external web server: rule 4 (FW, IDS, proxy). *)
  match Policy.Rule.first_match table_one_rules (flow "128.40.1.1" "99.0.0.1") with
  | Some r ->
    Alcotest.(check int) "outbound -> rule 4" 4 r.Policy.Rule.id;
    Alcotest.(check string) "chain" "FW -> IDS -> WP"
      (Policy.Action.to_string r.Policy.Rule.actions)
  | None -> Alcotest.fail "outbound web should match"

let test_no_match () =
  Alcotest.(check bool) "ssh unmatched" true
    (Policy.Rule.first_match table_one_rules
       (flow ~dport:22 ~sport:1024 "99.0.0.1" "99.0.0.2")
    = None)

let test_relevance () =
  let subnet = p "128.40.0.0/16" in
  let for_proxy = Policy.Rule.relevant_to_subnet table_one_rules subnet in
  (* Rules with wildcard source or source inside the subnet. *)
  Alcotest.(check (list int)) "proxy P_x" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Policy.Rule.id) for_proxy);
  let outside = Policy.Rule.relevant_to_subnet table_one_rules (p "1.2.3.0/24") in
  Alcotest.(check (list int)) "outside proxy sees wildcard-src rules" [ 2; 5 ]
    (List.map (fun r -> r.Policy.Rule.id) outside);
  let for_fw = Policy.Rule.relevant_to_function table_one_rules Policy.Action.FW in
  Alcotest.(check (list int)) "FW P_x" [ 2; 3; 4; 5 ]
    (List.map (fun r -> r.Policy.Rule.id) for_fw)

(* --- Compiled matcher --------------------------------------------------- *)

let test_matcher_matches_table_one () =
  let m = Policy.Matcher.build table_one_rules in
  Alcotest.(check int) "rule count" 6 (Policy.Matcher.rule_count m);
  List.iter
    (fun f ->
      let expected =
        Option.map (fun r -> r.Policy.Rule.id)
          (Policy.Rule.first_match table_one_rules f)
      in
      let got =
        Option.map (fun r -> r.Policy.Rule.id) (Policy.Matcher.first_match m f)
      in
      Alcotest.(check (option int)) (Netpkt.Flow.to_string f) expected got)
    [
      flow "128.40.1.1" "128.40.2.2";
      flow "99.0.0.1" "128.40.2.2";
      flow "128.40.1.1" "99.0.0.1";
      flow ~sport:80 ~dport:999 "99.0.0.1" "128.40.2.2";
      flow ~dport:22 "99.0.0.1" "99.0.0.2";
    ]

let test_matcher_empty () =
  let m = Policy.Matcher.build [] in
  Alcotest.(check bool) "no match in empty table" true
    (Policy.Matcher.first_match m (flow "1.1.1.1" "2.2.2.2") = None)

(* Random tables of 0-64 rules built to stress the tie and overlap
   cases: prefixes of length 0/8/16/24/32 around a few anchor
   addresses (so they nest and overlap), exact ports and port ranges,
   any or exact protocol, repeated descriptors, repeated ids, and the
   list shuffled.  Half the headers fall inside a random rule's
   prefixes, half are uniform.  The matcher must return the very rule
   (physically) that the linear scan returns. *)
let matcher_table rng =
  let anchor () =
    Netpkt.Addr.of_octets (10 + Stdx.Rng.int rng 2) (Stdx.Rng.int rng 3)
      (Stdx.Rng.int rng 3) (Stdx.Rng.int rng 3)
  in
  let prefix () = Netpkt.Addr.Prefix.make (anchor ()) (8 * Stdx.Rng.int rng 5) in
  let port () =
    match Stdx.Rng.int rng 3 with
    | 0 -> Policy.Descriptor.Any_port
    | 1 -> Policy.Descriptor.Port (Stdx.Rng.int rng 6)
    | _ ->
      let a = Stdx.Rng.int rng 6 in
      Policy.Descriptor.Port_range (a, a + Stdx.Rng.int rng 4)
  in
  let proto () =
    if Stdx.Rng.bool rng then Policy.Descriptor.Any_proto
    else Policy.Descriptor.Proto (if Stdx.Rng.bool rng then 6 else 17)
  in
  let n = Stdx.Rng.int rng 65 in
  let descriptors = ref [||] in
  let rules =
    Array.init n (fun i ->
        let descriptor =
          if i > 0 && Stdx.Rng.int rng 5 = 0 then Stdx.Rng.choose rng !descriptors
          else
            Policy.Descriptor.make ~src:(prefix ()) ~dst:(prefix ()) ~sport:(port ())
              ~dport:(port ()) ~proto:(proto ()) ()
        in
        descriptors := Array.append !descriptors [| descriptor |];
        let id = if Stdx.Rng.int rng 4 = 0 then Stdx.Rng.int rng (i + 1) else i in
        Policy.Rule.make ~id ~descriptor
          ~actions:(if Stdx.Rng.bool rng then [] else Policy.Action.[ FW ]))
  in
  Stdx.Rng.shuffle rng rules;
  Array.to_list rules

let matcher_header rng rules =
  let port () = Stdx.Rng.int rng 10 in
  let proto () = if Stdx.Rng.bool rng then 6 else 17 in
  match rules with
  | _ :: _ when Stdx.Rng.bool rng ->
    let d = (Stdx.Rng.choose rng (Array.of_list rules)).Policy.Rule.descriptor in
    let inside p =
      let open Netpkt.Addr.Prefix in
      p.base lor (Stdx.Rng.int rng 0x40000000 land lnot (mask p.len) land 0xFFFFFFFF)
    in
    Netpkt.Flow.make ~src:(inside d.Policy.Descriptor.src)
      ~dst:(inside d.Policy.Descriptor.dst) ~proto:(proto ()) ~sport:(port ())
      ~dport:(port ())
  | _ ->
    let addr () = Stdx.Rng.int rng 0x40000000 lor (Stdx.Rng.int rng 4 lsl 30) in
    Netpkt.Flow.make ~src:(addr ()) ~dst:(addr ()) ~proto:(proto ()) ~sport:(port ())
      ~dport:(port ())

let qcheck_matcher_equals_linear =
  QCheck.Test.make ~count:500
    ~name:"matcher first-match = linear first-match on random tables"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let rules = matcher_table rng in
      let m = Policy.Matcher.build rules in
      let ok = ref (Policy.Matcher.rule_count m = List.length rules) in
      for _ = 1 to 200 do
        let f = matcher_header rng rules in
        if not (Option.equal ( == ) (Policy.Rule.first_match rules f)
                  (Policy.Matcher.first_match m f))
        then ok := false
      done;
      !ok)

let random_rules rng n =
  let random_prefix () =
    if Stdx.Rng.int rng 4 = 0 then Netpkt.Addr.Prefix.any
    else begin
      let len = 8 * (1 + Stdx.Rng.int rng 3) in
      let addr =
        Netpkt.Addr.of_octets (Stdx.Rng.int rng 4) (Stdx.Rng.int rng 4)
          (Stdx.Rng.int rng 4) 0
      in
      Netpkt.Addr.Prefix.make addr len
    end
  in
  let random_port () =
    match Stdx.Rng.int rng 3 with
    | 0 -> Policy.Descriptor.Any_port
    | 1 -> Policy.Descriptor.Port (Stdx.Rng.int rng 4)
    | _ ->
      let a = Stdx.Rng.int rng 4 in
      Policy.Descriptor.Port_range (a, a + Stdx.Rng.int rng 3)
  in
  List.init n (fun id ->
      Policy.Rule.make ~id
        ~descriptor:
          (Policy.Descriptor.make ~src:(random_prefix ()) ~dst:(random_prefix ())
             ~sport:(random_port ()) ~dport:(random_port ()) ())
        ~actions:(if Stdx.Rng.int rng 3 = 0 then [] else Policy.Action.[ FW ]))

let random_flow rng =
  let addr () =
    Netpkt.Addr.of_octets (Stdx.Rng.int rng 4) (Stdx.Rng.int rng 4)
      (Stdx.Rng.int rng 4) (Stdx.Rng.int rng 4)
  in
  Netpkt.Flow.make ~src:(addr ()) ~dst:(addr ()) ~proto:6
    ~sport:(Stdx.Rng.int rng 5) ~dport:(Stdx.Rng.int rng 5)

(* --- The [Dectree] alias: bench/perf's second name for the matcher ------ *)

let test_dectree_matches_table_one () =
  let tree = Policy.Dectree.build table_one_rules in
  Alcotest.(check int) "rule count" 6 (Policy.Dectree.rule_count tree);
  List.iter
    (fun f ->
      let expected =
        Option.map (fun r -> r.Policy.Rule.id)
          (Policy.Rule.first_match table_one_rules f)
      in
      let got =
        Option.map (fun r -> r.Policy.Rule.id) (Policy.Dectree.first_match tree f)
      in
      Alcotest.(check (option int)) (Netpkt.Flow.to_string f) expected got)
    [
      flow "128.40.1.1" "128.40.2.2";
      flow "99.0.0.1" "128.40.2.2";
      flow "128.40.1.1" "99.0.0.1";
      flow ~sport:80 ~dport:999 "99.0.0.1" "128.40.2.2";
      flow ~dport:22 "99.0.0.1" "99.0.0.2";
    ]

let qcheck_dectree_equals_linear =
  QCheck.Test.make ~count:100
    ~name:"decision tree first-match = linear first-match"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let rules = random_rules rng (1 + Stdx.Rng.int rng 40) in
      let tree = Policy.Dectree.build rules in
      let ok = ref true in
      for _ = 1 to 200 do
        let f = random_flow rng in
        let a =
          Option.map (fun r -> r.Policy.Rule.id) (Policy.Rule.first_match rules f)
        in
        let b =
          Option.map (fun r -> r.Policy.Rule.id) (Policy.Dectree.first_match tree f)
        in
        if a <> b then ok := false
      done;
      !ok)

let test_dectree_empty () =
  let tree = Policy.Dectree.build [] in
  Alcotest.(check bool) "no match in empty tree" true
    (Policy.Dectree.first_match tree (flow "1.1.1.1" "2.2.2.2") = None)

(* --- Policy DSL --------------------------------------------------------- *)

let test_dsl_parse_basic () =
  match Policy.Dsl.parse_line "from 10.0.0.0/24 to any dport 80 proto tcp => FW, IDS" with
  | Error e -> Alcotest.fail e
  | Ok (d, actions) ->
    Alcotest.(check string) "actions" "FW -> IDS" (Policy.Action.to_string actions);
    Alcotest.(check bool) "matches web flow" true
      (Policy.Descriptor.matches d (flow "10.0.0.9" "99.0.0.1"));
    Alcotest.(check bool) "rejects udp" false
      (Policy.Descriptor.matches d (flow ~proto:17 "10.0.0.9" "99.0.0.1"))

let test_dsl_parse_permit_and_ranges () =
  (match Policy.Dsl.parse_line "from any to any sport 1000-2000 => permit" with
  | Ok (d, actions) ->
    Alcotest.(check bool) "permit" true (Policy.Action.is_permit actions);
    Alcotest.(check bool) "range matches" true
      (Policy.Descriptor.matches d (flow ~sport:1500 ~dport:9 "1.1.1.1" "2.2.2.2"));
    Alcotest.(check bool) "range rejects" false
      (Policy.Descriptor.matches d (flow ~sport:2001 ~dport:9 "1.1.1.1" "2.2.2.2"))
  | Error e -> Alcotest.fail e);
  match Policy.Dsl.parse_line "from any to any proto 47 => TM" with
  | Ok (d, _) ->
    Alcotest.(check bool) "numeric proto" true
      (Policy.Descriptor.matches d (flow ~proto:47 "1.1.1.1" "2.2.2.2"))
  | Error e -> Alcotest.fail e

let test_dsl_parse_errors () =
  List.iter
    (fun line ->
      match Policy.Dsl.parse_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "";
      "to any from any => FW";
      "from any to any =>";
      "from any to any => ";
      "from 300.1.1.1 to any => FW";
      "from any to any sport 99999 => FW";
      "from any to any sport 5 sport 6 => FW";
      "from any to any proto zebra => FW";
      "from any to any banana => FW";
    ]

let test_dsl_document () =
  let text =
    "# header comment\n\n" ^ "from any to 10.1.0.0/24 dport 80 => FW, IDS\n"
    ^ "from 10.1.0.0/24 to any sport 80 => permit # trailing comment\n"
  in
  match Policy.Dsl.parse text with
  | Error e -> Alcotest.fail e
  | Ok rules ->
    Alcotest.(check int) "two rules" 2 (List.length rules);
    Alcotest.(check (list int)) "ids in order" [ 0; 1 ]
      (List.map (fun r -> r.Policy.Rule.id) rules)

let test_dsl_document_error_position () =
  match Policy.Dsl.parse "from any to any => FW\n\nfrom oops\n" with
  | Error e ->
    Alcotest.(check bool) "names line 3" true
      (String.length e >= 7 && String.sub e 0 7 = "line 3:")
  | Ok _ -> Alcotest.fail "expected parse error"

let test_dsl_action_errors_name_line () =
  (* Both action lists the controller rejects fail at parse time, with
     the line number. *)
  List.iter
    (fun (text, want) ->
      match Policy.Dsl.parse text with
      | Error e -> Alcotest.(check string) text want e
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      ( "from any to any => FW\nfrom any to any => FW, FW\n",
        "line 2: repeats a function in its action list" );
      ( "# header\nfrom any to any => permit, FW\n",
        "line 2: permit cannot be combined with a function" );
    ]

let test_dsl_table_one_roundtrip () =
  match Policy.Dsl.parse Policy.Dsl.table_one_text with
  | Error e -> Alcotest.fail e
  | Ok rules ->
    let reference = table_one_rules in
    Alcotest.(check int) "six rules" (List.length reference) (List.length rules);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "same descriptor"
          (Policy.Descriptor.to_string a.Policy.Rule.descriptor)
          (Policy.Descriptor.to_string b.Policy.Rule.descriptor);
        Alcotest.(check string) "same actions"
          (Policy.Action.to_string a.Policy.Rule.actions)
          (Policy.Action.to_string b.Policy.Rule.actions))
      reference rules

let qcheck_dsl_never_crashes =
  (* The parser must total-function arbitrary input: junk yields
     [Error], never an exception. *)
  QCheck.Test.make ~count:500 ~name:"DSL parser never raises"
    QCheck.(string_gen Gen.printable)
    (fun text ->
      match Policy.Dsl.parse text with Ok _ | Error _ -> true)

let qcheck_dsl_roundtrip =
  QCheck.Test.make ~count:200 ~name:"DSL print |> parse = identity"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let rules = random_rules rng (1 + Stdx.Rng.int rng 20) in
      match Policy.Dsl.parse (Policy.Dsl.print rules) with
      | Error _ -> false
      | Ok parsed ->
        List.length parsed = List.length rules
        && List.for_all2
             (fun (a : Policy.Rule.t) (b : Policy.Rule.t) ->
               a.Policy.Rule.descriptor = b.Policy.Rule.descriptor
               && a.Policy.Rule.actions = b.Policy.Rule.actions)
             rules parsed)

(* --- Flow cache ------------------------------------------------------- *)

(* One entry's digest is its checksum: the boxed [int64] fold over the
   flow hash, the action salts, the rule, the label and the version. *)
let test_cache_digest_value () =
  let f = flow "10.0.0.1" "10.1.0.1" in
  let c = Policy.Flow_cache.create () in
  ignore
    (Policy.Flow_cache.insert c ~now:0.0 f ~rule_id:3
       ~actions:Policy.Action.[ FW; Custom "dpi" ] ~label:9 ~cfg_version:2 ());
  let fold = List.fold_left Stdx.Xhash.fold_int in
  let salt nf = Int64.to_int (Stdx.Xhash.string (Policy.Action.nf_to_string nf)) in
  let expected =
    Stdx.Xhash.fmix64
      (fold Stdx.Xhash.fnv_offset
         [ Int64.to_int (Netpkt.Flow.hash f); 2; salt FW; salt (Custom "dpi");
           3; 1; 9; 2 ])
  in
  Alcotest.(check int64) "digest" expected (Policy.Flow_cache.digest c)

(* Minor words per [insert] of a fresh flow into a pre-sized cache
   (no growth inside the measured loop): the entry, its checksum and
   the digest update, folded in one [Xhash.state] with constant
   salts.  Measured 21 words per call; the ceiling is that plus 15%. *)
let test_cache_insert_words () =
  let n = 2000 in
  let flows =
    Array.init n (fun i ->
        Netpkt.Flow.make ~src:(0x0A000000 + i) ~dst:0x0A010001 ~proto:6
          ~sport:(1000 + (i mod 50000)) ~dport:80)
  in
  let labels = Array.init n (fun i -> Some i) in
  let actions = Policy.Action.[ FW; IDS; WP ] in
  let c = Policy.Flow_cache.create ~expected:(2 * n) () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore
      (Policy.Flow_cache.insert c ~now:1.0 flows.(i) ~rule_id:i ~actions
         ?label:labels.(i) ())
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "all inserted" n (Policy.Flow_cache.size c);
  if per_call > 24.2 then
    Alcotest.failf "Flow_cache.insert allocates %.2f minor words/call" per_call

let test_cache_insert_lookup () =
  let c = Policy.Flow_cache.create () in
  let f = flow "10.0.0.1" "10.1.0.1" in
  Alcotest.(check bool) "initial miss" true
    (Policy.Flow_cache.lookup c ~now:0.0 f = None);
  let _ =
    Policy.Flow_cache.insert c ~now:0.0 f ~rule_id:3
      ~actions:Policy.Action.[ FW; IDS ]
      ~label:9 ()
  in
  (match Policy.Flow_cache.lookup c ~now:1.0 f with
  | Some e ->
    Alcotest.(check int) "rule id" 3 e.Policy.Flow_cache.rule_id;
    Alcotest.(check (option int)) "label" (Some 9) e.Policy.Flow_cache.label;
    Alcotest.(check bool) "not ls yet" false e.Policy.Flow_cache.ls_ready
  | None -> Alcotest.fail "expected hit");
  let s = Policy.Flow_cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Policy.Flow_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Policy.Flow_cache.misses

let test_cache_negative () =
  let c = Policy.Flow_cache.create () in
  let f = flow "10.0.0.1" "10.1.0.1" in
  let _ = Policy.Flow_cache.insert_negative c ~now:0.0 f in
  (match Policy.Flow_cache.lookup c ~now:1.0 f with
  | Some { Policy.Flow_cache.actions = None; _ } -> ()
  | _ -> Alcotest.fail "expected negative entry");
  Alcotest.(check int) "negative hit counted" 1
    (Policy.Flow_cache.stats c).Policy.Flow_cache.negative_hits

let test_cache_timeout () =
  let c = Policy.Flow_cache.create ~timeout:10.0 () in
  let f = flow "10.0.0.1" "10.1.0.1" in
  let _ =
    Policy.Flow_cache.insert c ~now:0.0 f ~rule_id:0 ~actions:Policy.Action.[ FW ] ()
  in
  Alcotest.(check bool) "hit before timeout" true
    (Policy.Flow_cache.lookup c ~now:9.0 f <> None);
  (* The soft state refreshed at 9.0; it survives until 19.0. *)
  Alcotest.(check bool) "refreshed" true
    (Policy.Flow_cache.lookup c ~now:18.0 f <> None);
  Alcotest.(check bool) "expired" true
    (Policy.Flow_cache.lookup c ~now:40.0 f = None);
  Alcotest.(check int) "expiration counted" 1
    (Policy.Flow_cache.stats c).Policy.Flow_cache.expirations

let test_cache_ls_flag () =
  let c = Policy.Flow_cache.create () in
  let f = flow "10.0.0.1" "10.1.0.1" in
  Alcotest.(check bool) "unknown flow" false (Policy.Flow_cache.mark_ls_ready c f);
  let _ = Policy.Flow_cache.insert_negative c ~now:0.0 f in
  Alcotest.(check bool) "negative flow refuses" false
    (Policy.Flow_cache.mark_ls_ready c f);
  let f2 = flow "10.0.0.2" "10.1.0.1" in
  let _ =
    Policy.Flow_cache.insert c ~now:0.0 f2 ~rule_id:1 ~actions:Policy.Action.[ FW ] ()
  in
  Alcotest.(check bool) "positive flow flags" true
    (Policy.Flow_cache.mark_ls_ready c f2);
  match Policy.Flow_cache.lookup c ~now:0.0 f2 with
  | Some e -> Alcotest.(check bool) "flag visible" true e.Policy.Flow_cache.ls_ready
  | None -> Alcotest.fail "expected hit"

let test_cache_capacity_eviction () =
  let c = Policy.Flow_cache.create ~timeout:1000.0 ~capacity:3 () in
  let flows =
    Array.init 5 (fun i -> flow (Printf.sprintf "10.0.0.%d" (i + 1)) "10.1.0.1")
  in
  (* Fill to capacity at staggered times; flow 0 is the LRU. *)
  Array.iteri
    (fun i f ->
      if i < 3 then
        ignore
          (Policy.Flow_cache.insert c ~now:(float_of_int i) f ~rule_id:i
             ~actions:Policy.Action.[ FW ] ()))
    flows;
  Alcotest.(check int) "full" 3 (Policy.Flow_cache.size c);
  (* A fourth flow evicts the least-recently-used (flow 0). *)
  ignore
    (Policy.Flow_cache.insert c ~now:10.0 flows.(3) ~rule_id:3
       ~actions:Policy.Action.[ FW ] ());
  Alcotest.(check int) "still at capacity" 3 (Policy.Flow_cache.size c);
  Alcotest.(check bool) "LRU gone" true
    (Policy.Flow_cache.lookup c ~now:10.0 flows.(0) = None);
  Alcotest.(check bool) "recent survivor" true
    (Policy.Flow_cache.lookup c ~now:10.0 flows.(2) <> None);
  Alcotest.(check int) "eviction counted" 1
    (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions;
  (* Re-inserting a present flow does not evict. *)
  ignore
    (Policy.Flow_cache.insert c ~now:11.0 flows.(3) ~rule_id:3
       ~actions:Policy.Action.[ FW ] ());
  Alcotest.(check int) "no extra eviction" 1
    (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions

let test_cache_capacity_prefers_expired () =
  let c = Policy.Flow_cache.create ~timeout:5.0 ~capacity:2 () in
  let f1 = flow "10.0.0.1" "10.1.0.1" and f2 = flow "10.0.0.2" "10.1.0.1" in
  let f3 = flow "10.0.0.3" "10.1.0.1" in
  ignore (Policy.Flow_cache.insert c ~now:0.0 f1 ~rule_id:0 ~actions:[] ());
  ignore (Policy.Flow_cache.insert c ~now:20.0 f2 ~rule_id:1 ~actions:[] ());
  (* f1 has expired by now: inserting f3 reclaims it without an LRU
     eviction. *)
  ignore (Policy.Flow_cache.insert c ~now:21.0 f3 ~rule_id:2 ~actions:[] ());
  Alcotest.(check int) "no forced eviction" 0
    (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions;
  Alcotest.(check bool) "fresh entry present" true
    (Policy.Flow_cache.lookup c ~now:21.0 f2 <> None)

let test_cache_purge () =
  let c = Policy.Flow_cache.create ~timeout:5.0 () in
  for i = 0 to 9 do
    let f = flow (Printf.sprintf "10.0.0.%d" (i + 1)) "10.1.0.1" in
    let _ =
      Policy.Flow_cache.insert c ~now:(float_of_int i) f ~rule_id:i
        ~actions:Policy.Action.[ FW ] ()
    in
    ()
  done;
  Alcotest.(check int) "size before purge" 10 (Policy.Flow_cache.size c);
  let dropped = Policy.Flow_cache.purge c ~now:11.0 in
  Alcotest.(check int) "entries older than 5 dropped" 6 dropped;
  Alcotest.(check int) "size after purge" 4 (Policy.Flow_cache.size c)

let test_cache_cfg_version () =
  (* The admitting configuration version rides in the entry: live
     reconfigurations keep a flow's steering sticky to it. *)
  let c = Policy.Flow_cache.create () in
  let f0 = flow "10.0.0.1" "10.1.0.1" in
  let f3 = flow "10.0.0.2" "10.1.0.1" in
  let _ =
    Policy.Flow_cache.insert c ~now:0.0 f0 ~rule_id:1 ~actions:Policy.Action.[ FW ] ()
  in
  let _ =
    Policy.Flow_cache.insert c ~now:0.0 f3 ~rule_id:1 ~actions:Policy.Action.[ FW ]
      ~cfg_version:3 ()
  in
  (match Policy.Flow_cache.lookup c ~now:1.0 f0 with
  | Some e ->
    Alcotest.(check int) "static default" 0 e.Policy.Flow_cache.cfg_version
  | None -> Alcotest.fail "expected hit");
  match Policy.Flow_cache.lookup c ~now:1.0 f3 with
  | Some e ->
    Alcotest.(check int) "explicit version kept" 3 e.Policy.Flow_cache.cfg_version
  | None -> Alcotest.fail "expected hit"

let test_cache_negative_entry_shape () =
  let c = Policy.Flow_cache.create () in
  let f = flow "10.0.0.9" "10.1.0.1" in
  let e = Policy.Flow_cache.insert_negative c ~now:0.0 f in
  Alcotest.(check bool) "no actions" true (e.Policy.Flow_cache.actions = None);
  Alcotest.(check int) "sentinel rule id" (-1) e.Policy.Flow_cache.rule_id;
  Alcotest.(check (option int)) "no label" None e.Policy.Flow_cache.label;
  Alcotest.(check int) "static version" 0 e.Policy.Flow_cache.cfg_version;
  Alcotest.(check (float 1e-9)) "default timeout" 60.0
    (Policy.Flow_cache.timeout c)

let test_cache_negative_ttl () =
  (* Negative entries age against their own, shorter, TTL. *)
  let c = Policy.Flow_cache.create ~timeout:100.0 ~negative_timeout:5.0 () in
  Alcotest.(check (float 1e-9)) "accessor" 5.0
    (Policy.Flow_cache.negative_timeout c);
  let neg = flow "10.0.0.1" "10.1.0.1" and pos = flow "10.0.0.2" "10.1.0.1" in
  ignore (Policy.Flow_cache.insert_negative c ~now:0.0 neg);
  ignore
    (Policy.Flow_cache.insert c ~now:0.0 pos ~rule_id:0
       ~actions:Policy.Action.[ FW ] ());
  Alcotest.(check bool) "negative alive within its TTL" true
    (Policy.Flow_cache.lookup c ~now:4.0 neg <> None);
  (* The 4.0 hit refreshed it; expired by 10.0 all the same. *)
  Alcotest.(check bool) "negative expired at its own TTL" true
    (Policy.Flow_cache.lookup c ~now:10.0 neg = None);
  Alcotest.(check bool) "same-age positive survives" true
    (Policy.Flow_cache.lookup c ~now:10.0 pos <> None);
  Alcotest.(check int) "expired negative left the table" 1
    (Policy.Flow_cache.size c);
  (* A poisoned entry (positive flipped to negative) ages against the
     negative TTL too — poisoning cannot extend a slot's life. *)
  ignore
    (Policy.Flow_cache.insert c ~now:10.0 neg ~rule_id:1
       ~actions:Policy.Action.[ IDS ] ());
  Alcotest.(check bool) "poison hits" true
    (Policy.Flow_cache.unsafe_poison_negative c neg);
  Alcotest.(check bool) "poisoned entry expired as negative" true
    (Policy.Flow_cache.lookup c ~now:20.0 neg = None)

let test_cache_negative_capacity_pressure () =
  (* A negative entry past its own TTL is reclaimed by the
     expired-first pass: it must not force an LRU eviction of a live
     positive entry (the slot-pinning regression). *)
  let c =
    Policy.Flow_cache.create ~timeout:1000.0 ~negative_timeout:5.0 ~capacity:2
      ()
  in
  let neg = flow "10.0.0.1" "10.1.0.1" in
  let pos1 = flow "10.0.0.2" "10.1.0.1" and pos2 = flow "10.0.0.3" "10.1.0.1" in
  ignore (Policy.Flow_cache.insert_negative c ~now:0.0 neg);
  ignore
    (Policy.Flow_cache.insert c ~now:1.0 pos1 ~rule_id:0
       ~actions:Policy.Action.[ FW ] ());
  ignore
    (Policy.Flow_cache.insert c ~now:10.0 pos2 ~rule_id:1
       ~actions:Policy.Action.[ FW ] ());
  Alcotest.(check int) "no forced eviction" 0
    (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions;
  Alcotest.(check bool) "negative slot reclaimed" true
    (Policy.Flow_cache.lookup c ~now:10.0 neg = None);
  Alcotest.(check bool) "older positive survives" true
    (Policy.Flow_cache.lookup c ~now:10.0 pos1 <> None);
  (* A still-live negative entry is a legal LRU victim like any other:
     pressure evicts it first when it is the oldest. *)
  let c2 =
    Policy.Flow_cache.create ~timeout:1000.0 ~negative_timeout:5.0 ~capacity:2
      ()
  in
  ignore (Policy.Flow_cache.insert_negative c2 ~now:0.0 neg);
  ignore
    (Policy.Flow_cache.insert c2 ~now:1.0 pos1 ~rule_id:0
       ~actions:Policy.Action.[ FW ] ());
  let pos3 = flow "10.0.0.4" "10.1.0.1" in
  ignore
    (Policy.Flow_cache.insert c2 ~now:2.0 pos3 ~rule_id:2
       ~actions:Policy.Action.[ FW ] ());
  Alcotest.(check int) "live LRU eviction counted" 1
    (Policy.Flow_cache.stats c2).Policy.Flow_cache.evictions;
  Alcotest.(check bool) "live negative was the LRU victim" true
    (Policy.Flow_cache.lookup c2 ~now:2.0 neg = None);
  Alcotest.(check bool) "positives survive" true
    (Policy.Flow_cache.lookup c2 ~now:2.0 pos1 <> None
    && Policy.Flow_cache.lookup c2 ~now:2.0 pos3 <> None)

let test_cache_digest_and_poison () =
  let c = Policy.Flow_cache.create () in
  Alcotest.(check int64) "empty digest" 0L (Policy.Flow_cache.digest c);
  let f1 = flow "10.0.0.1" "10.1.0.1" and f2 = flow "10.0.0.2" "10.1.0.1" in
  ignore
    (Policy.Flow_cache.insert c ~now:0.0 f1 ~rule_id:3
       ~actions:Policy.Action.[ FW; IDS ] ~label:9 ());
  ignore (Policy.Flow_cache.insert_negative c ~now:0.0 f2);
  Alcotest.(check int64) "incremental = recomputed"
    (Policy.Flow_cache.recompute_digest c)
    (Policy.Flow_cache.digest c);
  (* ls_ready and refreshes are legitimate in-place mutations that
     must not perturb the digest. *)
  ignore (Policy.Flow_cache.mark_ls_ready c f1);
  ignore (Policy.Flow_cache.lookup c ~now:5.0 f1);
  Alcotest.(check int64) "mutable fields excluded"
    (Policy.Flow_cache.recompute_digest c)
    (Policy.Flow_cache.digest c);
  (* Poisoning bypasses maintenance: the digests disagree until scrub
     purges the stale-checksum entry and rebases. *)
  Alcotest.(check bool) "poison hits" true
    (Policy.Flow_cache.unsafe_poison_negative c f1);
  Alcotest.(check bool) "already-negative refuses" false
    (Policy.Flow_cache.unsafe_poison_negative c f2);
  Alcotest.(check bool) "absent flow refuses" false
    (Policy.Flow_cache.unsafe_poison_actions c
       (flow "10.0.0.9" "10.1.0.1")
       ~actions:Policy.Action.[ FW ]);
  Alcotest.(check bool) "mismatch detectable" true
    (Policy.Flow_cache.digest c <> Policy.Flow_cache.recompute_digest c);
  (match Policy.Flow_cache.scrub c with
  | [ f ] when Netpkt.Flow.equal f f1 -> ()
  | l -> Alcotest.failf "expected [f1] purged, got %d flows" (List.length l));
  Alcotest.(check int64) "digest rebased"
    (Policy.Flow_cache.recompute_digest c)
    (Policy.Flow_cache.digest c);
  Alcotest.(check bool) "clean survivor kept" true
    (Policy.Flow_cache.lookup c ~now:5.0 f2 <> None)

let suite =
  [
    Alcotest.test_case "action structure" `Quick test_action_structure;
    Alcotest.test_case "cache insert allocation ceiling" `Quick
      test_cache_insert_words;
    Alcotest.test_case "cache digest value" `Quick test_cache_digest_value;
    Alcotest.test_case "action strings" `Quick test_action_strings;
    Alcotest.test_case "descriptor matching" `Quick test_descriptor_matching;
    Alcotest.test_case "descriptor port range" `Quick test_descriptor_port_range;
    Alcotest.test_case "descriptor proto" `Quick test_descriptor_proto;
    Alcotest.test_case "descriptor rejects bad proto" `Quick
      test_descriptor_rejects_bad_proto;
    Alcotest.test_case "descriptor overlap" `Quick test_descriptor_overlap;
    Alcotest.test_case "Table I first-match (inbound)" `Quick test_table_one_first_match;
    Alcotest.test_case "Table I first-match (outbound)" `Quick test_table_one_outbound;
    Alcotest.test_case "no match" `Quick test_no_match;
    Alcotest.test_case "P_x relevance" `Quick test_relevance;
    Alcotest.test_case "matcher matches Table I" `Quick test_matcher_matches_table_one;
    QCheck_alcotest.to_alcotest qcheck_matcher_equals_linear;
    Alcotest.test_case "matcher empty" `Quick test_matcher_empty;
    Alcotest.test_case "dectree matches Table I" `Quick test_dectree_matches_table_one;
    QCheck_alcotest.to_alcotest qcheck_dectree_equals_linear;
    Alcotest.test_case "dectree empty" `Quick test_dectree_empty;
    Alcotest.test_case "DSL basic parse" `Quick test_dsl_parse_basic;
    Alcotest.test_case "DSL permit and ranges" `Quick test_dsl_parse_permit_and_ranges;
    Alcotest.test_case "DSL parse errors" `Quick test_dsl_parse_errors;
    Alcotest.test_case "DSL document" `Quick test_dsl_document;
    Alcotest.test_case "DSL error position" `Quick test_dsl_document_error_position;
    Alcotest.test_case "DSL action errors name the line" `Quick
      test_dsl_action_errors_name_line;
    Alcotest.test_case "DSL Table I roundtrip" `Quick test_dsl_table_one_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_dsl_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_dsl_never_crashes;
    Alcotest.test_case "cache insert/lookup" `Quick test_cache_insert_lookup;
    Alcotest.test_case "cache config version" `Quick test_cache_cfg_version;
    Alcotest.test_case "cache negative entry shape" `Quick
      test_cache_negative_entry_shape;
    Alcotest.test_case "cache negative entries" `Quick test_cache_negative;
    Alcotest.test_case "cache soft-state timeout" `Quick test_cache_timeout;
    Alcotest.test_case "cache label-switch flag" `Quick test_cache_ls_flag;
    Alcotest.test_case "cache purge" `Quick test_cache_purge;
    Alcotest.test_case "cache capacity eviction" `Quick test_cache_capacity_eviction;
    Alcotest.test_case "cache capacity prefers expired" `Quick
      test_cache_capacity_prefers_expired;
    Alcotest.test_case "cache negative TTL" `Quick test_cache_negative_ttl;
    Alcotest.test_case "cache negative capacity pressure" `Quick
      test_cache_negative_capacity_pressure;
    Alcotest.test_case "cache digest and poison" `Quick
      test_cache_digest_and_poison;
  ]
