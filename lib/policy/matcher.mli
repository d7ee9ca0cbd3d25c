(** The compiled first-match policy matcher.

    Every proxy and middlebox runs a multi-field match on the first
    packet of each flow (Sec. III.D; the flow cache spares the packets
    after it), and the workload generator labels every flow with the
    rule it matches.  Both use this matcher.

    [build] sorts the rules by id with a stable sort and packs each
    rule's five fields into one flat [int array], ten ints per rule
    (source base and mask, destination base and mask, then lo/hi of
    source port, destination port and protocol; a wildcard is
    [min_int]..[max_int]).  [first_match] scans it in order and
    returns the first rule that matches: the lowest id, and among
    equal ids the one listed first, exactly as {!Rule.first_match}
    (a property test checks the two agree).  A match returns an
    option built once at [build], so a call allocates nothing.

    A scan and not a trie: every table the simulator builds holds at
    most about 20 rules, and the scan stays ahead of the trie it
    replaced up to 2,000 (DESIGN.md §12).  [t] is immutable after
    [build], so runs on several domains can share one. *)

type t

val build : Rule.t list -> t

val rule_count : t -> int

val first_match : t -> Netpkt.Flow.t -> Rule.t option
