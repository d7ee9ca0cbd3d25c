(** A textual policy-definition language.

    The configuration surface an operator uses to feed the controller:
    one policy per line, first-match order, e.g.

    {v
    # web traffic from the enterprise prefix
    from 128.40.0.0/16 to any dport 80 proto tcp => FW, IDS, WP
    from any to 128.40.0.0/16 sport 80 => WP, IDS, FW
    from 128.40.0.0/16 to 128.40.0.0/16 => permit
    v}

    Grammar (per line, after '#'-comment stripping):

    {v
    policy  ::= "from" addr "to" addr field* "=>" actions
    addr    ::= "any" | ipv4 | ipv4 "/" len
    field   ::= ("sport" | "dport") port | "proto" proto
    port    ::= "any" | int | int "-" int
    proto   ::= "any" | "tcp" | "udp" | "icmp" | int
    actions ::= "permit" | nf ("," nf)*     (no function twice)
    nf      ::= "FW" | "IDS" | "WP" | "TM" | identifier
    v}

    [print] and [parse] round-trip (property-tested). *)

val parse_line : string -> (Descriptor.t * Action.t, string) result
(** One policy line (comments/blank not accepted here). *)

val parse : string -> (Rule.t list, string) result
(** A whole document: '#' comments and blank lines are skipped; rule
    ids are assigned in line order.  The error names the offending
    line number. *)

val print_rule : Rule.t -> string
(** One line, re-parseable. *)

val print : Rule.t list -> string

val table_one_text : string
(** The paper's Table I in this language (for the enterprise prefix
    128.40.0.0/16). *)
