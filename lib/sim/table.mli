(** Typed report tables.  A table is a list of columns, each a header
    plus a typed getter; the fixed-width text report and the CSV export
    are both derived from that one list, so the two cannot drift
    apart.  A report is a {!doc}: a few preamble lines around one or
    more tables. *)

type 'r cell =
  | Int of ('r -> int)
  | Float of int * int * ('r -> float)  (** text precision, CSV precision *)
  | Load of ('r -> float)  (** {!millions} in text, [%.0f] in CSV *)
  | Audit of ('r -> int option)
      (** online-audit violations: ["-"] in text and an empty CSV cell
          when auditing was off *)
  | Str of ('r -> string)

type 'r column

val col : ?csv:string -> ?w:int -> string -> 'r cell -> 'r column
(** A column of both renderings.  [w] is the text width: right-aligned,
    or left-aligned when negative, as in printf (default 0).  The CSV
    header defaults to the text header in lower case with spaces
    turned into underscores. *)

val text : ?w:int -> string -> 'r cell -> 'r column
(** A column of the text rendering only. *)

val csv : string -> 'r cell -> 'r column
(** A column of the CSV rendering only. *)

val to_csv : 'r column list -> 'r list -> string
(** Header line, then one line per row; no quoting (no cell holds a
    comma). *)

val millions : float -> string
(** "1.66M" / "12.7k" / "42" rendering of loads. *)

(** {2 Documents} *)

type doc = (Format.formatter -> unit) list
(** Blocks printed in order; each ends its own lines. *)

val line : ('a, unit, string, Format.formatter -> unit) format4 -> 'a
(** One preamble line. *)

val blank : Format.formatter -> unit

val grid : 'r column list -> 'r list -> Format.formatter -> unit
(** Header line, then one line per row; cells separated by one
    space. *)

val fields : ?w:int -> 'r column list -> 'r -> Format.formatter -> unit
(** One record, one line per column: the header padded to [w], a
    space, then the cell. *)

val inline : 'r column list -> 'r list -> Format.formatter -> unit
(** One line per row: the first column's cell, then [header=cell] for
    every other column. *)

val pp_doc : Format.formatter -> doc -> unit
