(** Forwarding weights computed by the load-balancing LP.

    [t] maps (entity, rule, next function) to an array of
    (middlebox id, volume) pairs — the t_{e,p}(x,y) values of Eq. (2).
    The enforcement plane selects the next hop with probability
    proportional to these volumes. *)

type t

val create : unit -> t

val set :
  t -> Mbox.Entity.t -> rule:int -> nf:Policy.Action.nf ->
  (int * float) array -> unit

val find :
  t -> Mbox.Entity.t -> rule:int -> nf:Policy.Action.nf ->
  (int * float) array option

val row :
  t -> Mbox.Entity.t -> rule:int -> nf:Policy.Action.nf -> (int * float) array
(** {!find}, [[||]] when absent: no option on the per-packet path. *)

val entries : t -> int
(** Number of stored rows — the controller-to-middlebox communication
    volume the simplified formulation is designed to shrink. *)

val cells : t -> int
(** Total (middlebox, volume) pairs across all rows. *)
