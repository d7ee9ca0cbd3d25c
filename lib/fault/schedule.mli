(** Deterministic fault schedules for the packet-level simulator.

    A schedule is a time-sorted list of discrete fault events (middlebox
    crash/recovery, link fail/restore) plus two stationary loss
    processes: a per-link data-packet loss probability and a
    per-transmission control-packet loss probability.  Loss draws come
    from a dedicated RNG seeded with [loss_seed], independent of the
    workload seed, so the same schedule applied to the same run is
    bit-reproducible. *)

type event =
  | Mbox_crash of int  (** middlebox [id] goes down and loses all soft state *)
  | Mbox_recover of int  (** middlebox [id] comes back, empty-handed *)
  | Link_fail of int * int  (** link (u, v) goes down; OSPF reconverges *)
  | Link_restore of int * int  (** link (u, v) comes back; OSPF reconverges *)
  | Ctrl_crash of int
      (** controller replica [id] goes down: its in-flight pushes and
          proposals die; if it led, a deterministic re-election follows
          one detection delay later *)
  | Ctrl_recover of int
      (** controller replica [id] comes back with its durable acceptor
          state (accepted/committed versions) intact *)
  | Label_corrupt of int
      (** one live entry of middlebox [id]'s label table is silently
          rewritten to steer to the wrong device (bit flip in the
          next-hop/final-destination field); which entry, and where it
          redirects, is drawn from the corruption RNG at fire time *)
  | Label_drop of int
      (** one live entry of middlebox [id]'s label table silently
          vanishes (lost write-back); later label-switched packets of
          that flow miss and are dropped *)
  | Cache_poison of int
      (** one live entry of proxy [id]'s flow cache is silently
          poisoned: a positive entry flips to a bogus negative, or its
          action list is rewritten — drawn from the corruption RNG *)
  | Config_lose of int
      (** device [id] (proxies-first indexing, matching the live
          control plane's device vector) silently regresses to its
          previous installed configuration version — a config install
          that was acked but never actually took *)
  | Stale_resurrect of int
      (** entries of middlebox [id]'s label table that were purged at
          the last install (versions below the staged window) silently
          reappear — post-partition resurrection of stale state *)

type timed = { at : float; what : event }

type t = private {
  events : timed list;  (** sorted by [at], stable for equal times *)
  link_loss : float;  (** per-link data-packet loss probability, in [0, 1) *)
  control_loss : float;
      (** per-transmission control-packet loss probability, in [0, 1) *)
  loss_seed : int;  (** seed of the RNG driving the loss draws *)
}

val make :
  ?link_loss:float -> ?control_loss:float -> ?loss_seed:int -> timed list -> t
(** Build a schedule.  Events are stable-sorted by time.  Raises
    [Invalid_argument] on a non-finite or negative event time or a
    loss probability outside [0, 1) (NaN included).  Defaults: no
    losses, [loss_seed] = 1. *)

val empty : t
(** No events, no losses. *)

val is_empty : t -> bool

val has_link_events : t -> bool
(** True when the schedule contains a link fail or restore — the
    simulator then drives its routing tables through an OSPF session. *)

val has_corruption_events : t -> bool
(** True when the schedule contains any silent-corruption event
    ([Label_corrupt], [Label_drop], [Cache_poison], [Config_lose],
    [Stale_resurrect]) — the simulator then arms its corruption
    registry and purge graveyards. *)

val validate :
  ?n_controllers:int ->
  ?n_proxies:int ->
  n_mboxes:int ->
  link_exists:(int -> int -> bool) ->
  t ->
  (unit, string) result
(** Check the schedule against a concrete deployment: every middlebox
    id must be in [0, n_mboxes), every controller replica id in
    [0, n_controllers) (default 0 — controller events are only legal
    when the run declares replicas), every proxy id named by a
    [Cache_poison] in [0, n_proxies) (default 0), every [Config_lose]
    device id in [0, n_proxies + n_mboxes), every link must satisfy
    [link_exists], every event time must be finite, and, replaying the
    events in time order, a [Mbox_recover]/[Ctrl_recover] must be
    preceded by a crash of the same box/replica, a [Link_restore] by a
    failure of the same link, and nothing may fail twice without
    recovering in between.  Corruption events carry no pairing
    constraint — corrupting an empty or crashed table is a no-op at
    fire time, not a schedule error.  Returns a human-readable
    description of the first offending event. *)

val crash_times : t -> (int * float) list
(** The (middlebox id, time) pairs of the crash events, in time order. *)

val corruption_events :
  seed:int ->
  rate:float ->
  horizon:float ->
  n_proxies:int ->
  n_mboxes:int ->
  timed list
(** Generate a deterministic burst of [round (rate * horizon)]
    corruption events, uniform over [\[0, horizon)] and over the five
    corruption kinds (falling back to [Label_drop] for [Cache_poison]
    when [n_proxies = 0]).  Every draw for event [i] comes from
    [Stdx.Rng.derive]d child [i] of [seed], so the burst is a pure
    function of its arguments — stable under [--jobs] slicing and
    under reordering of the sweep that requested it.  Feed
    the result to {!make}.  Raises [Invalid_argument] on a negative or
    non-finite rate, a non-positive horizon, or an empty deployment. *)

val event_to_string : event -> string
