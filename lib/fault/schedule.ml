type event =
  | Mbox_crash of int
  | Mbox_recover of int
  | Link_fail of int * int
  | Link_restore of int * int
  | Ctrl_crash of int
  | Ctrl_recover of int
  | Label_corrupt of int
  | Label_drop of int
  | Cache_poison of int
  | Config_lose of int
  | Stale_resurrect of int

type timed = { at : float; what : event }

type t = {
  events : timed list;
  link_loss : float;
  control_loss : float;
  loss_seed : int;
}

let event_to_string = function
  | Mbox_crash id -> Printf.sprintf "mbox%d crash" id
  | Mbox_recover id -> Printf.sprintf "mbox%d recover" id
  | Link_fail (u, v) -> Printf.sprintf "link %d-%d fail" u v
  | Link_restore (u, v) -> Printf.sprintf "link %d-%d restore" u v
  | Ctrl_crash id -> Printf.sprintf "controller replica %d crash" id
  | Ctrl_recover id -> Printf.sprintf "controller replica %d recover" id
  | Label_corrupt id -> Printf.sprintf "mbox%d label-entry corrupt" id
  | Label_drop id -> Printf.sprintf "mbox%d label-entry silent drop" id
  | Cache_poison id -> Printf.sprintf "proxy%d flow-cache poison" id
  | Config_lose id -> Printf.sprintf "device %d config-install silently lost" id
  | Stale_resurrect id -> Printf.sprintf "mbox%d stale-entry resurrection" id

let check_probability name p =
  if not (p >= 0.0 && p < 1.0) then
    invalid_arg (Printf.sprintf "Schedule.make: %s must be in [0, 1)" name)

let make ?(link_loss = 0.0) ?(control_loss = 0.0) ?(loss_seed = 1) events =
  check_probability "link_loss" link_loss;
  check_probability "control_loss" control_loss;
  List.iter
    (fun { at; what } ->
      (* [not (at >= 0.0)] catches NaN along with negatives; the finite
         check additionally rejects +infinity, which would otherwise
         park an event past every horizon and silently never fire. *)
      if not (Float.is_finite at && at >= 0.0) then
        invalid_arg
          (Printf.sprintf "Schedule.make: %s scheduled at non-finite or negative time"
             (event_to_string what)))
    events;
  (* Stable sort: events at equal times keep the caller's order. *)
  let events = List.stable_sort (fun a b -> compare a.at b.at) events in
  { events; link_loss; control_loss; loss_seed }

let empty = make []

let is_empty t =
  t.events = [] && t.link_loss = 0.0 && t.control_loss = 0.0

let has_link_events t =
  List.exists
    (fun { what; _ } ->
      match what with
      | Link_fail _ | Link_restore _ -> true
      | Mbox_crash _ | Mbox_recover _ | Ctrl_crash _ | Ctrl_recover _
      | Label_corrupt _ | Label_drop _ | Cache_poison _ | Config_lose _
      | Stale_resurrect _ ->
        false)
    t.events

let has_corruption_events t =
  List.exists
    (fun { what; _ } ->
      match what with
      | Label_corrupt _ | Label_drop _ | Cache_poison _ | Config_lose _
      | Stale_resurrect _ ->
        true
      | Mbox_crash _ | Mbox_recover _ | Link_fail _ | Link_restore _
      | Ctrl_crash _ | Ctrl_recover _ ->
        false)
    t.events

let validate ?(n_controllers = 0) ?(n_proxies = 0) ~n_mboxes ~link_exists t =
  (* Replay the event list in time order against the deployment,
     tracking which boxes are down and which links are cut, so that
     recoveries without a preceding failure are caught here instead of
     blowing up (or silently no-opping) deep inside a run. *)
  let down = Hashtbl.create 8 in
  let cut = Hashtbl.create 8 in
  let ctrl_down = Hashtbl.create 4 in
  let link_key u v = if u <= v then (u, v) else (v, u) in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go = function
    | [] -> Ok ()
    | { at; what } :: rest -> (
        if not (Float.is_finite at) then
          err "t=%g: %s: non-finite event time" at (event_to_string what)
        else
        match what with
        | Ctrl_crash id ->
            if id < 0 || id >= n_controllers then
              err "t=%g: %s: unknown controller replica (run has %d)" at
                (event_to_string what) n_controllers
            else if Hashtbl.mem ctrl_down id then
              err "t=%g: %s: replica is already down" at (event_to_string what)
            else (
              Hashtbl.replace ctrl_down id ();
              go rest)
        | Ctrl_recover id ->
            if id < 0 || id >= n_controllers then
              err "t=%g: %s: unknown controller replica (run has %d)" at
                (event_to_string what) n_controllers
            else if not (Hashtbl.mem ctrl_down id) then
              err "t=%g: %s: no preceding crash" at (event_to_string what)
            else (
              Hashtbl.remove ctrl_down id;
              go rest)
        | Mbox_crash id ->
            if id < 0 || id >= n_mboxes then
              err "t=%g: %s: unknown middlebox (deployment has %d)" at
                (event_to_string what) n_mboxes
            else if Hashtbl.mem down id then
              err "t=%g: %s: middlebox is already down" at
                (event_to_string what)
            else (
              Hashtbl.replace down id ();
              go rest)
        | Mbox_recover id ->
            if id < 0 || id >= n_mboxes then
              err "t=%g: %s: unknown middlebox (deployment has %d)" at
                (event_to_string what) n_mboxes
            else if not (Hashtbl.mem down id) then
              err "t=%g: %s: no preceding crash" at (event_to_string what)
            else (
              Hashtbl.remove down id;
              go rest)
        | Link_fail (u, v) ->
            if not (link_exists u v) then
              err "t=%g: %s: no such link in the topology" at
                (event_to_string what)
            else if Hashtbl.mem cut (link_key u v) then
              err "t=%g: %s: link is already down" at (event_to_string what)
            else (
              Hashtbl.replace cut (link_key u v) ();
              go rest)
        | Link_restore (u, v) ->
            if not (link_exists u v) then
              err "t=%g: %s: no such link in the topology" at
                (event_to_string what)
            else if not (Hashtbl.mem cut (link_key u v)) then
              err "t=%g: %s: no preceding failure" at (event_to_string what)
            else (
              Hashtbl.remove cut (link_key u v);
              go rest)
        | Label_corrupt id | Label_drop id | Stale_resurrect id ->
            (* Corrupting a crashed box is meaningless (its state is
               gone), but scheduling one is not an error: the event
               simply finds nothing to corrupt at fire time.  Only the
               target's existence is checked here. *)
            if id < 0 || id >= n_mboxes then
              err "t=%g: %s: unknown middlebox (deployment has %d)" at
                (event_to_string what) n_mboxes
            else go rest
        | Cache_poison id ->
            if id < 0 || id >= n_proxies then
              err "t=%g: %s: unknown proxy (deployment has %d)" at
                (event_to_string what) n_proxies
            else go rest
        | Config_lose id ->
            (* Device indexing is proxies-first: ids in [0, n_proxies)
               name proxies, [n_proxies, n_proxies + n_mboxes) name
               middleboxes — the same space the live control plane's
               per-device version vector uses. *)
            if id < 0 || id >= n_proxies + n_mboxes then
              err "t=%g: %s: unknown device (deployment has %d)" at
                (event_to_string what)
                (n_proxies + n_mboxes)
            else go rest)
  in
  go t.events

let crash_times t =
  List.filter_map
    (fun { at; what } ->
      match what with Mbox_crash id -> Some (id, at) | _ -> None)
    t.events

(* Every draw for event [i] comes from the [i]-th child stream of the
   seed, so the generated burst is a pure function of (seed, i): the
   same schedule comes out whatever --jobs sliced the sweep that asked
   for it. *)
let corruption_events ~seed ~rate ~horizon ~n_proxies ~n_mboxes =
  if not (Float.is_finite rate && rate >= 0.0) then
    invalid_arg "Schedule.corruption_events: rate must be finite and >= 0";
  if not (Float.is_finite horizon && horizon > 0.0) then
    invalid_arg "Schedule.corruption_events: horizon must be finite and positive";
  if n_mboxes < 1 then
    invalid_arg "Schedule.corruption_events: n_mboxes must be >= 1";
  if n_proxies < 0 then
    invalid_arg "Schedule.corruption_events: n_proxies must be >= 0";
  let root = Stdx.Rng.create seed in
  let count = int_of_float (Float.round (rate *. horizon)) in
  List.init count (fun i ->
      let c = Stdx.Rng.derive root i in
      let at = Stdx.Rng.float c horizon in
      let what =
        match Stdx.Rng.int c 5 with
        | 0 -> Label_corrupt (Stdx.Rng.int c n_mboxes)
        | 1 -> Label_drop (Stdx.Rng.int c n_mboxes)
        | 2 when n_proxies > 0 -> Cache_poison (Stdx.Rng.int c n_proxies)
        | 2 -> Label_drop (Stdx.Rng.int c n_mboxes)
        | 3 -> Config_lose (Stdx.Rng.int c (n_proxies + n_mboxes))
        | _ -> Stale_resurrect (Stdx.Rng.int c n_mboxes)
      in
      { at; what })
