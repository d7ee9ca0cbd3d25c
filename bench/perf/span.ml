(* In-memory spans recorded by the benchmark around its calls into the
   program: one per workload, set-up phase, repetition and layer-replay
   batch.  Off unless a traced run enables them; written out as Chrome
   trace-event JSON (Perfetto, chrome://tracing) when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 = the process itself *)
  name : string;
  start : float; (** {!now} at the start *)
  dur : float;   (** seconds *)
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let current = ref 0

(* The benchmark's clock: CPU seconds (user + system) of this
   single-domain process.  On a shared machine wall time also counts
   the time other processes take the core away; CPU time does not. *)
let now = Sys.time

(* [f ()] under a span named [name], parented to the innermost open
   span.  Returns the result and the span's duration in seconds; the
   duration is measured whether or not spans are being kept. *)
let timed name f =
  let parent = !current in
  let id = !next_id in
  incr next_id;
  current := id;
  let start = now () in
  let finish () =
    let dur = now () -. start in
    current := parent;
    if !enabled then recorded := { id; parent; name; start; dur } :: !recorded;
    dur
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let with_ name f = fst (timed name f)

let all () = List.rev !recorded

let chrome_json spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = Json.Num (Float.round (x *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("ph", Json.Str "X");
                   ("ts", us (s.start -. t0));
                   ("dur", us s.dur);
                   ("pid", Json.Num 1.0);
                   ("tid", Json.Num 1.0);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent));
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
