(* [perf.exe compare A.json B.json]: per-metric ratios B/A with their
   base, flagging changes beyond the metric's bound in BENCHMARK.json
   (end-to-end metrics, in their worse direction) or beyond A's
   interquartile range.  Only metrics marked exact decide the exit
   code: a difference there is a behaviour change, not noise. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let load path =
  match Json.read_file path with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let num k j = Option.bind (Json.member k j) Json.to_num

(* name -> (bound, lower is better) for every end-to-end metric. *)
let bounds path =
  Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" (load path)))
  |> List.filter_map (fun m ->
         match (Option.bind (Json.member "name" m) Json.to_str, num "bound" m) with
         | Some name, Some bound ->
           Some (name, (bound, Json.member "better" m = Some (Json.Str "lower")))
         | _ -> None)

let run a_path b_path =
  let a = load a_path and b = load b_path in
  let bounds = bounds "BENCHMARK.json" in
  let workloads j = Json.to_assoc (Option.value ~default:Json.Null (Json.member "workloads" j)) in
  let exact_diffs = ref 0 and flagged = ref 0 in
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname (workloads b) with
      | None -> Printf.printf "%s: missing from %s\n" wname b_path
      | Some wb ->
        let metrics w section =
          Json.to_assoc (Option.value ~default:Json.Null (Json.member section w))
        in
        List.iter
          (fun section ->
            let mb = metrics wb section in
            List.iter
              (fun (name, ma) ->
                match (num "value" ma, Option.bind (List.assoc_opt name mb) (num "value")) with
                | Some va, Some vb ->
                  let ratio = if va = 0.0 then if vb = 0.0 then 1.0 else infinity else vb /. va in
                  let flags =
                    (if Json.member "exact" ma = Some (Json.Bool true) && va <> vb then begin
                       incr exact_diffs;
                       [ "EXACT-DIFFERS" ]
                     end
                     else [])
                    @ (match List.assoc_opt name bounds with
                      | Some (bound, lower) ->
                        let worse = if lower then ratio -. 1.0 else 1.0 -. ratio in
                        if worse > bound then [ Printf.sprintf "BEYOND-BOUND(%g)" bound ] else []
                      | None -> [])
                    @
                    match (num "q1" ma, num "q3" ma) with
                    | Some q1, Some q3 when Float.abs (vb -. va) > q3 -. q1 -> [ "BEYOND-IQR" ]
                    | _ -> []
                  in
                  if flags <> [] then incr flagged;
                  Printf.printf "%-14s %-40s %12s -> %12s  x%.4f  %s\n" wname name
                    (Json.number va) (Json.number vb) ratio (String.concat " " flags)
                | _ -> Printf.printf "%-14s %-40s missing\n" wname name)
              (metrics wa section))
          [ "metrics"; "layers" ])
    (workloads a);
  Printf.printf "%d metric(s) flagged, %d exact metric(s) differ\n" !flagged !exact_diffs;
  if !exact_diffs > 0 then 1 else 0
