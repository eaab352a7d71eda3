(* OpenMetrics text exposition for registry snapshots.

   One metric family per (group, name) pair — per-site instruments fold
   into a single family with a {site="N"} label.  Families keep registry
   registration order (first occurrence), so the exposition is as
   deterministic as the snapshot it renders.  Counters get the mandated
   [_total] suffix; histograms expose [_bucket]/[_sum]/[_count] plus
   derived [_p50]/[_p99] gauge families (bucket-interpolated, matching
   {!Metrics.percentile}); the document ends with [# EOF]. *)

let float_repr = Esr_util.Json.float_repr

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

let family_name ~prefix (e : Metrics.entry) =
  Printf.sprintf "%s_%s_%s" prefix (sanitize e.group) (sanitize e.name)

let site_label = function
  | None -> ""
  | Some s -> Printf.sprintf "{site=\"%d\"}" s

let buf_snapshot b ~prefix entries =
  (* Group into families, preserving first-occurrence order. *)
  let seen : (string, Metrics.entry list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Metrics.entry) ->
      let fam = family_name ~prefix e in
      match Hashtbl.find_opt seen fam with
      | Some cell -> cell := e :: !cell
      | None ->
          Hashtbl.replace seen fam (ref [ e ]);
          order := fam :: !order)
    entries;
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun fam ->
      let members = List.rev !(Hashtbl.find seen fam) in
      let kind =
        match (List.hd members).view with
        | Metrics.Counter_v _ -> `Counter
        | Metrics.Gauge_v _ -> `Gauge
        | Metrics.Histogram_v _ -> `Histogram
      in
      (match kind with
      | `Counter -> line "# TYPE %s counter" fam
      | `Gauge -> line "# TYPE %s gauge" fam
      | `Histogram -> line "# TYPE %s histogram" fam);
      List.iter
        (fun (e : Metrics.entry) ->
          let labels = site_label e.site in
          match e.view with
          | Metrics.Counter_v v -> line "%s_total%s %s" fam labels (float_repr v)
          | Metrics.Gauge_v v -> line "%s%s %s" fam labels (float_repr v)
          | Metrics.Histogram_v { limits; counts; sum; count } ->
              let label le =
                match e.site with
                | None -> Printf.sprintf "{le=\"%s\"}" le
                | Some s -> Printf.sprintf "{site=\"%d\",le=\"%s\"}" s le
              in
              let cumulative = ref 0 in
              Array.iteri
                (fun i limit ->
                  cumulative := !cumulative + counts.(i);
                  line "%s_bucket%s %d" fam (label (float_repr limit)) !cumulative)
                limits;
              line "%s_bucket%s %d" fam (label "+Inf") count;
              line "%s_sum%s %s" fam labels (float_repr sum);
              line "%s_count%s %d" fam labels count)
        members;
      (* Derived percentile gauges for histogram families. *)
      match kind with
      | `Histogram ->
          List.iter
            (fun q ->
              line "# TYPE %s_p%d gauge" fam q;
              List.iter
                (fun (e : Metrics.entry) ->
                  line "%s_p%d%s %s" fam q (site_label e.site)
                    (float_repr (Metrics.view_percentile e.view (float_of_int q))))
                members)
            [ 50; 99 ]
      | _ -> ())
    (List.rev !order)

let write_snapshot oc ?(prefix = "esr") entries =
  let b = Buffer.create 4096 in
  buf_snapshot b ~prefix entries;
  Buffer.add_string b "# EOF\n";
  output_string oc (Buffer.contents b)
