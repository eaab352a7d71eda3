(* Render a run's trace + series into a terminal dashboard and a
   self-contained HTML report.

   Everything is computed from dumps (JSONL trace records, an
   [esr-series/1] document) rather than live simulator state, so the
   [esrsim report] subcommand can post-process any earlier run.  Derived
   ESR probe columns use the ["esr/"] prefix; those are the columns the
   charts pick up. *)

module Tablefmt = Esr_util.Tablefmt

type input = {
  label : string;
  records : Trace.record list;
  series : Series.dump option;
  profile : Prof.dump option;
  audit : Audit.report option;
}

let make ?(label = "run") ?series ?profile ?audit records =
  { label; records; series; profile; audit }

let sites_of records =
  let open Trace in
  let m = ref 0 in
  let see s = if s + 1 > !m then m := s + 1 in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Msg_sent { src; dst; _ }
      | Msg_dropped { src; dst; _ }
      | Msg_duplicated { src; dst; _ }
      | Msg_delivered { src; dst; _ }
      | Squeue_send { src; dst; _ }
      | Squeue_delivered { src; dst; _ }
      | Squeue_dup { src; dst; _ } ->
          see src;
          see dst
      | Crash { site } | Recover { site } -> see site
      | Update_begin { origin; _ }
      | Update_committed { origin; _ }
      | Update_rejected { origin; _ } ->
          see origin
      | Query_begin { site; _ } | Query_served { site; _ }
      | Query_window { site; _ } | Query_window_closed { site; _ } ->
          see site
      | Mset_enqueued { origin; _ } -> see origin
      | Mset_applied { site; _ }
      | Compensation_fired { site; _ }
      | Volatile_dropped { site; _ }
      | Recovery_replay { site; _ }
      | Checkpoint_cut { site; _ } ->
          see site
      | Partition_event { groups } -> List.iter (List.iter see) groups
      | Heal | Flush_round _ | Converged _ -> ())
    records;
  !m

let span_end records =
  List.fold_left (fun acc (r : Trace.record) -> Float.max acc r.time) 0.0 records

(* Intervals during which any injected fault is active — crashed sites or
   a partition — for shading the charts and annotating the tables. *)
let fault_windows records =
  let open Trace in
  let down = Hashtbl.create 8 in
  let partitioned = ref false in
  let active () = !partitioned || Hashtbl.length down > 0 in
  let windows = ref [] in
  let opened = ref None in
  let step time =
    match (!opened, active ()) with
    | None, true -> opened := Some time
    | Some t0, false ->
        windows := (t0, time) :: !windows;
        opened := None
    | _ -> ()
  in
  List.iter
    (fun { time; ev } ->
      (match ev with
      | Crash { site } -> Hashtbl.replace down site ()
      | Recover { site } -> Hashtbl.remove down site
      | Partition_event _ -> partitioned := true
      | Heal -> partitioned := false
      | _ -> ());
      step time)
    records;
  (match !opened with
  | Some t0 -> windows := (t0, span_end records) :: !windows
  | None -> ());
  List.rev !windows

let fault_events records =
  let open Trace in
  List.filter_map
    (fun { time; ev } ->
      match ev with
      | Crash { site } -> Some (time, Printf.sprintf "crash site %d" site)
      | Recover { site } -> Some (time, Printf.sprintf "recover site %d" site)
      | Partition_event { groups } ->
          Some
            ( time,
              "partition "
              ^ String.concat "|"
                  (List.map
                     (fun g -> String.concat "," (List.map string_of_int g))
                     groups) )
      | Heal -> Some (time, "heal")
      | Volatile_dropped { site; buffered; _ } ->
          Some (time, Printf.sprintf "site %d lost %d buffered MSets" site buffered)
      | Recovery_replay { site; n_actions } ->
          Some (time, Printf.sprintf "site %d replayed %d log actions" site n_actions)
      | Checkpoint_cut { site; folded; reclaimed } ->
          Some
            ( time,
              Printf.sprintf "site %d checkpointed %d log + %d journal entries"
                site folded reclaimed )
      | _ -> None)
    records

let f2 = Tablefmt.cell_float

(* {2 Terminal dashboard} *)

let summary_table input spans =
  let open Trace in
  let n_events = List.length input.records in
  let count p = List.length (List.filter p input.records) in
  let t = Tablefmt.create ~title:(Printf.sprintf "Run summary: %s" input.label)
      ~headers:[ "metric"; "value" ] in
  let row k v = Tablefmt.add_row t [ k; v ] in
  row "trace events" (string_of_int n_events);
  row "sites" (string_of_int (sites_of input.records));
  row "virtual span (ms)" (f2 (span_end input.records));
  row "updates committed" (string_of_int spans.Spans.n_commit_events);
  row "updates rejected"
    (string_of_int (count (fun r -> match r.ev with Update_rejected _ -> true | _ -> false)));
  row "queries served"
    (string_of_int (count (fun r -> match r.ev with Query_served _ -> true | _ -> false)));
  row "msets applied"
    (string_of_int (count (fun r -> match r.ev with Mset_applied _ -> true | _ -> false)));
  row "compensations"
    (string_of_int
       (count (fun r -> match r.ev with Compensation_fired _ -> true | _ -> false)));
  row "retransmitted legs" (string_of_int (Spans.n_retransmit_legs spans));
  row "span trees complete" (Tablefmt.cell_bool (Spans.complete spans));
  let n, bd = Spans.aggregate spans in
  row "committed spans" (string_of_int n);
  row "mean queued (ms)" (f2 bd.Spans.b_queued);
  row "mean in-flight (ms)" (f2 bd.Spans.b_in_flight);
  row "mean blocked (ms)" (f2 bd.Spans.b_blocked);
  (match
     List.find_opt (fun (r : record) -> match r.ev with Converged _ -> true | _ -> false)
       (List.rev input.records)
   with
  | Some { ev = Converged { ok }; _ } -> row "converged" (Tablefmt.cell_bool ok)
  | _ -> ());
  t

let faults_table input =
  let evs = fault_events input.records in
  if evs = [] then None
  else begin
    let t = Tablefmt.create ~title:"Fault timeline" ~headers:[ "t (ms)"; "event" ] in
    List.iter (fun (time, what) -> Tablefmt.add_row t [ f2 time; what ]) evs;
    Some t
  end

let esr_columns (d : Series.dump) =
  let cols = ref [] in
  Array.iteri
    (fun i c ->
      if String.length c > 4 && String.sub c 0 4 = "esr/" then cols := (i, c) :: !cols)
    d.d_columns;
  List.rev !cols

(* Downsample the series to at most [max_rows] evenly spaced rows so the
   terminal table stays readable whatever the sampling cadence was. *)
let downsample max_rows samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n <= max_rows then Array.to_list arr
  else
    List.init max_rows (fun i -> arr.(i * (n - 1) / (max_rows - 1)))

let series_table input =
  match input.series with
  | None -> None
  | Some d ->
      let cols = esr_columns d in
      if cols = [] || d.d_samples = [] then None
      else begin
        let windows = fault_windows input.records in
        let in_fault at = List.exists (fun (t0, t1) -> at >= t0 && at <= t1) windows in
        let headers =
          "t (ms)"
          :: List.map (fun (_, c) -> String.sub c 4 (String.length c - 4)) cols
          @ [ "fault?" ]
        in
        let t = Tablefmt.create ~title:"Divergence profile" ~headers in
        List.iter
          (fun (s : Series.sample) ->
            Tablefmt.add_row t
              (f2 s.at
              :: List.map (fun (i, _) -> f2 s.values.(i)) cols
              @ [ (if in_fault s.at then "*" else "") ]))
          (downsample 16 d.d_samples);
        Some t
      end

(* {2 Resources panel} *)

(* The harness registers one [res/<metric>.sN] gauge per site; sum them
   per metric so the panel charts system-wide footprint.  Returns the
   metric names (registration order) and synthesized samples whose
   [values.(i)] is metric [i]'s total. *)
let res_totals (d : Series.dump) =
  let metrics = ref [] and index = Hashtbl.create 16 in
  let groups = Array.make (Array.length d.d_columns) (-1) in
  Array.iteri
    (fun i c ->
      if String.length c > 4 && String.sub c 0 4 = "res/" then begin
        let short = String.sub c 4 (String.length c - 4) in
        let metric =
          match String.rindex_opt short '.' with
          | Some dot
            when dot + 2 <= String.length short && short.[dot + 1] = 's' ->
              String.sub short 0 dot
          | _ -> short
        in
        let g =
          match Hashtbl.find_opt index metric with
          | Some g -> g
          | None ->
              let g = Hashtbl.length index in
              Hashtbl.add index metric g;
              metrics := metric :: !metrics;
              g
        in
        groups.(i) <- g
      end)
    d.d_columns;
  let metrics = List.rev !metrics in
  let n = List.length metrics in
  if n = 0 then ([], [])
  else
    ( metrics,
      List.map
        (fun (s : Series.sample) ->
          let values = Array.make n 0.0 in
          Array.iteri
            (fun i g ->
              if g >= 0 && i < Array.length s.Series.values then
                values.(g) <- values.(g) +. s.Series.values.(i))
            groups;
          { Series.at = s.Series.at; values })
        d.d_samples )

(* Start/end/growth-rate annotation per resource, system-wide.  The rate
   is per 1000 virtual ms, taken over the sampled window — for the
   monotone series (logs, cumulative journal appends) this is the
   standing growth the soak experiment quantifies. *)
let resources_table input =
  match input.series with
  | None -> None
  | Some d -> (
      match res_totals d with
      | [], _ | _, ([] | [ _ ]) -> None
      | metrics, samples ->
          let first = List.hd samples in
          let last = List.nth samples (List.length samples - 1) in
          let dt = last.Series.at -. first.Series.at in
          let t =
            Tablefmt.create ~title:"Resource growth (summed over sites)"
              ~headers:[ "resource"; "start"; "end"; "delta"; "per 1k ms" ]
          in
          List.iteri
            (fun i metric ->
              let v0 = first.Series.values.(i)
              and v1 = last.Series.values.(i) in
              let delta = v1 -. v0 in
              let rate = if dt > 0.0 then delta /. dt *. 1000.0 else 0.0 in
              Tablefmt.add_row t [ metric; f2 v0; f2 v1; f2 delta; f2 rate ])
            metrics;
          Some t)

(* {2 Profile panel} *)

let profile_table input =
  match input.profile with
  | None -> None
  | Some (p : Prof.dump) ->
      let total_s =
        List.fold_left (fun acc (_, a) -> acc +. a.Prof.seconds) 0.0 p.Prof.d_phases
      in
      if total_s <= 0.0 then None
      else begin
        let t =
          Tablefmt.create ~title:"Host-time phase breakdown"
            ~headers:[ "phase"; "spans"; "total ms"; "mean us"; "alloc MB"; "share" ]
        in
        List.iter
          (fun (phase, (a : Prof.agg)) ->
            if a.Prof.count > 0 then
              Tablefmt.add_row t
                [
                  Prof.phase_name phase;
                  string_of_int a.Prof.count;
                  f2 (a.Prof.seconds *. 1e3);
                  f2 (a.Prof.seconds /. float_of_int a.Prof.count *. 1e6);
                  f2 (a.Prof.alloc_bytes /. 1048576.0);
                  Printf.sprintf "%.1f%%" (a.Prof.seconds /. total_s *. 100.0);
                ])
          p.Prof.d_phases;
        if p.Prof.d_spans_dropped > 0 then
          Tablefmt.add_row t
            [
              Printf.sprintf "(%d spans dropped)" p.Prof.d_spans_dropped;
              ""; ""; ""; ""; "";
            ];
        Some t
      end

let slowest_table spans =
  let committed =
    List.filter_map
      (fun (s : Spans.span) ->
        match s.s_outcome with
        | Committed at -> Some (s, at -. s.s_began)
        | _ -> None)
      spans.Spans.spans
  in
  if committed = [] then None
  else begin
    let sorted =
      List.sort
        (fun (a, la) (b, lb) ->
          match compare lb la with 0 -> compare a.Spans.s_u b.Spans.s_u | c -> c)
        committed
    in
    let top = List.filteri (fun i _ -> i < 5) sorted in
    let t =
      Tablefmt.create ~title:"Slowest committed spans"
        ~headers:[ "u"; "origin"; "latency"; "queued"; "in-flight"; "blocked"; "msets" ]
    in
    List.iter
      (fun ((s : Spans.span), latency) ->
        let bd = Spans.span_breakdown s in
        Tablefmt.add_row t
          [
            string_of_int s.s_u;
            string_of_int s.s_origin;
            f2 latency;
            f2 bd.Spans.b_queued;
            f2 bd.Spans.b_in_flight;
            f2 bd.Spans.b_blocked;
            string_of_int (List.length s.s_msets);
          ])
      top;
    Some t
  end

(* {2 Audit panel} *)

let audit_tables input =
  match input.audit with
  | None -> []
  | Some (r : Audit.report) ->
      let s = r.Audit.summary in
      let cert =
        Tablefmt.create
          ~title:(Printf.sprintf "Audit certificate: %s" r.Audit.label)
          ~headers:[ "metric"; "value" ]
      in
      let row k v = Tablefmt.add_row cert [ k; v ] in
      row "status"
        (if Audit.ok r then "CERTIFIED"
         else Printf.sprintf "%d VIOLATIONS" (List.length r.Audit.violations));
      row "events audited" (string_of_int s.Audit.s_events);
      row "queries (bounded / at bound)"
        (Printf.sprintf "%d (%d / %d)" s.Audit.s_queries s.Audit.s_bounded
           s.Audit.s_at_bound);
      row "inconsistency charged" (string_of_int s.Audit.s_charged_total);
      row "query windows (exact overlap)"
        (Printf.sprintf "%d (%d)" s.Audit.s_windows s.Audit.s_windows_exact);
      row "crashes (max log / max replay)"
        (Printf.sprintf "%d (%d / %d)" s.Audit.s_crashes s.Audit.s_max_crash_log
           s.Audit.s_max_replay);
      row "checkpoint cuts" (string_of_int s.Audit.s_cuts);
      row "converged"
        (match s.Audit.s_converged with
        | Some ok -> Tablefmt.cell_bool ok
        | None -> "n/a");
      let ledger = r.Audit.ledger in
      if ledger <> [] then begin
        let n = List.length ledger in
        let fsum f = List.fold_left (fun acc e -> acc +. f e) 0.0 ledger in
        let charged_max =
          List.fold_left (fun acc e -> Stdlib.max acc e.Audit.l_charged) 0 ledger
        in
        let oracle = List.filter_map (fun e -> e.Audit.l_oracle) ledger in
        row "ledger: mean / max charged"
          (Printf.sprintf "%s / %d"
             (f2 (fsum (fun e -> float_of_int e.Audit.l_charged) /. float_of_int n))
             charged_max);
        row "ledger: reconstructed windows"
          (string_of_int
             (List.length
                (List.filter (fun e -> e.Audit.l_reconstructed <> None) ledger)));
        if oracle <> [] then
          row "ledger: mean / max oracle distance"
            (Printf.sprintf "%s / %s"
               (f2
                  (List.fold_left ( +. ) 0.0 oracle
                  /. float_of_int (List.length oracle)))
               (f2 (List.fold_left Float.max 0.0 oracle)))
      end;
      let tables = [ cert ] in
      if r.Audit.violations = [] then tables
      else begin
        let vt =
          Tablefmt.create ~title:"Audit violations (first event pinned)"
            ~headers:[ "t (ms)"; "kind"; "invariant"; "event"; "detail" ]
        in
        List.iter
          (fun (vi : Audit.violation) ->
            Tablefmt.add_row vt
              [
                f2 vi.Audit.v_time;
                Audit.kind_to_string vi.Audit.v_kind;
                vi.Audit.v_invariant;
                vi.Audit.v_event;
                vi.Audit.v_detail;
              ])
          r.Audit.violations;
        tables @ [ vt ]
      end

let dashboard input =
  let spans = Spans.reconstruct input.records in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Tablefmt.render (summary_table input spans));
  List.iter
    (fun t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t))
    (audit_tables input);
  (match faults_table input with
  | Some t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t)
  | None -> ());
  (match series_table input with
  | Some t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t)
  | None -> ());
  (match resources_table input with
  | Some t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t)
  | None -> ());
  (match profile_table input with
  | Some t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t)
  | None -> ());
  (match slowest_table spans with
  | Some t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Tablefmt.render t)
  | None -> ());
  Buffer.contents b

(* {2 HTML report} *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#ff7f0e"; "#9467bd"; "#8c564b"; "#17becf" |]

let fr = Esr_util.Json.float_repr

(* Inline SVG line chart: one polyline per column, fault windows shaded. *)
let svg_chart ~title ~windows ~(samples : Series.sample list) cols =
  let w = 760.0 and h = 260.0 in
  let ml = 54.0 and mr = 12.0 and mt = 26.0 and mb = 30.0 in
  let pw = w -. ml -. mr and ph = h -. mt -. mb in
  let ts = List.map (fun (s : Series.sample) -> s.at) samples in
  let t0 = List.fold_left Float.min infinity ts in
  let t1 = List.fold_left Float.max neg_infinity ts in
  let t1 = if t1 <= t0 then t0 +. 1.0 else t1 in
  let vmax =
    List.fold_left
      (fun acc (s : Series.sample) ->
        List.fold_left (fun acc (i, _) -> Float.max acc s.values.(i)) acc cols)
      0.0 samples
  in
  let vmax = if vmax <= 0.0 then 1.0 else vmax *. 1.05 in
  let x at = ml +. ((at -. t0) /. (t1 -. t0) *. pw) in
  let y v = mt +. ph -. (v /. vmax *. ph) in
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out
    "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
     xmlns=\"http://www.w3.org/2000/svg\" style=\"background:#fff;font-family:monospace\">\n"
    (fr w) (fr h) (fr w) (fr h);
  out "<text x=\"%s\" y=\"16\" font-size=\"13\" fill=\"#333\">%s</text>\n" (fr ml)
    (html_escape title);
  (* Fault-window shading. *)
  List.iter
    (fun (f0, f1) ->
      let x0 = Float.max ml (x f0) and x1 = Float.min (ml +. pw) (x f1) in
      if x1 > x0 then
        out
          "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" fill=\"#d62728\" \
           fill-opacity=\"0.08\"/>\n"
          (fr x0) (fr mt) (fr (x1 -. x0)) (fr ph))
    windows;
  (* Axes. *)
  out
    "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#999\" stroke-width=\"1\"/>\n"
    (fr ml) (fr (mt +. ph)) (fr (ml +. pw)) (fr (mt +. ph));
  out
    "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#999\" stroke-width=\"1\"/>\n"
    (fr ml) (fr mt) (fr ml) (fr (mt +. ph));
  out
    "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">%s</text>\n"
    (fr (ml -. 6.0)) (fr (mt +. 4.0)) (fr vmax);
  out
    "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">0</text>\n"
    (fr (ml -. 6.0)) (fr (mt +. ph));
  out "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#666\">%s ms</text>\n" (fr ml)
    (fr (h -. 10.0)) (fr t0);
  out
    "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">%s ms</text>\n"
    (fr (ml +. pw)) (fr (h -. 10.0)) (fr t1);
  (* One polyline per column plus its legend entry. *)
  List.iteri
    (fun k (i, name) ->
      let color = palette.(k mod Array.length palette) in
      out "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\"" color;
      List.iter
        (fun (s : Series.sample) -> out "%s,%s " (fr (x s.at)) (fr (y s.values.(i))))
        samples;
      out "\"/>\n";
      out "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s</text>\n"
        (fr (ml +. 6.0 +. (140.0 *. float_of_int k)))
        (fr (mt -. 4.0)) color (html_escape name))
    cols;
  out "</svg>\n";
  Buffer.contents b

let html_table (t : Tablefmt.t) = "<pre>" ^ html_escape (Tablefmt.render t) ^ "</pre>\n"

let html input =
  let spans = Spans.reconstruct input.records in
  let windows = fault_windows input.records in
  let b = Buffer.create 16384 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>esrsim report: \
     %s</title>\n"
    (html_escape input.label);
  out
    "<style>body{font-family:monospace;max-width:860px;margin:2em \
     auto;color:#222}h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.6em}pre{background:#f6f6f6;padding:8px;overflow-x:auto}</style></head><body>\n";
  out "<h1>esrsim report: %s</h1>\n" (html_escape input.label);
  out "%s" (html_table (summary_table input spans));
  List.iter (fun t -> out "%s" (html_table t)) (audit_tables input);
  (match input.series with
  | Some d when d.d_samples <> [] ->
      let cols = esr_columns d in
      let named prefix =
        List.filter_map
          (fun (i, c) ->
            let short = String.sub c 4 (String.length c - 4) in
            if String.length short >= String.length prefix
               && String.sub short 0 (String.length prefix) = prefix
            then Some (i, short)
            else None)
          cols
      in
      let divergence = named "spread" @ named "oracle" in
      let budget = named "eps" in
      let lag = named "conv" @ named "backlog" in
      out "<h2>Divergence vs. virtual time</h2>\n";
      if divergence <> [] then
        out "%s"
          (svg_chart ~title:"replica spread / oracle distance (fault windows shaded)"
             ~windows ~samples:d.d_samples divergence);
      if lag <> [] then
        out "%s"
          (svg_chart ~title:"convergence lag / MSet backlog" ~windows
             ~samples:d.d_samples lag);
      if budget <> [] then begin
        out "<h2>Epsilon budget</h2>\n";
        out "%s"
          (svg_chart ~title:"inconsistency charged vs. limit" ~windows
             ~samples:d.d_samples budget)
      end;
      (match res_totals d with
      | [], _ | _, ([] | [ _ ]) -> ()
      | metrics, samples ->
          out "<h2>Resources</h2>\n";
          let first = List.hd samples in
          let last = List.nth samples (List.length samples - 1) in
          let dt = last.Series.at -. first.Series.at in
          let indexed = List.mapi (fun i m -> (i, m)) metrics in
          let pick names = List.filter (fun (_, m) -> List.mem m names) indexed in
          let growth = pick [ "log_entries"; "wal_appended"; "journal_enqueued" ] in
          let standing = pick [ "wal_entries"; "journal_depth" ] in
          if growth <> [] then
            out "%s"
              (svg_chart ~title:"log / journal growth (summed over sites)"
                 ~windows ~samples growth);
          if standing <> [] then
            out "%s"
              (svg_chart ~title:"standing journal depth (summed over sites)"
                 ~windows ~samples standing);
          (* Growth-rate annotations: the per-1k-ms slope of each series
             over the sampled window. *)
          out "<p>";
          List.iteri
            (fun i metric ->
              let delta = last.Series.values.(i) -. first.Series.values.(i) in
              let rate = if dt > 0.0 then delta /. dt *. 1000.0 else 0.0 in
              out "%s: %+.1f (%.2f/1k ms)%s" (html_escape metric) delta rate
                (if i = List.length metrics - 1 then "" else " &middot; "))
            metrics;
          out "</p>\n")
  | _ -> out "<p>No series dump supplied; charts omitted.</p>\n");
  (match profile_table input with
  | Some t ->
      out "<h2>Host-time profile</h2>\n";
      out "%s" (html_table t)
  | None -> ());
  (match faults_table input with Some t -> out "%s" (html_table t) | None -> ());
  (match series_table input with Some t -> out "%s" (html_table t) | None -> ());
  (match resources_table input with Some t -> out "%s" (html_table t) | None -> ());
  (match slowest_table spans with Some t -> out "%s" (html_table t) | None -> ());
  out "<h2>Span accounting</h2><pre>commit events: %d\ncommitted span trees: %d\ncomplete: %s\norphan msets: %d\nretransmitted legs: %d</pre>\n"
    spans.Spans.n_commit_events (Spans.n_committed spans)
    (if Spans.complete spans then "yes" else "no")
    (List.length spans.Spans.orphan_msets)
    (Spans.n_retransmit_legs spans);
  out "</body></html>\n";
  Buffer.contents b
