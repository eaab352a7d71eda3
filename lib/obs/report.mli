(** Post-hoc run reports: terminal dashboard and self-contained HTML.

    Consumes dumps (trace records, an [esr-series/1] document) rather
    than live simulator state, so any earlier run or nemesis trace can be
    rendered.  The charts pick up the derived ESR probe columns (the
    ["esr/"] prefix: replica spread, oracle distance, epsilon budget,
    convergence lag, backlog) and shade fault windows reconstructed from
    the trace's crash/partition events. *)

type input = {
  label : string;
  records : Trace.record list;
  series : Series.dump option;
  profile : Prof.dump option;
  audit : Audit.report option;
}

val make :
  ?label:string ->
  ?series:Series.dump ->
  ?profile:Prof.dump ->
  ?audit:Audit.report ->
  Trace.record list ->
  input

val sites_of : Trace.record list -> int
(** Largest site id referenced, plus one. *)

val fault_windows : Trace.record list -> (float * float) list
(** Intervals with any crashed site or an unhealed partition. *)

val dashboard : input -> string
(** Fixed-width tables: run summary with span accounting and critical-path
    means, fault timeline, downsampled divergence profile, resource growth
    (from [res/] series columns, with per-1k-ms rate annotations),
    host-time phase breakdown (when a profile dump is supplied), slowest
    spans. *)

val html : input -> string
(** One self-contained page (inline CSS + SVG, no external assets). *)
