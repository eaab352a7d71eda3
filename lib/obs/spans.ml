(* Causal span reconstruction over a trace dump.

   The trace vocabulary carries two id spaces: the harness stamps update
   lifecycles with [u] (Update_begin/Update_committed/Update_rejected)
   while the methods stamp MSet propagation with [et]
   (Mset_enqueued/Mset_applied).  The two never appear in one record, but
   every method enqueues synchronously inside submit (COMPE's later saga
   steps being the one asynchronous exception), so an Mset_enqueued at
   origin [o] belongs to the most recently begun still-open update at
   [o].  Root spans keyed on [u] are exact — the completeness check
   relies only on those; MSet legs are a best-effort causal attachment
   and orphans (an enqueue missing from the dump, replayed applies) are
   kept separately rather than guessed at. *)

type leg = {
  l_site : int;
  l_first_apply : float;
  l_last_apply : float;
  l_applies : int;  (* > 1 means duplicate delivery, retransmit or replay *)
}

type mset = {
  m_et : int;
  m_origin : int;
  m_enqueued : float option;  (* [None]: applies seen without an enqueue *)
  m_n_ops : int;
  m_legs : leg list;  (* by site *)
}

type outcome = Committed of float | Rejected of float * string | Unresolved

type span = {
  s_u : int;
  s_origin : int;
  s_began : float;
  s_n_ops : int;
  s_outcome : outcome;
  s_msets : mset list;  (* enqueue order *)
}

type breakdown = { b_queued : float; b_in_flight : float; b_blocked : float }

type t = {
  spans : span list;  (* begin order *)
  orphan_msets : mset list;
  n_commit_events : int;
  unmatched_commits : int list;  (* u's with no Update_begin in the dump *)
  duplicate_commits : int list;
}

(* Mutable builders; frozen into the public records at the end. *)
type mset_b = {
  mb_et : int;
  mb_origin : int;
  mb_enqueued : float option;
  mutable mb_n_ops : int;
  mb_legs : (int, float * float * int) Hashtbl.t;  (* site -> first, last, n *)
}

type span_b = {
  sb_u : int;
  sb_origin : int;
  sb_began : float;
  sb_n_ops : int;
  mutable sb_outcome : outcome;
  mutable sb_msets : int list;  (* ets, reverse enqueue order *)
}

let reconstruct records =
  let open Trace in
  let spans_tbl : (int, span_b) Hashtbl.t = Hashtbl.create 256 in
  let span_order = ref [] in
  (* Open (begun, unresolved) updates per origin, most recent first. *)
  let open_by_origin : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let msets_tbl : (int, mset_b) Hashtbl.t = Hashtbl.create 256 in
  let mset_owner : (int, int option) Hashtbl.t = Hashtbl.create 256 in
  let n_commit_events = ref 0 in
  let unmatched = ref [] in
  let duplicates = ref [] in
  let close_update ~u ~origin outcome =
    match Hashtbl.find_opt spans_tbl u with
    | None -> unmatched := u :: !unmatched
    | Some sb ->
        (match sb.sb_outcome with
        | Unresolved -> sb.sb_outcome <- outcome
        | _ -> duplicates := u :: !duplicates);
        let opens = Option.value ~default:[] (Hashtbl.find_opt open_by_origin origin) in
        Hashtbl.replace open_by_origin origin (List.filter (fun u' -> u' <> u) opens)
  in
  List.iter
    (fun { time; ev } ->
      match ev with
      | Update_begin { u; origin; n_ops } ->
          if not (Hashtbl.mem spans_tbl u) then begin
            Hashtbl.replace spans_tbl u
              {
                sb_u = u;
                sb_origin = origin;
                sb_began = time;
                sb_n_ops = n_ops;
                sb_outcome = Unresolved;
                sb_msets = [];
              };
            span_order := u :: !span_order;
            let opens = Option.value ~default:[] (Hashtbl.find_opt open_by_origin origin) in
            Hashtbl.replace open_by_origin origin (u :: opens)
          end
      | Update_committed { u; origin; latency = _ } ->
          incr n_commit_events;
          close_update ~u ~origin (Committed time)
      | Update_rejected { u; origin; reason } ->
          close_update ~u ~origin (Rejected (time, reason))
      | Mset_enqueued { et; origin; n_ops; _ } ->
          if not (Hashtbl.mem msets_tbl et) then begin
            Hashtbl.replace msets_tbl et
              {
                mb_et = et;
                mb_origin = origin;
                mb_enqueued = Some time;
                mb_n_ops = n_ops;
                mb_legs = Hashtbl.create 8;
              };
            let owner =
              match Hashtbl.find_opt open_by_origin origin with
              | Some (u :: _) -> Some u
              | _ -> None
            in
            Hashtbl.replace mset_owner et owner;
            match owner with
            | Some u ->
                let sb = Hashtbl.find spans_tbl u in
                sb.sb_msets <- et :: sb.sb_msets
            | None -> ()
          end
      | Mset_applied { et; site; n_ops; _ } ->
          let mb =
            match Hashtbl.find_opt msets_tbl et with
            | Some mb -> mb
            | None ->
                (* Apply without an enqueue in the dump: a truncated dump
                   or a recovery replay of a pre-trace MSet.  Keep it as an
                   orphan so every apply is accounted for. *)
                let mb =
                  {
                    mb_et = et;
                    mb_origin = -1;
                    mb_enqueued = None;
                    mb_n_ops = n_ops;
                    mb_legs = Hashtbl.create 8;
                  }
                in
                Hashtbl.replace msets_tbl et mb;
                Hashtbl.replace mset_owner et None;
                mb
          in
          (match Hashtbl.find_opt mb.mb_legs site with
          | None -> Hashtbl.replace mb.mb_legs site (time, time, 1)
          | Some (first, _, n) -> Hashtbl.replace mb.mb_legs site (first, time, n + 1))
      | _ -> ())
    records;
  let freeze_mset mb =
    let legs =
      Hashtbl.fold
        (fun site (first, last, n) acc ->
          { l_site = site; l_first_apply = first; l_last_apply = last; l_applies = n } :: acc)
        mb.mb_legs []
      |> List.sort (fun a b -> compare a.l_site b.l_site)
    in
    {
      m_et = mb.mb_et;
      m_origin = mb.mb_origin;
      m_enqueued = mb.mb_enqueued;
      m_n_ops = mb.mb_n_ops;
      m_legs = legs;
    }
  in
  let spans =
    List.rev_map
      (fun u ->
        let sb = Hashtbl.find spans_tbl u in
        let msets =
          List.rev_map (fun et -> freeze_mset (Hashtbl.find msets_tbl et)) sb.sb_msets
        in
        {
          s_u = sb.sb_u;
          s_origin = sb.sb_origin;
          s_began = sb.sb_began;
          s_n_ops = sb.sb_n_ops;
          s_outcome = sb.sb_outcome;
          s_msets = msets;
        })
      !span_order
  in
  let orphan_msets =
    Hashtbl.fold
      (fun et owner acc -> if owner = None then freeze_mset (Hashtbl.find msets_tbl et) :: acc else acc)
      mset_owner []
    |> List.sort (fun a b -> compare a.m_et b.m_et)
  in
  {
    spans;
    orphan_msets;
    n_commit_events = !n_commit_events;
    unmatched_commits = List.rev !unmatched;
    duplicate_commits = List.rev !duplicates;
  }

let n_committed t =
  List.length (List.filter (fun s -> match s.s_outcome with Committed _ -> true | _ -> false) t.spans)

(* Every Update_committed in the dump maps to exactly one root span. *)
let complete t =
  t.unmatched_commits = [] && t.duplicate_commits = [] && n_committed t = t.n_commit_events

(* Critical-path decomposition of one update span:
   - queued: submit to first MSet enqueue (sequencer/buffer wait at the
     origin before the update hits the replication fabric);
   - in-flight: the fastest leg's enqueue-to-first-apply time (pure
     transport: what the network took with no ordering constraint);
   - blocked: everything else on the path to the outcome — slower legs
     waiting behind delivery order, decision/ack collection, retransmit
     backoff.  The three parts sum to the span's total latency. *)
let span_breakdown s =
  let finish =
    match s.s_outcome with
    | Committed at | Rejected (at, _) -> at
    | Unresolved -> s.s_began
  in
  let total = Float.max 0.0 (finish -. s.s_began) in
  let first_enqueue =
    List.fold_left
      (fun acc m ->
        match m.m_enqueued with
        | Some at -> Some (match acc with None -> at | Some a -> Float.min a at)
        | None -> acc)
      None s.s_msets
  in
  let queued =
    match first_enqueue with
    | Some at -> Float.min total (Float.max 0.0 (at -. s.s_began))
    | None -> 0.0
  in
  let min_leg =
    List.fold_left
      (fun acc m ->
        match m.m_enqueued with
        | None -> acc
        | Some enq ->
            List.fold_left
              (fun acc leg ->
                let lat = Float.max 0.0 (leg.l_first_apply -. enq) in
                match acc with None -> Some lat | Some a -> Some (Float.min a lat))
              acc m.m_legs)
      None s.s_msets
  in
  let in_flight =
    match min_leg with None -> 0.0 | Some l -> Float.min l (Float.max 0.0 (total -. queued))
  in
  let blocked = Float.max 0.0 (total -. queued -. in_flight) in
  { b_queued = queued; b_in_flight = in_flight; b_blocked = blocked }

(* Mean breakdown over committed spans (the report's headline numbers). *)
let aggregate t =
  let n = ref 0 and q = ref 0.0 and f = ref 0.0 and b = ref 0.0 in
  List.iter
    (fun s ->
      match s.s_outcome with
      | Committed _ ->
          let bd = span_breakdown s in
          incr n;
          q := !q +. bd.b_queued;
          f := !f +. bd.b_in_flight;
          b := !b +. bd.b_blocked
      | _ -> ())
    t.spans;
  let n = !n in
  let mean v = if n = 0 then 0.0 else v /. float_of_int n in
  (n, { b_queued = mean !q; b_in_flight = mean !f; b_blocked = mean !b })

let n_retransmit_legs t =
  let count_msets acc msets =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc leg -> if leg.l_applies > 1 then acc + 1 else acc)
          acc m.m_legs)
      acc msets
  in
  let in_span = List.fold_left (fun acc s -> count_msets acc s.s_msets) 0 t.spans in
  count_msets in_span t.orphan_msets

(* {2 Chrome enrichment} *)

let float_repr = Esr_util.Json.float_repr

(* Span-tree events layered on top of {!Trace.chrome_writer}'s timeline:
   one "X" slice per MSet leg on the destination site's track, plus flow
   arrows ("s"/"f") from the enqueue at the origin to each leg's first
   apply, so Perfetto draws the propagation fan-out of every update. *)
let chrome_events ~sites:_ t =
  let events = ref [] in
  let add line = events := line :: !events in
  let emit_mset m =
    match m.m_enqueued with
    | None -> ()
    | Some enq ->
        let enq_us = enq *. 1000.0 in
        List.iter
          (fun leg ->
            let dur = Float.max 0.0 (leg.l_first_apply -. enq) *. 1000.0 in
            add
              (Printf.sprintf
                 "{\"name\":\"mset_leg\",\"cat\":\"mset\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d,\"args\":{\"et\":%d,\"applies\":%d,\"n_ops\":%d}}"
                 (float_repr enq_us) (float_repr dur) leg.l_site m.m_et leg.l_applies
                 m.m_n_ops);
            add
              (Printf.sprintf
                 "{\"name\":\"mset_flow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":0,\"tid\":%d}"
                 m.m_et (float_repr enq_us) m.m_origin);
            add
              (Printf.sprintf
                 "{\"name\":\"mset_flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":0,\"tid\":%d}"
                 m.m_et
                 (float_repr (leg.l_first_apply *. 1000.0))
                 leg.l_site))
          m.m_legs
  in
  List.iter (fun s -> List.iter emit_mset s.s_msets) t.spans;
  List.iter emit_mset t.orphan_msets;
  List.rev !events
