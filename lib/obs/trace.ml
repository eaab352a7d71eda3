type drop_reason = Loss | Partition | Crashed_src | Crashed_dst

type event =
  | Msg_sent of { src : int; dst : int; cls : string }
  | Msg_dropped of { src : int; dst : int; cls : string; reason : drop_reason }
  | Msg_duplicated of { src : int; dst : int; cls : string }
  | Msg_delivered of { src : int; dst : int; cls : string }
  | Partition_event of { groups : int list list }
  | Heal
  | Crash of { site : int }
  | Recover of { site : int }
  | Update_begin of { u : int; origin : int; n_ops : int }
  | Update_committed of { u : int; origin : int; latency : float }
  | Update_rejected of { u : int; origin : int; reason : string }
  | Query_begin of { q : int; site : int; n_keys : int; epsilon : int option }
  | Query_served of {
      q : int;
      site : int;
      charged : int;
      forced : int;
      epsilon : int option;
      consistent_path : bool;
      latency : float;
    }
  | Mset_enqueued of { et : int; origin : int; n_ops : int; keys : string list }
  | Mset_applied of { et : int; site : int; n_ops : int; order : int option }
  | Compensation_fired of { et : int; site : int; kind : [ `Fast | `Full | `Revoke ] }
  | Squeue_send of { src : int; dst : int; seq : int }
  | Squeue_delivered of { src : int; dst : int; seq : int }
  | Squeue_dup of { src : int; dst : int; seq : int }
  | Query_window of {
      w : int;
      site : int;
      point : int;
      missing : int;
      keys : string list;
    }
  | Query_window_closed of {
      w : int;
      site : int;
      charged : int;
      outcome : [ `Ok | `Fallback | `Killed ];
    }
  | Volatile_dropped of {
      site : int;
      buffered : int;
      queries_failed : int;
      updates_rejected : int;
      log : int;
    }
  | Recovery_replay of { site : int; n_actions : int }
  | Checkpoint_cut of { site : int; folded : int; reclaimed : int }
  | Flush_round of { round : int }
  | Converged of { ok : bool }

type record = { time : float; ev : event }

(* A sink holds no records: [emit] hands each one to the taps, in attach
   order, and returns at once when there are none. *)
type t = { enabled : bool; mutable taps : (record -> unit) list }

let make ~enabled () = { enabled; taps = [] }
let[@inline] on t = t.enabled

let attach t f =
  if not t.enabled then invalid_arg "Trace.attach: sink is disabled";
  t.taps <- t.taps @ [ f ]

let rec run_taps r = function
  | [] -> ()
  | f :: rest ->
      f r;
      run_taps r rest

let emit t ~time ev =
  match t.taps with [] -> () | taps -> run_taps { time; ev } taps

(* --- JSONL --- *)

module Json = Esr_util.Json

let reason_to_string = function
  | Loss -> "loss"
  | Partition -> "partition"
  | Crashed_src -> "crashed_src"
  | Crashed_dst -> "crashed_dst"

let kind_to_string = function `Fast -> "fast" | `Full -> "full" | `Revoke -> "revoke"

let outcome_to_string = function
  | `Ok -> "ok"
  | `Fallback -> "fallback"
  | `Killed -> "killed"

let type_name = function
  | Msg_sent _ -> "msg_sent"
  | Msg_dropped _ -> "msg_dropped"
  | Msg_duplicated _ -> "msg_duplicated"
  | Msg_delivered _ -> "msg_delivered"
  | Partition_event _ -> "partition"
  | Heal -> "heal"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Update_begin _ -> "update_begin"
  | Update_committed _ -> "update_committed"
  | Update_rejected _ -> "update_rejected"
  | Query_begin _ -> "query_begin"
  | Query_served _ -> "query_served"
  | Mset_enqueued _ -> "mset_enqueued"
  | Mset_applied _ -> "mset_applied"
  | Compensation_fired _ -> "compensation_fired"
  | Squeue_send _ -> "squeue_send"
  | Squeue_delivered _ -> "squeue_delivered"
  | Squeue_dup _ -> "squeue_dup"
  | Query_window _ -> "query_window"
  | Query_window_closed _ -> "query_window_closed"
  | Volatile_dropped _ -> "volatile_dropped"
  | Recovery_replay _ -> "recovery_replay"
  | Checkpoint_cut _ -> "checkpoint_cut"
  | Flush_round _ -> "flush_round"
  | Converged _ -> "converged"

(* An event's payload: the fields after [ts] and [type], in the order
   the JSONL line and the Chrome [args] print them. *)
let event_fields ev : (string * Json.t) list =
  let int = Json.int and int_opt = Json.nullable Json.int in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  match ev with
  | Msg_sent { src; dst; cls } | Msg_duplicated { src; dst; cls } | Msg_delivered { src; dst; cls } ->
      [ ("src", int src); ("dst", int dst); ("cls", Str cls) ]
  | Msg_dropped { src; dst; cls; reason } ->
      [ ("src", int src); ("dst", int dst); ("cls", Str cls);
        ("reason", Str (reason_to_string reason)) ]
  | Partition_event { groups } ->
      [ ("groups", Arr (List.map (fun g -> Json.Arr (List.map int g)) groups)) ]
  | Heal -> []
  | Crash { site } | Recover { site } -> [ ("site", int site) ]
  | Update_begin { u; origin; n_ops } ->
      [ ("u", int u); ("origin", int origin); ("n_ops", int n_ops) ]
  | Update_committed { u; origin; latency } ->
      [ ("u", int u); ("origin", int origin); ("latency", Num latency) ]
  | Update_rejected { u; origin; reason } ->
      [ ("u", int u); ("origin", int origin); ("reason", Str reason) ]
  | Query_begin { q; site; n_keys; epsilon } ->
      [ ("q", int q); ("site", int site); ("n_keys", int n_keys);
        ("epsilon", int_opt epsilon) ]
  | Query_served { q; site; charged; forced; epsilon; consistent_path; latency } ->
      (* [forced] is left out when 0, as it is for every method but COMPE. *)
      ("q", int q) :: ("site", int site) :: ("charged", int charged)
      :: (if forced > 0 then [ ("forced", int forced) ] else [])
      @ [ ("epsilon", int_opt epsilon); ("consistent_path", Bool consistent_path);
          ("latency", Num latency) ]
  | Mset_enqueued { et; origin; n_ops; keys } ->
      [ ("et", int et); ("origin", int origin); ("n_ops", int n_ops); ("keys", strs keys) ]
  | Mset_applied { et; site; n_ops; order } ->
      [ ("et", int et); ("site", int site); ("n_ops", int n_ops); ("order", int_opt order) ]
  | Compensation_fired { et; site; kind } ->
      [ ("et", int et); ("site", int site); ("kind", Str (kind_to_string kind)) ]
  | Squeue_send { src; dst; seq } | Squeue_delivered { src; dst; seq } | Squeue_dup { src; dst; seq } ->
      [ ("src", int src); ("dst", int dst); ("seq", int seq) ]
  | Query_window { w; site; point; missing; keys } ->
      [ ("w", int w); ("site", int site); ("point", int point); ("missing", int missing);
        ("keys", strs keys) ]
  | Query_window_closed { w; site; charged; outcome } ->
      [ ("w", int w); ("site", int site); ("charged", int charged);
        ("outcome", Str (outcome_to_string outcome)) ]
  | Volatile_dropped { site; buffered; queries_failed; updates_rejected; log } ->
      [ ("site", int site); ("buffered", int buffered); ("queries_failed", int queries_failed);
        ("updates_rejected", int updates_rejected); ("log", int log) ]
  | Recovery_replay { site; n_actions } -> [ ("site", int site); ("n_actions", int n_actions) ]
  | Checkpoint_cut { site; folded; reclaimed } ->
      [ ("site", int site); ("folded", int folded); ("reclaimed", int reclaimed) ]
  | Flush_round { round } -> [ ("round", int round) ]
  | Converged { ok } -> [ ("ok", Bool ok) ]

let record_json r =
  Json.Obj (("ts", Num r.time) :: ("type", Str (type_name r.ev)) :: event_fields r.ev)

let record_to_json r = Json.render (record_json r)

let record_of_json line =
  let open Json.Decode in
  of_string
    (fun j ->
      let msg () = (field "src" int j, field "dst" int j, field "cls" string j) in
      let ev =
        match field "type" string j with
        | "msg_sent" ->
            let src, dst, cls = msg () in
            Msg_sent { src; dst; cls }
        | "msg_duplicated" ->
            let src, dst, cls = msg () in
            Msg_duplicated { src; dst; cls }
        | "msg_delivered" ->
            let src, dst, cls = msg () in
            Msg_delivered { src; dst; cls }
        | "msg_dropped" ->
            let src, dst, cls = msg () in
            let reason = field "reason" (enum reason_to_string [ Loss; Partition; Crashed_src; Crashed_dst ]) j in
            Msg_dropped { src; dst; cls; reason }
        | "partition" -> Partition_event { groups = field "groups" (list (list int)) j }
        | "heal" -> Heal
        | "crash" -> Crash { site = field "site" int j }
        | "recover" -> Recover { site = field "site" int j }
        | "update_begin" ->
            Update_begin
              { u = field "u" int j; origin = field "origin" int j; n_ops = field "n_ops" int j }
        | "update_committed" ->
            Update_committed
              { u = field "u" int j; origin = field "origin" int j; latency = field "latency" float j }
        | "update_rejected" ->
            Update_rejected
              { u = field "u" int j; origin = field "origin" int j; reason = field "reason" string j }
        | "query_begin" ->
            Query_begin
              {
                q = field "q" int j;
                site = field "site" int j;
                n_keys = field "n_keys" int j;
                epsilon = field "epsilon" (nullable int) j;
              }
        | "query_served" ->
            Query_served
              {
                q = field "q" int j;
                site = field "site" int j;
                charged = field "charged" int j;
                forced = field_or "forced" 0 int j;
                epsilon = field "epsilon" (nullable int) j;
                consistent_path = field "consistent_path" bool j;
                latency = field "latency" float j;
              }
        | "mset_enqueued" ->
            Mset_enqueued
              {
                et = field "et" int j;
                origin = field "origin" int j;
                n_ops = field "n_ops" int j;
                keys = field "keys" (list string) j;
              }
        | "mset_applied" ->
            Mset_applied
              {
                et = field "et" int j;
                site = field "site" int j;
                n_ops = field "n_ops" int j;
                order = field "order" (nullable int) j;
              }
        | "compensation_fired" ->
            Compensation_fired
              {
                et = field "et" int j;
                site = field "site" int j;
                kind = field "kind" (enum kind_to_string [ `Fast; `Full; `Revoke ]) j;
              }
        | "squeue_send" ->
            Squeue_send { src = field "src" int j; dst = field "dst" int j; seq = field "seq" int j }
        | "squeue_delivered" ->
            Squeue_delivered
              { src = field "src" int j; dst = field "dst" int j; seq = field "seq" int j }
        | "squeue_dup" ->
            Squeue_dup { src = field "src" int j; dst = field "dst" int j; seq = field "seq" int j }
        | "query_window" ->
            Query_window
              {
                w = field "w" int j;
                site = field "site" int j;
                point = field "point" int j;
                missing = field "missing" int j;
                keys = field "keys" (list string) j;
              }
        | "query_window_closed" ->
            Query_window_closed
              {
                w = field "w" int j;
                site = field "site" int j;
                charged = field "charged" int j;
                outcome = field "outcome" (enum outcome_to_string [ `Ok; `Fallback; `Killed ]) j;
              }
        | "volatile_dropped" ->
            Volatile_dropped
              {
                site = field "site" int j;
                buffered = field "buffered" int j;
                queries_failed = field "queries_failed" int j;
                updates_rejected = field "updates_rejected" int j;
                log = field "log" int j;
              }
        | "recovery_replay" ->
            Recovery_replay { site = field "site" int j; n_actions = field "n_actions" int j }
        | "checkpoint_cut" ->
            Checkpoint_cut
              {
                site = field "site" int j;
                folded = field "folded" int j;
                reclaimed = field "reclaimed" int j;
              }
        | "flush_round" -> Flush_round { round = field "round" int j }
        | "converged" -> Converged { ok = field "ok" bool j }
        | other -> fail ("unknown event type " ^ other)
      in
      { time = field "ts" float j; ev })
    line

(* Each record is rendered into one reused buffer, then handed to [out]. *)
let jsonl_tap out =
  let b = Buffer.create 256 in
  fun r ->
    Buffer.clear b;
    Json.to_buffer b (record_json r);
    Buffer.add_char b '\n';
    out b

let file_sink t oc = attach t (jsonl_tap (Buffer.output_buffer oc))

(* --- Chrome trace_event --- *)

(* The track an event renders on: its site, or the system track. *)
let event_track ~sites = function
  | Msg_sent { src; _ } | Msg_dropped { src; _ } | Msg_duplicated { src; _ } -> src
  | Msg_delivered { dst; _ } -> dst
  | Squeue_send { src; _ } -> src
  | Squeue_delivered { dst; _ } | Squeue_dup { dst; _ } -> dst
  | Crash { site } | Recover { site } -> site
  | Update_begin { origin; _ } | Update_committed { origin; _ } | Update_rejected { origin; _ }
    -> origin
  | Query_begin { site; _ } | Query_served { site; _ } -> site
  | Query_window { site; _ } | Query_window_closed { site; _ } -> site
  | Mset_enqueued { origin; _ } -> origin
  | Mset_applied { site; _ } | Compensation_fired { site; _ } -> site
  | Volatile_dropped { site; _ } | Recovery_replay { site; _ }
  | Checkpoint_cut { site; _ } ->
      site
  | Partition_event _ | Heal | Flush_round _ | Converged _ -> sites

let float_repr = Json.float_repr

(* Trace-viewer args payload: the JSONL object minus ts/type. *)
let event_args r = Json.render (Obj (event_fields r.ev))

let chrome_writer oc ~sites =
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let item line =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc line
  in
  (* Thread-name metadata: one named track per site plus the system track. *)
  for site = 0 to sites do
    let name = if site = sites then "system" else Printf.sprintf "site %d" site in
    item
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         site name)
  done;
  let write r =
    let tid = event_track ~sites r.ev in
    let args = event_args r in
    item
      (match r.ev with
      | Update_committed { latency; _ } | Query_served { latency; _ } ->
          (* Render the ET's span: [submit, outcome]. *)
          let start_us = Float.max 0.0 ((r.time -. latency) *. 1000.0) in
          Printf.sprintf
            "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d,\"args\":%s}"
            (type_name r.ev) (float_repr start_us)
            (float_repr (Float.max 0.0 (latency *. 1000.0)))
            tid args
      | _ ->
          Printf.sprintf
            "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"args\":%s}"
            (type_name r.ev) (float_repr (r.time *. 1000.0)) tid args)
  in
  let close ~extra =
    List.iter item extra;
    output_string oc
      "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"esrsim\",\"time_unit\":\"virtual ms\"}}\n"
  in
  (write, close)
