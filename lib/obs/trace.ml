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
  | Trace_meta of { dropped : int }
      (* exporter-synthesized header: ring-buffer evictions that preceded
         the first surviving record; never emitted by instrumentation *)

type record = { time : float; ev : event }

(* Ring buffer sink, stored as columns (as [Esr_sim.Heap] stores the
   event heap) so that a slot holds scalars, not a pointer to a record
   the GC must promote.  Slot [i] is [times.(i)], the virtual time
   unboxed in a float array, and [codes.(i)]: one of the seven message
   and stable-queue variants packed into an int (see [pack]), or
   [tag_boxed], in which case the event is [boxed.(i)].  A packed slot
   keeps [Heal] in [boxed], so an evicted event is not kept alive.
   Records are rebuilt on read.  The columns are allocated on the first
   emit of an enabled sink, so a disabled sink (the default everywhere)
   costs one record.  [taps] see every record as it is emitted, before
   ring eviction can touch it — a streaming consumer (file sink,
   auditor) is therefore immune to ring wrap. *)
type t = {
  enabled : bool;
  capacity : int;
  mutable times : float array;
  mutable codes : int array;
  mutable boxed : event array;
  mutable classes : string array;  (* interned message classes *)
  mutable n_classes : int;
  mutable len : int;  (* valid records, <= capacity *)
  mutable head : int;  (* index of the oldest record *)
  mutable n_dropped : int;
  mutable taps : (record -> unit) list;  (* attach order *)
}

let make ?(capacity = 262_144) ~enabled () =
  if capacity <= 0 then invalid_arg "Trace.make: capacity must be positive";
  {
    enabled;
    capacity;
    times = [||];
    codes = [||];
    boxed = [||];
    classes = [||];
    n_classes = 0;
    len = 0;
    head = 0;
    n_dropped = 0;
    taps = [];
  }

let[@inline] on t = t.enabled

let attach t f =
  if not t.enabled then invalid_arg "Trace.attach: sink is disabled";
  t.taps <- t.taps @ [ f ]

(* A packed code: bits 0-2 are the tag, 3-18 [src], 19-34 [dst] and
   35-62 a payload: a stable-queue event's [seq], or a message event's
   drop reason (bits 0-1) and class id.  Tags: 0 [Msg_sent],
   1 [Msg_dropped], 2 [Msg_duplicated], 3 [Msg_delivered],
   4 [Squeue_send], 5 [Squeue_delivered], 6 [Squeue_dup].  An event with
   a field that does not fit (a negative or too large int, a class past
   [max_classes]) is boxed. *)
let tag_boxed = 7
let site_mask = 0xFFFF
let payload_mask = (1 lsl 28) - 1
let max_classes = 64

(* A port's class is one of a handful of long-lived strings, so a scan
   that compares pointers first finds it in a step or two.  -1 once
   [max_classes] distinct classes are taken. *)
let rec class_id t cls i =
  if i = t.n_classes then
    if i = max_classes then -1
    else begin
      t.classes.(i) <- cls;
      t.n_classes <- i + 1;
      i
    end
  else if t.classes.(i) == cls || String.equal t.classes.(i) cls then i
  else class_id t cls (i + 1)

let code tag ~src ~dst x =
  if src land site_mask = src && dst land site_mask = dst && x land payload_mask = x
  then tag lor (src lsl 3) lor (dst lsl 19) lor (x lsl 35)
  else tag_boxed

(* [reason_code] indexes [reasons]. *)
let reasons = [| Loss; Partition; Crashed_src; Crashed_dst |]

let reason_code = function
  | Loss -> 0
  | Partition -> 1
  | Crashed_src -> 2
  | Crashed_dst -> 3

let msg_code t tag ~src ~dst cls reason =
  let id = class_id t cls 0 in
  if id < 0 then tag_boxed else code tag ~src ~dst (reason lor (id lsl 2))

let pack t = function
  | Msg_sent { src; dst; cls } -> msg_code t 0 ~src ~dst cls 0
  | Msg_dropped { src; dst; cls; reason } ->
      msg_code t 1 ~src ~dst cls (reason_code reason)
  | Msg_duplicated { src; dst; cls } -> msg_code t 2 ~src ~dst cls 0
  | Msg_delivered { src; dst; cls } -> msg_code t 3 ~src ~dst cls 0
  | Squeue_send { src; dst; seq } -> code 4 ~src ~dst seq
  | Squeue_delivered { src; dst; seq } -> code 5 ~src ~dst seq
  | Squeue_dup { src; dst; seq } -> code 6 ~src ~dst seq
  | _ -> tag_boxed

let unpack t i =
  let c = t.codes.(i) in
  let tag = c land 7 in
  if tag = tag_boxed then t.boxed.(i)
  else
    let src = (c lsr 3) land site_mask and dst = (c lsr 19) land site_mask in
    let x = c lsr 35 in
    match tag with
    | 4 -> Squeue_send { src; dst; seq = x }
    | 5 -> Squeue_delivered { src; dst; seq = x }
    | 6 -> Squeue_dup { src; dst; seq = x }
    | _ -> (
        let cls = t.classes.(x lsr 2) in
        match tag with
        | 0 -> Msg_sent { src; dst; cls }
        | 1 -> Msg_dropped { src; dst; cls; reason = reasons.(x land 3) }
        | 2 -> Msg_duplicated { src; dst; cls }
        | _ -> Msg_delivered { src; dst; cls })

let rec run_taps r = function
  | [] -> ()
  | f :: rest ->
      f r;
      run_taps r rest

let emit t ~time ev =
  if t.enabled then begin
    if Array.length t.times = 0 then begin
      t.times <- Array.create_float t.capacity;
      t.codes <- Array.make t.capacity 0;
      t.boxed <- Array.make t.capacity Heal;
      t.classes <- Array.make max_classes ""
    end;
    let i =
      if t.len < t.capacity then begin
        let i = (t.head + t.len) mod t.capacity in
        t.len <- t.len + 1;
        i
      end
      else begin
        (* Full: overwrite the oldest. *)
        let i = t.head in
        t.head <- (t.head + 1) mod t.capacity;
        t.n_dropped <- t.n_dropped + 1;
        i
      end
    in
    t.times.(i) <- time;
    let c = pack t ev in
    if c = tag_boxed then t.boxed.(i) <- ev
    else if t.codes.(i) = tag_boxed then t.boxed.(i) <- Heal;
    t.codes.(i) <- c;
    match t.taps with [] -> () | taps -> run_taps { time; ev } taps
  end

let length t = t.len
let dropped t = t.n_dropped

let iter t f =
  for k = 0 to t.len - 1 do
    let i = (t.head + k) mod t.capacity in
    f { time = t.times.(i); ev = unpack t i }
  done

let to_list t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

(* --- JSON writing --- *)

let buf_add_escaped = Esr_util.Json.buf_add_escaped
let float_repr = Esr_util.Json.float_repr

let reason_to_string = function
  | Loss -> "loss"
  | Partition -> "partition"
  | Crashed_src -> "crashed_src"
  | Crashed_dst -> "crashed_dst"

let reason_of_string = function
  | "loss" -> Some Loss
  | "partition" -> Some Partition
  | "crashed_src" -> Some Crashed_src
  | "crashed_dst" -> Some Crashed_dst
  | _ -> None

let kind_to_string = function `Fast -> "fast" | `Full -> "full" | `Revoke -> "revoke"

let kind_of_string = function
  | "fast" -> Some `Fast
  | "full" -> Some `Full
  | "revoke" -> Some `Revoke
  | _ -> None

let outcome_to_string = function
  | `Ok -> "ok"
  | `Fallback -> "fallback"
  | `Killed -> "killed"

let outcome_of_string = function
  | "ok" -> Some `Ok
  | "fallback" -> Some `Fallback
  | "killed" -> Some `Killed
  | _ -> None

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
  | Trace_meta _ -> "meta"

let record_to_json r =
  let b = Buffer.create 96 in
  let field_sep () = Buffer.add_char b ',' in
  let str name v =
    field_sep ();
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":\"";
    buf_add_escaped b v;
    Buffer.add_char b '"'
  in
  let int name v =
    field_sep ();
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    Buffer.add_string b (string_of_int v)
  in
  let num name v =
    field_sep ();
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    Buffer.add_string b (float_repr v)
  in
  let boolean name v =
    field_sep ();
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    Buffer.add_string b (if v then "true" else "false")
  in
  let int_opt name = function
    | Some v -> int name v
    | None ->
        field_sep ();
        Buffer.add_char b '"';
        Buffer.add_string b name;
        Buffer.add_string b "\":null"
  in
  let strs name vs =
    field_sep ();
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":[";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        buf_add_escaped b v;
        Buffer.add_char b '"')
      vs;
    Buffer.add_char b ']'
  in
  Buffer.add_string b "{\"ts\":";
  Buffer.add_string b (float_repr r.time);
  str "type" (type_name r.ev);
  (match r.ev with
  | Msg_sent { src; dst; cls } | Msg_duplicated { src; dst; cls } | Msg_delivered { src; dst; cls } ->
      int "src" src;
      int "dst" dst;
      str "cls" cls
  | Msg_dropped { src; dst; cls; reason } ->
      int "src" src;
      int "dst" dst;
      str "cls" cls;
      str "reason" (reason_to_string reason)
  | Partition_event { groups } ->
      field_sep ();
      Buffer.add_string b "\"groups\":[";
      List.iteri
        (fun i group ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          List.iteri
            (fun j s ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b (string_of_int s))
            group;
          Buffer.add_char b ']')
        groups;
      Buffer.add_char b ']'
  | Heal -> ()
  | Crash { site } | Recover { site } -> int "site" site
  | Update_begin { u; origin; n_ops } ->
      int "u" u;
      int "origin" origin;
      int "n_ops" n_ops
  | Update_committed { u; origin; latency } ->
      int "u" u;
      int "origin" origin;
      num "latency" latency
  | Update_rejected { u; origin; reason } ->
      int "u" u;
      int "origin" origin;
      str "reason" reason
  | Query_begin { q; site; n_keys; epsilon } ->
      int "q" q;
      int "site" site;
      int "n_keys" n_keys;
      int_opt "epsilon" epsilon
  | Query_served { q; site; charged; forced; epsilon; consistent_path; latency } ->
      int "q" q;
      int "site" site;
      int "charged" charged;
      if forced > 0 then int "forced" forced;
      int_opt "epsilon" epsilon;
      boolean "consistent_path" consistent_path;
      num "latency" latency
  | Mset_enqueued { et; origin; n_ops; keys } ->
      int "et" et;
      int "origin" origin;
      int "n_ops" n_ops;
      strs "keys" keys
  | Mset_applied { et; site; n_ops; order } ->
      int "et" et;
      int "site" site;
      int "n_ops" n_ops;
      int_opt "order" order
  | Compensation_fired { et; site; kind } ->
      int "et" et;
      int "site" site;
      str "kind" (kind_to_string kind)
  | Squeue_send { src; dst; seq }
  | Squeue_delivered { src; dst; seq }
  | Squeue_dup { src; dst; seq } ->
      int "src" src;
      int "dst" dst;
      int "seq" seq
  | Query_window { w; site; point; missing; keys } ->
      int "w" w;
      int "site" site;
      int "point" point;
      int "missing" missing;
      strs "keys" keys
  | Query_window_closed { w; site; charged; outcome } ->
      int "w" w;
      int "site" site;
      int "charged" charged;
      str "outcome" (outcome_to_string outcome)
  | Volatile_dropped { site; buffered; queries_failed; updates_rejected; log } ->
      int "site" site;
      int "buffered" buffered;
      int "queries_failed" queries_failed;
      int "updates_rejected" updates_rejected;
      int "log" log
  | Recovery_replay { site; n_actions } ->
      int "site" site;
      int "n_actions" n_actions
  | Checkpoint_cut { site; folded; reclaimed } ->
      int "site" site;
      int "folded" folded;
      int "reclaimed" reclaimed
  | Flush_round { round } -> int "round" round
  | Converged { ok } -> boolean "ok" ok
  | Trace_meta { dropped } ->
      field_sep ();
      Buffer.add_string b "\"meta\":{\"generator\":\"esrsim\"}";
      int "dropped" dropped);
  Buffer.add_char b '}';
  Buffer.contents b

(* --- JSON reading (the subset the writer produces) --- *)

module Json = Esr_util.Json

exception Parse of string

let record_of_json line =
  match Json.parse_exn line with
  | exception Json.Parse_error msg -> Error msg
  | Json.Obj fields -> (
      let find name = List.assoc_opt name fields in
      let get_int name =
        match find name with
        | Some (Json.Num v) -> int_of_float v
        | _ -> raise (Parse ("missing int field " ^ name))
      in
      let get_num name =
        match find name with
        | Some (Json.Num v) -> v
        | _ -> raise (Parse ("missing number field " ^ name))
      in
      let get_str name =
        match find name with
        | Some (Json.Str v) -> v
        | _ -> raise (Parse ("missing string field " ^ name))
      in
      let get_bool name =
        match find name with
        | Some (Json.Bool v) -> v
        | _ -> raise (Parse ("missing bool field " ^ name))
      in
      let get_int_opt name =
        match find name with
        | Some Json.Null -> None
        | Some (Json.Num v) -> Some (int_of_float v)
        | _ -> raise (Parse ("missing nullable int field " ^ name))
      in
      (* Absent-tolerant: fields written only when nonzero. *)
      let get_int_default name d =
        match find name with
        | Some (Json.Num v) -> int_of_float v
        | _ -> d
      in
      let get_str_list name =
        match find name with
        | Some (Json.Arr items) ->
            List.map
              (function
                | Json.Str s -> s
                | _ -> raise (Parse ("bad string in " ^ name)))
              items
        | _ -> raise (Parse ("missing string list field " ^ name))
      in
      let msg_fields () = (get_int "src", get_int "dst", get_str "cls") in
      try
        let time = get_num "ts" in
        let ev =
          match get_str "type" with
          | "msg_sent" ->
              let src, dst, cls = msg_fields () in
              Msg_sent { src; dst; cls }
          | "msg_duplicated" ->
              let src, dst, cls = msg_fields () in
              Msg_duplicated { src; dst; cls }
          | "msg_delivered" ->
              let src, dst, cls = msg_fields () in
              Msg_delivered { src; dst; cls }
          | "msg_dropped" ->
              let src, dst, cls = msg_fields () in
              let reason =
                match reason_of_string (get_str "reason") with
                | Some r -> r
                | None -> raise (Parse "bad drop reason")
              in
              Msg_dropped { src; dst; cls; reason }
          | "partition" ->
              let groups =
                match find "groups" with
                | Some (Json.Arr groups) ->
                    List.map
                      (function
                        | Json.Arr members ->
                            List.map
                              (function
                                | Json.Num v -> int_of_float v
                                | _ -> raise (Parse "bad group member"))
                              members
                        | _ -> raise (Parse "bad group"))
                      groups
                | _ -> raise (Parse "missing groups")
              in
              Partition_event { groups }
          | "heal" -> Heal
          | "crash" -> Crash { site = get_int "site" }
          | "recover" -> Recover { site = get_int "site" }
          | "update_begin" ->
              Update_begin { u = get_int "u"; origin = get_int "origin"; n_ops = get_int "n_ops" }
          | "update_committed" ->
              Update_committed
                { u = get_int "u"; origin = get_int "origin"; latency = get_num "latency" }
          | "update_rejected" ->
              Update_rejected
                { u = get_int "u"; origin = get_int "origin"; reason = get_str "reason" }
          | "query_begin" ->
              Query_begin
                {
                  q = get_int "q";
                  site = get_int "site";
                  n_keys = get_int "n_keys";
                  epsilon = get_int_opt "epsilon";
                }
          | "query_served" ->
              Query_served
                {
                  q = get_int "q";
                  site = get_int "site";
                  charged = get_int "charged";
                  forced = get_int_default "forced" 0;
                  epsilon = get_int_opt "epsilon";
                  consistent_path = get_bool "consistent_path";
                  latency = get_num "latency";
                }
          | "mset_enqueued" ->
              Mset_enqueued
                {
                  et = get_int "et";
                  origin = get_int "origin";
                  n_ops = get_int "n_ops";
                  keys = get_str_list "keys";
                }
          | "mset_applied" ->
              Mset_applied
                {
                  et = get_int "et";
                  site = get_int "site";
                  n_ops = get_int "n_ops";
                  order = get_int_opt "order";
                }
          | "compensation_fired" ->
              let kind =
                match kind_of_string (get_str "kind") with
                | Some k -> k
                | None -> raise (Parse "bad compensation kind")
              in
              Compensation_fired { et = get_int "et"; site = get_int "site"; kind }
          | "squeue_send" ->
              Squeue_send { src = get_int "src"; dst = get_int "dst"; seq = get_int "seq" }
          | "squeue_delivered" ->
              Squeue_delivered
                { src = get_int "src"; dst = get_int "dst"; seq = get_int "seq" }
          | "squeue_dup" ->
              Squeue_dup { src = get_int "src"; dst = get_int "dst"; seq = get_int "seq" }
          | "query_window" ->
              Query_window
                {
                  w = get_int "w";
                  site = get_int "site";
                  point = get_int "point";
                  missing = get_int "missing";
                  keys = get_str_list "keys";
                }
          | "query_window_closed" ->
              let outcome =
                match outcome_of_string (get_str "outcome") with
                | Some o -> o
                | None -> raise (Parse "bad window outcome")
              in
              Query_window_closed
                { w = get_int "w"; site = get_int "site"; charged = get_int "charged"; outcome }
          | "volatile_dropped" ->
              Volatile_dropped
                {
                  site = get_int "site";
                  buffered = get_int "buffered";
                  queries_failed = get_int "queries_failed";
                  updates_rejected = get_int "updates_rejected";
                  log = get_int "log";
                }
          | "recovery_replay" ->
              Recovery_replay
                { site = get_int "site"; n_actions = get_int "n_actions" }
          | "checkpoint_cut" ->
              Checkpoint_cut
                {
                  site = get_int "site";
                  folded = get_int "folded";
                  reclaimed = get_int "reclaimed";
                }
          | "flush_round" -> Flush_round { round = get_int "round" }
          | "converged" -> Converged { ok = get_bool "ok" }
          | "meta" -> Trace_meta { dropped = get_int "dropped" }
          | other -> raise (Parse ("unknown event type " ^ other))
        in
        Ok { time; ev }
      with Parse msg -> Error msg)
  | _ -> Error "not a JSON object"

let file_sink t oc =
  attach t (fun r ->
      output_string oc (record_to_json r);
      output_char oc '\n')

let write_jsonl oc t =
  (* Evictions are not silent: a wrapped ring leads the dump with a
     self-describing meta record so consumers know the prefix is gone. *)
  if t.n_dropped > 0 then begin
    let oldest = if t.len > 0 then t.times.(t.head) else 0.0 in
    output_string oc
      (record_to_json
         { time = oldest; ev = Trace_meta { dropped = t.n_dropped } });
    output_char oc '\n'
  end;
  iter t (fun r ->
      output_string oc (record_to_json r);
      output_char oc '\n')

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
  | Partition_event _ | Heal | Flush_round _ | Converged _ | Trace_meta _ ->
      sites

(* Trace-viewer args payload: reuse the JSONL object minus ts/type. *)
let event_args r =
  let line = record_to_json r in
  (* line = {"ts":<num>,"type":"<name>"...}; strip the first two fields. *)
  match String.index_opt line ',' with
  | None -> "{}"
  | Some first_comma -> (
      let rest = String.sub line (first_comma + 1) (String.length line - first_comma - 1) in
      match String.index_opt rest ',' with
      | None -> "{}"  (* only the type field: no payload *)
      | Some second_comma ->
          "{" ^ String.sub rest (second_comma + 1) (String.length rest - second_comma - 1))

let write_chrome ?(extra = []) oc ~sites t =
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
  if t.n_dropped > 0 then
    item
      (Printf.sprintf
         "{\"name\":\"trace_dropped\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"dropped\":%d}}"
         sites t.n_dropped);
  iter t (fun r ->
      let tid = event_track ~sites r.ev in
      let ts_us = r.time *. 1000.0 in
      let args = event_args r in
      let line =
        match r.ev with
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
              (type_name r.ev) (float_repr ts_us) tid args
      in
      item line);
  List.iter item extra;
  output_string oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"esrsim\",\"time_unit\":\"virtual ms\"}}\n"
