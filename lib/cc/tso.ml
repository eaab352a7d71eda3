type stamps = { mutable read : int; mutable write : int }

type t = (string, stamps) Hashtbl.t

let create () = Hashtbl.create 64

let stamps t key =
  match Hashtbl.find_opt t key with
  | Some s -> s
  | None ->
      let s = { read = 0; write = 0 } in
      Hashtbl.replace t key s;
      s

type update_decision = Accept | Reject_stale

let check_update_read t ~key ~ts =
  let s = stamps t key in
  if ts < s.write then Reject_stale
  else begin
    if ts > s.read then s.read <- ts;
    Accept
  end

let check_update_write t ~key ~ts =
  let s = stamps t key in
  if ts < s.read || ts < s.write then Reject_stale
  else begin
    s.write <- ts;
    Accept
  end

type query_read = In_order | Out_of_order

let check_query_read t ~key ~ts =
  let s = stamps t key in
  if ts < s.write then Out_of_order else In_order
