(** Durable receipt journal for the replica-control methods that buffer
    MSets before applying them (ORDUP, COMPE).

    The fault model (DESIGN.md §7) splits a site's state in two:

    - {e durable}: the per-site operation log ({!Replica.site}'s [log]), the
      stable queue journals, and the receipt journal of order-buffered
      MSets ({!Wal});
    - {e volatile}: the materialized store image (a page cache over the
      log), order buffers, parked and active queries, and un-notified
      origin-side outcome callbacks.

    A crash drops the volatile half; {!Replica.recover} rebuilds the store
    image by replaying the durable log, and each method re-ingests its
    unconsumed {!Wal} records to rebuild its order buffers before the
    stable-queue backlog resumes delivery. *)

module Prof = Esr_obs.Prof

(** Per-site durable receipt journal.  A record is appended when the
    transport hands a message up (before it enters any volatile buffer)
    and consumed — by the caller's key — when the method applies it to the
    durable log; recovery re-ingests whatever is left, in receipt order. *)
module Wal = struct
  type 'a entry = { seq : int; record : 'a }

  type ('k, 'a) t = {
    journals : ('k, 'a entry) Hashtbl.t array;  (* per site *)
    mutable next_seq : int;
    appended_by : int array;  (* cumulative per-site appends, monotone *)
    high_water_by : int array;  (* peak simultaneous records per site *)
    prof : Prof.t;
  }

  let create ?(prof = Prof.disabled) ~sites () =
    {
      journals = Array.init sites (fun _ -> Hashtbl.create 16);
      next_seq = 0;
      appended_by = Array.make sites 0;
      high_water_by = Array.make sites 0;
      prof;
    }

  let append t ~site ~key record =
    let prof = t.prof in
    let profiling = Prof.on prof in
    let t0 = if profiling then Prof.start prof else 0.0 in
    let a0 = if profiling then Prof.alloc0 prof else 0.0 in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.appended_by.(site) <- t.appended_by.(site) + 1;
    Hashtbl.replace t.journals.(site) key { seq; record };
    let depth = Hashtbl.length t.journals.(site) in
    if depth > t.high_water_by.(site) then t.high_water_by.(site) <- depth;
    if profiling then Prof.record prof ~site Prof.Wal_append ~t0 ~a0

  let consume t ~site ~key = Hashtbl.remove t.journals.(site) key

  let entries t ~site =
    (* Receipt order: sequence numbers are globally increasing. *)
    Hashtbl.fold (fun _ e acc -> e :: acc) t.journals.(site) []
    |> List.sort (fun a b -> compare a.seq b.seq)
    |> List.map (fun e -> e.record)

  let size t ~site = Hashtbl.length t.journals.(site)

  let appended t ~site = t.appended_by.(site)

  let high_water t ~site = t.high_water_by.(site)
  let counts t ~site = (size t ~site, appended t ~site, high_water t ~site)
end
