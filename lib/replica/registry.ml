(** Registry of every replica-control method, async and synchronous.

    The bench harness derives the paper's Table 1 from [metas]; the
    workload driver instantiates systems by name through [make]. *)

let modules : (module Intf.S) list =
  [
    (module Ordup);
    (module Commu);
    (module Ritu);
    (module Compe);
    (module Twopc);
    (module Quorum);
    (module Quasi);
  ]

let asynchronous = [ "ORDUP"; "COMMU"; "RITU"; "COMPE" ]
let synchronous = [ "2PC"; "QUORUM"; "QUASI" ]

let metas = List.map (fun (module M : Intf.S) -> M.meta) modules

let names = List.map (fun (m : Intf.meta) -> m.Intf.name) metas

let find name =
  List.find_opt
    (fun (module M : Intf.S) ->
      String.lowercase_ascii M.meta.Intf.name = String.lowercase_ascii name)
    modules

let make ~name env =
  match find name with
  | Some (module M : Intf.S) ->
      let sys = M.create env in
      (* Mirror the method's stats list into the metrics registry as
         group "method" gauges, in the method's own order, so
         [Metrics.alist ~group:"method"] reproduces [M.stats] exactly. *)
      List.iter
        (fun (stat_name, _) ->
          Esr_obs.Metrics.gauge_fn env.Intf.obs.Esr_obs.Obs.metrics
            ~group:"method" stat_name (fun () ->
              match List.assoc_opt stat_name (M.stats sys) with
              | Some v -> v
              | None -> 0.0))
        (M.stats sys);
      {
        Intf.kernel = M.kernel sys;
        submit_update = M.submit_update sys;
        submit_query = M.submit_query sys;
        flush = (fun () -> M.flush sys);
        quiescent = (fun () -> M.quiescent sys);
        backlog = (fun () -> M.backlog sys);
      }
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.make: unknown method %S (known: %s)" name
           (String.concat ", " names))
