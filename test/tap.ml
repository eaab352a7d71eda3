(* The tests' one way to read a run's records: a list tap.  Attach it
   before the run; [collect trace ()] then returns every record emitted
   since, in emit order. *)
let collect trace =
  let acc = ref [] in
  Esr_obs.Trace.attach trace (fun r -> acc := r :: !acc);
  fun () -> List.rev !acc
