type kind = Query | Update

let kind_to_string = function Query -> "query" | Update -> "update"

type id = int

type action = { et : id; key : string; op : Esr_store.Op.t }

let action ~et ~key op = { et; key; op }

let pp_action ppf a =
  (* Compact class codes so histories render in the paper's notation
     (R1(a) W2(b) ...); operation arguments are irrelevant to dependency
     analysis and omitted. *)
  let code =
    match a.op with
    | Esr_store.Op.Read -> "R"
    | Esr_store.Op.Write _ -> "W"
    | Esr_store.Op.Incr _ -> "I"
    | Esr_store.Op.Mult _ -> "M"
    | Esr_store.Op.Div _ -> "D"
    | Esr_store.Op.Timed_write _ -> "T"
    | Esr_store.Op.Append _ -> "A"
  in
  Format.fprintf ppf "%s%d(%s)" code a.et a.key
