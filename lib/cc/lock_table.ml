module Op = Esr_store.Op

type mode = R | W | R_u | W_u | R_q

let mode_to_string = function
  | R -> "R"
  | W -> "W"
  | R_u -> "RU"
  | W_u -> "WU"
  | R_q -> "RQ"

type verdict = Compatible | Conflict | If_commutes

let verdict_to_string = function
  | Compatible -> "OK"
  | Conflict -> ""
  | If_commutes -> "Comm"

type t = {
  name : string;
  modes : mode list;
  check : held:mode -> requested:mode -> verdict;
}

let name t = t.name
let modes t = t.modes

let ensure_mode t m =
  if not (List.mem m t.modes) then
    invalid_arg
      (Printf.sprintf "Lock_table.%s: mode %s not in table" t.name
         (mode_to_string m))

let check t ~held ~requested =
  ensure_mode t held;
  ensure_mode t requested;
  t.check ~held ~requested

let resolve t ~held:(held_mode, held_op) ~requested:(req_mode, req_op) =
  match check t ~held:held_mode ~requested:req_mode with
  | Compatible -> true
  | Conflict -> false
  | If_commutes -> (
      match (held_op, req_op) with
      | Some a, Some b -> Op.commutes a b
      | None, _ | _, None -> false)

let standard =
  {
    name = "standard-2pl";
    modes = [ R; W ];
    check =
      (fun ~held ~requested ->
        match (held, requested) with
        | R, R -> Compatible
        | (R | W | R_u | W_u | R_q), (R | W | R_u | W_u | R_q) -> Conflict);
  }

(* Paper Table 2: 2PL compatibility for ORDUP ETs.  Query read locks (RQ)
   never block and are never blocked; update locks follow standard 2PL. *)
let ordup =
  {
    name = "ordup";
    modes = [ R_u; W_u; R_q ];
    check =
      (fun ~held ~requested ->
        match (held, requested) with
        | R_q, _ | _, R_q -> Compatible
        | R_u, R_u -> Compatible
        | (R_u | W_u), (R_u | W_u) -> Conflict
        | (R | W), _ | _, (R | W) -> Conflict);
  }

(* Paper Table 3: as Table 2, but update/update entries involving a write
   soften to "compatible when the operations commute". *)
let commu =
  {
    name = "commu";
    modes = [ R_u; W_u; R_q ];
    check =
      (fun ~held ~requested ->
        match (held, requested) with
        | R_q, _ | _, R_q -> Compatible
        | R_u, R_u -> Compatible
        | R_u, W_u | W_u, R_u | W_u, W_u -> If_commutes
        | (R | W), _ | _, (R | W) -> Conflict);
  }

let all = [ standard; ordup; commu ]
