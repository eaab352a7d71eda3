(* Each node keeps its edges both ways: the nodes it waits on ([out]) and
   the nodes waiting on it ([into]).  A cycle check walks [into] back from
   the waiter once; removing a node visits only its own neighbours.  A
   node with no edge left is dropped, so the graph holds only the
   transactions currently in a wait. *)

type node = {
  id : int;
  out : (int, node) Hashtbl.t;
  into : (int, node) Hashtbl.t;
  mutable seen : int;  (* stamp of the last walk that reached it *)
}

type t = { nodes : (int, node) Hashtbl.t; mutable stamp : int }

let create () = { nodes = Hashtbl.create 32; stamp = 0 }

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
      let n = { id; out = Hashtbl.create 4; into = Hashtbl.create 4; seen = 0 } in
      Hashtbl.replace t.nodes id n;
      n

let drop_if_isolated t n =
  if Hashtbl.length n.out = 0 && Hashtbl.length n.into = 0 then
    Hashtbl.remove t.nodes n.id

(* Stamp every node reachable from [start] along [edges]; returns the
   stamp. *)
let walk t edges start =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let rec visit n =
    if n.seen <> stamp then begin
      n.seen <- stamp;
      Hashtbl.iter (fun _ next -> visit next) (edges n)
    end
  in
  visit start;
  stamp

let reachable t ~src ~dst =
  src = dst
  ||
  match (Hashtbl.find_opt t.nodes src, Hashtbl.find_opt t.nodes dst) with
  | Some s, Some d ->
      let stamp = walk t (fun n -> n.out) s in
      d.seen = stamp
  | _ -> false

(* The new edges all leave [waiter], so they close a cycle exactly when
   some holder already reaches [waiter]: one walk back from [waiter]
   answers for every holder at once. *)
let closes_cycle t ~waiter holders =
  List.mem waiter holders
  ||
  match Hashtbl.find_opt t.nodes waiter with
  | None -> false
  | Some w ->
      let stamp = walk t (fun n -> n.into) w in
      List.exists
        (fun h ->
          match Hashtbl.find_opt t.nodes h with
          | Some n -> n.seen = stamp
          | None -> false)
        holders

let add_edges t ~waiter holders =
  if closes_cycle t ~waiter holders then false
  else begin
    if holders <> [] then begin
      let w = node t waiter in
      List.iter
        (fun h ->
          let n = node t h in
          Hashtbl.replace w.out h n;
          Hashtbl.replace n.into waiter w)
        holders
    end;
    true
  end

let remove_edges_from t ~waiter =
  match Hashtbl.find_opt t.nodes waiter with
  | None -> ()
  | Some w ->
      Hashtbl.iter
        (fun _ h ->
          Hashtbl.remove h.into waiter;
          drop_if_isolated t h)
        w.out;
      Hashtbl.reset w.out;
      drop_if_isolated t w

let remove_node t id =
  remove_edges_from t ~waiter:id;
  match Hashtbl.find_opt t.nodes id with
  | None -> ()
  | Some n ->
      Hashtbl.iter
        (fun _ p ->
          Hashtbl.remove p.out id;
          drop_if_isolated t p)
        n.into;
      Hashtbl.remove t.nodes id

let waits_on t ~waiter =
  match Hashtbl.find_opt t.nodes waiter with
  | None -> []
  | Some w -> Hashtbl.fold (fun id _ acc -> id :: acc) w.out [] |> List.sort compare
