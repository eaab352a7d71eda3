module Op = Esr_store.Op

type mode = Classic | Semantic

let ops_conflict mode a b =
  match mode with
  | Classic -> Op.is_update a || Op.is_update b
  | Semantic -> (Op.is_update a || Op.is_update b) && not (Op.commutes a b)

let actions_conflict mode (a : Et.action) (b : Et.action) =
  a.Et.et <> b.Et.et && String.equal a.Et.key b.Et.key
  && ops_conflict mode a.Et.op b.Et.op

type edge = { from_et : Et.id; to_et : Et.id; pos_from : int; pos_to : int }

let edges ?(mode = Classic) hist =
  let ops = Array.of_list (Hist.actions hist) in
  let n = Array.length ops in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if actions_conflict mode ops.(i) ops.(j) then
        acc :=
          {
            from_et = ops.(i).Et.et;
            to_et = ops.(j).Et.et;
            pos_from = i;
            pos_to = j;
          }
          :: !acc
    done
  done;
  List.rev !acc
