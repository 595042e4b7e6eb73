let spanning_forest g ~weight =
  let n = Ugraph.nb_nodes g in
  let in_tree = Array.make n false in
  let edge_acc = ref [] in
  let heap = Fheap.create () in
  for root = 0 to n - 1 do
    if not in_tree.(root) then begin
      in_tree.(root) <- true;
      (* relax in increasing-id order, without allocating the row *)
      let relax u =
        Ugraph.iter_neighbors g u (fun v ->
            if not in_tree.(v) then Fheap.push heap (weight u v) (u, v))
      in
      relax root;
      let continue = ref true in
      while !continue do
        match Fheap.pop_min heap with
        | exception Not_found -> continue := false
        | _, (u, v) ->
            if not in_tree.(v) then begin
              in_tree.(v) <- true;
              edge_acc := (Stdlib.min u v, Stdlib.max u v) :: !edge_acc;
              relax v
            end
      done
    end
  done;
  List.rev !edge_acc

let forest_graph g ~weight =
  Ugraph.of_edges (Ugraph.nb_nodes g) (spanning_forest g ~weight)
