type t = { adj : Rows.t; mutable nb_edges : int }

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  { adj = Rows.create n; nb_edges = 0 }

let nb_nodes g = Rows.length g.adj

let nb_edges g = g.nb_edges

let check g u =
  if u < 0 || u >= nb_nodes g then invalid_arg "Ugraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  Rows.mem g.adj u v

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  if not (Rows.mem g.adj u v) then begin
    Rows.insert g.adj u v;
    Rows.insert g.adj v u;
    g.nb_edges <- g.nb_edges + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  if Rows.mem g.adj u v then begin
    Rows.remove g.adj u v;
    Rows.remove g.adj v u;
    g.nb_edges <- g.nb_edges - 1
  end

let neighbors g u =
  check g u;
  Rows.to_list g.adj u

let iter_neighbors g u f =
  check g u;
  Rows.iter g.adj u f

let fold_neighbors g u ~init ~f =
  check g u;
  Rows.fold g.adj u ~init ~f

let degree g u =
  check g u;
  Rows.degree g.adj u

let iter_edges f g =
  for u = 0 to nb_nodes g - 1 do
    Rows.iter g.adj u (fun v -> if u < v then f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let of_edges n edge_list =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let of_arcs n arcs =
  let g = create n in
  let adj =
    Rows.of_arcs n (fun put ->
        arcs (fun u v ->
            check g u;
            check g v;
            if u = v then invalid_arg "Ugraph.of_arcs: self-loop";
            put u v))
  in
  { adj; nb_edges = Rows.total_degree adj / 2 }

let copy g = { adj = Rows.copy g.adj; nb_edges = g.nb_edges }

let is_subgraph a b =
  nb_nodes a = nb_nodes b && Rows.for_all_rows a.adj (Rows.subset a.adj b.adj)

let equal a b = nb_edges a = nb_edges b && is_subgraph a b

let pp ppf g =
  Fmt.pf ppf "ugraph(n=%d, m=%d)" (nb_nodes g) (nb_edges g)
