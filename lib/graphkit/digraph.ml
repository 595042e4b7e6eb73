type t = { adj : Rows.t; mutable nb_edges : int }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { adj = Rows.create n; nb_edges = 0 }

let nb_nodes g = Rows.length g.adj

let nb_edges g = g.nb_edges

let check g u =
  if u < 0 || u >= nb_nodes g then invalid_arg "Digraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  Rows.mem g.adj u v

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  if not (Rows.mem g.adj u v) then begin
    Rows.insert g.adj u v;
    g.nb_edges <- g.nb_edges + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  if Rows.mem g.adj u v then begin
    Rows.remove g.adj u v;
    g.nb_edges <- g.nb_edges - 1
  end

let succ g u =
  check g u;
  Rows.to_list g.adj u

let iter_succ g u f =
  check g u;
  Rows.iter g.adj u f

let fold_succ g u ~init ~f =
  check g u;
  Rows.fold g.adj u ~init ~f

let out_degree g u =
  check g u;
  Rows.degree g.adj u

let iter_edges f g =
  for u = 0 to nb_nodes g - 1 do
    Rows.iter g.adj u (f u)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let of_edges n edge_list =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let copy g = { adj = Rows.copy g.adj; nb_edges = g.nb_edges }

let symmetric_closure g =
  Ugraph.of_arcs (nb_nodes g) (fun add -> iter_edges add g)

(* Edges come in (u, v) lexicographic order, so every insert appends. *)
let symmetric_core g =
  let u_graph = Ugraph.create (nb_nodes g) in
  iter_edges
    (fun u v -> if u < v && mem_edge g v u then Ugraph.add_edge u_graph u v)
    g;
  u_graph

let equal a b =
  nb_nodes a = nb_nodes b
  && nb_edges a = nb_edges b
  && Rows.for_all_rows a.adj (Rows.subset a.adj b.adj)

let pp ppf g = Fmt.pf ppf "digraph(n=%d, m=%d)" (nb_nodes g) (nb_edges g)
