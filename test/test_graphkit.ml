(* Tests for the graph substrate: directed/undirected graphs, union-find,
   traversal, Dijkstra, MST, and the float heap. *)

module U = Graphkit.Ugraph
module D = Graphkit.Digraph

(* ---------- Ugraph ---------- *)

let test_ugraph_basic () =
  let g = U.create 5 in
  U.add_edge g 0 1;
  U.add_edge g 1 2;
  U.add_edge g 0 1;
  (* idempotent *)
  Alcotest.(check int) "nodes" 5 (U.nb_nodes g);
  Alcotest.(check int) "edges" 2 (U.nb_edges g);
  Alcotest.(check bool) "mem" true (U.mem_edge g 1 0);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (U.neighbors g 1);
  Alcotest.(check int) "degree" 2 (U.degree g 1);
  U.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (U.mem_edge g 0 1);
  Alcotest.(check int) "edges after removal" 1 (U.nb_edges g);
  U.remove_edge g 0 1 (* removing absent edge is a no-op *)

let test_ugraph_edges_listing () =
  let g = U.of_edges 4 [ (2, 3); (0, 1); (1, 3) ] in
  Alcotest.(check (list (pair int int))) "edges sorted, u < v"
    [ (0, 1); (1, 3); (2, 3) ]
    (U.edges g)

let test_ugraph_errors () =
  let g = U.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Ugraph.add_edge: self-loop")
    (fun () -> U.add_edge g 1 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Ugraph: node out of range")
    (fun () -> U.add_edge g 0 7)

let test_ugraph_subgraph_copy () =
  let g = U.of_edges 4 [ (0, 1); (1, 2) ] in
  let h = U.copy g in
  U.add_edge h 2 3;
  Alcotest.(check bool) "g subgraph of h" true (U.is_subgraph g h);
  Alcotest.(check bool) "h not subgraph of g" false (U.is_subgraph h g);
  Alcotest.(check bool) "copy is independent" false (U.mem_edge g 2 3);
  Alcotest.(check bool) "equal self" true (U.equal g g)

(* ---------- Digraph ---------- *)

let test_digraph_basic () =
  let g = D.create 4 in
  D.add_edge g 0 1;
  D.add_edge g 1 0;
  D.add_edge g 2 3;
  Alcotest.(check int) "edges" 3 (D.nb_edges g);
  Alcotest.(check bool) "directed" true (D.mem_edge g 2 3);
  Alcotest.(check bool) "no reverse" false (D.mem_edge g 3 2);
  Alcotest.(check (list int)) "succ" [ 1 ] (D.succ g 0);
  Alcotest.(check int) "out degree" 1 (D.out_degree g 2)

let test_digraph_closure_core () =
  (* The paper's E_alpha (closure) vs E-_alpha (core) on an asymmetric
     relation. *)
  let g = D.of_edges 4 [ (0, 1); (1, 0); (1, 2); (3, 1) ] in
  let closure = D.symmetric_closure g in
  let core = D.symmetric_core g in
  Alcotest.(check (list (pair int int))) "closure"
    [ (0, 1); (1, 2); (1, 3) ]
    (U.edges closure);
  Alcotest.(check (list (pair int int))) "core" [ (0, 1) ] (U.edges core);
  Alcotest.(check bool) "core subgraph of closure" true
    (U.is_subgraph core closure)

(* ---------- Unionfind ---------- *)

let test_unionfind () =
  let uf = Graphkit.Unionfind.create 6 in
  Alcotest.(check int) "initial sets" 6 (Graphkit.Unionfind.nb_sets uf);
  Alcotest.(check bool) "union new" true (Graphkit.Unionfind.union uf 0 1);
  Alcotest.(check bool) "union again" false (Graphkit.Unionfind.union uf 1 0);
  ignore (Graphkit.Unionfind.union uf 2 3);
  ignore (Graphkit.Unionfind.union uf 0 3);
  Alcotest.(check bool) "same" true (Graphkit.Unionfind.same uf 1 2);
  Alcotest.(check bool) "not same" false (Graphkit.Unionfind.same uf 0 5);
  Alcotest.(check int) "sets" 3 (Graphkit.Unionfind.nb_sets uf)

(* ---------- Traversal ---------- *)

let test_components () =
  let g = U.of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  let labels = Graphkit.Traversal.components g in
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 1; 2; 2 |] labels;
  Alcotest.(check int) "count" 3 (Graphkit.Traversal.nb_components g);
  Alcotest.(check bool) "connected" false (Graphkit.Traversal.is_connected g);
  Alcotest.(check bool) "same component" true
    (Graphkit.Traversal.same_component g 0 2);
  Alcotest.(check bool) "different" false
    (Graphkit.Traversal.same_component g 0 4)

let test_same_partition () =
  let a = U.of_edges 4 [ (0, 1); (2, 3) ] in
  let b = U.of_edges 4 [ (1, 0); (3, 2) ] in
  let c = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "same" true (Graphkit.Traversal.same_partition a b);
  Alcotest.(check bool) "different" false (Graphkit.Traversal.same_partition a c)

let test_hop_distances () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (2, 3) ] in
  let d = Graphkit.Traversal.hop_distances g 0 in
  Alcotest.(check (array int)) "hops" [| 0; 1; 2; 3; Stdlib.max_int |] d

(* ---------- Fheap ---------- *)

let test_fheap_sorts () =
  let h = Graphkit.Fheap.create () in
  let xs = [ 5.; 1.; 4.; 1.5; 9.; 0.; 2. ] in
  List.iter (fun x -> Graphkit.Fheap.push h x (Stdlib.int_of_float x)) xs;
  Alcotest.(check int) "size" 7 (Graphkit.Fheap.size h);
  let out = ref [] in
  while not (Graphkit.Fheap.is_empty h) do
    out := fst (Graphkit.Fheap.pop_min h) :: !out
  done;
  Alcotest.(check (list (float 0.))) "sorted ascending"
    (List.sort Float.compare xs) (List.rev !out);
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Graphkit.Fheap.pop_min h))

(* ---------- Shortest ---------- *)

let test_dijkstra_line () =
  let g = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let cost u v = Stdlib.float_of_int (abs (u - v)) in
  let d = Graphkit.Shortest.dijkstra g ~cost ~src:0 in
  Alcotest.(check (float 1e-9)) "d0" 0. d.(0);
  Alcotest.(check (float 1e-9)) "d1" 1. d.(1);
  Alcotest.(check (float 1e-9)) "d2" 2. d.(2);
  (* node 3: direct edge costs 3, path through 1,2 also 3 *)
  Alcotest.(check (float 1e-9)) "d3" 3. d.(3)

let test_dijkstra_unreachable_and_digraph () =
  let g = U.of_edges 3 [ (0, 1) ] in
  let d = Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> 1.) ~src:0 in
  Alcotest.(check bool) "unreachable" true (Float.is_integer d.(1) && d.(2) = Float.infinity);
  let dg = D.of_edges 3 [ (0, 1); (1, 2) ] in
  let dd = Graphkit.Shortest.dijkstra_digraph dg ~cost:(fun _ _ -> 2.) ~src:0 in
  Alcotest.(check (float 1e-9)) "directed d2" 4. dd.(2);
  let back = Graphkit.Shortest.dijkstra_digraph dg ~cost:(fun _ _ -> 2.) ~src:2 in
  Alcotest.(check bool) "no reverse path" true (back.(0) = Float.infinity)

let test_dijkstra_negative_cost_rejected () =
  let g = U.of_edges 2 [ (0, 1) ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Shortest.dijkstra: negative cost") (fun () ->
      ignore (Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> -1.) ~src:0))

(* ---------- MST ---------- *)

let test_mst_triangle () =
  let g = U.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v = Stdlib.float_of_int (u + v) in
  (* weights: 0-1 -> 1, 1-2 -> 3, 0-2 -> 2: MST keeps {0-1, 0-2}. *)
  let forest = Graphkit.Mst.spanning_forest g ~weight in
  Alcotest.(check (list (pair int int))) "mst edges" [ (0, 1); (0, 2) ]
    (List.sort Stdlib.compare forest)

let test_mst_forest_per_component () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  let forest = Graphkit.Mst.forest_graph g ~weight:(fun _ _ -> 1.) in
  Alcotest.(check int) "edge count = n - components" 3 (U.nb_edges forest);
  Alcotest.(check bool) "same partition" true
    (Graphkit.Traversal.same_partition g forest)

(* ---------- Biconnect ---------- *)

let test_articulation_points () =
  (* path: interior nodes are cut vertices *)
  let path = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "path" [ 1; 2 ]
    (Graphkit.Biconnect.articulation_points path);
  (* cycle: none *)
  let cycle = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check (list int)) "cycle" []
    (Graphkit.Biconnect.articulation_points cycle);
  (* two triangles sharing node 2 *)
  let bowtie = U.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check (list int)) "bowtie" [ 2 ]
    (Graphkit.Biconnect.articulation_points bowtie)

let test_bridges () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  Alcotest.(check (list (pair int int))) "bridges" [ (2, 3); (3, 4) ]
    (Graphkit.Biconnect.bridges g);
  let cycle = U.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (list (pair int int))) "no bridges in a cycle" []
    (Graphkit.Biconnect.bridges cycle)

let test_is_biconnected () =
  let cycle = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "cycle" true (Graphkit.Biconnect.is_biconnected cycle);
  let path = U.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "path" false (Graphkit.Biconnect.is_biconnected path);
  let split = U.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected" false
    (Graphkit.Biconnect.is_biconnected split)

(* ---------- Kconn ---------- *)

let test_k_connectivity () =
  let cycle = U.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  Alcotest.(check bool) "cycle 1-conn" true (Graphkit.Kconn.is_k_connected cycle ~k:1);
  Alcotest.(check bool) "cycle 2-conn" true (Graphkit.Kconn.is_k_connected cycle ~k:2);
  Alcotest.(check bool) "cycle not 3-conn" false
    (Graphkit.Kconn.is_k_connected cycle ~k:3);
  (* K4 is 3-connected *)
  let k4 = U.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  Alcotest.(check bool) "K4 3-conn" true (Graphkit.Kconn.is_k_connected k4 ~k:3);
  let path = U.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "path not 2-conn" false
    (Graphkit.Kconn.is_k_connected path ~k:2);
  Alcotest.check_raises "k range" (Invalid_argument "Kconn.is_k_connected: k must be 1..3")
    (fun () -> ignore (Graphkit.Kconn.is_k_connected path ~k:4))

let test_survives_removal () =
  let g = U.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "remove endpoint fine" true
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 0 ]);
  Alcotest.(check bool) "remove middle splits" false
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 1 ]);
  Alcotest.(check bool) "remove everything" false
    (Graphkit.Kconn.survives_node_removal g ~removed:[ 0; 1; 2; 3 ])

(* ---------- properties ---------- *)

let random_graph_gen =
  (* (n, edge list) with edges drawn from the complete graph *)
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_size (int_range 0 (3 * n))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >|= fun raw ->
    (n, List.filter (fun (u, v) -> u <> v) raw))

let build (n, edge_list) = U.of_edges n edge_list

let prop_components_match_unionfind =
  QCheck.Test.make ~count:200 ~name:"BFS components match union-find"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let uf = Graphkit.Unionfind.create n in
      List.iter (fun (u, v) -> ignore (Graphkit.Unionfind.union uf u v)) edge_list;
      let labels = Graphkit.Traversal.components g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Graphkit.Unionfind.same uf u v <> (labels.(u) = labels.(v)) then
            ok := false
        done
      done;
      !ok && Graphkit.Traversal.nb_components g = Graphkit.Unionfind.nb_sets uf)

let prop_dijkstra_unit_weights_is_bfs =
  QCheck.Test.make ~count:200 ~name:"Dijkstra with unit weights equals BFS"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let d = Graphkit.Shortest.dijkstra g ~cost:(fun _ _ -> 1.) ~src:0 in
      let h = Graphkit.Traversal.hop_distances g 0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        let expected =
          if h.(u) = Stdlib.max_int then Float.infinity else Stdlib.float_of_int h.(u)
        in
        if d.(u) <> expected then ok := false
      done;
      !ok)

let prop_mst_preserves_partition =
  QCheck.Test.make ~count:200 ~name:"MST forest preserves the component partition"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = build (n, edge_list) in
      let forest =
        Graphkit.Mst.forest_graph g ~weight:(fun u v ->
            Stdlib.float_of_int ((u * 31) + v))
      in
      Graphkit.Traversal.same_partition g forest
      && U.nb_edges forest = n - Graphkit.Traversal.nb_components g)

let prop_closure_contains_core =
  QCheck.Test.make ~count:200 ~name:"symmetric core is a subgraph of the closure"
    (QCheck.make random_graph_gen)
    (fun (n, edge_list) ->
      let g = D.of_edges n edge_list in
      U.is_subgraph (D.symmetric_core g) (D.symmetric_closure g))

(* ---------- model-based differential tests ---------- *)

(* The reference model: the persistent-set graphs the row-based ones
   replaced, kept verbatim as the oracle. *)
module ISet = Set.Make (Int)

module Model_u = struct
  type t = { adj : ISet.t array; mutable nb_edges : int }

  let create n = { adj = Array.make n ISet.empty; nb_edges = 0 }
  let nb_nodes g = Array.length g.adj
  let nb_edges g = g.nb_edges

  let check g u =
    if u < 0 || u >= nb_nodes g then invalid_arg "Ugraph: node out of range"

  let mem_edge g u v =
    check g u;
    check g v;
    ISet.mem v g.adj.(u)

  let add_edge g u v =
    check g u;
    check g v;
    if u = v then invalid_arg "Ugraph.add_edge: self-loop";
    if not (ISet.mem v g.adj.(u)) then begin
      g.adj.(u) <- ISet.add v g.adj.(u);
      g.adj.(v) <- ISet.add u g.adj.(v);
      g.nb_edges <- g.nb_edges + 1
    end

  let remove_edge g u v =
    check g u;
    check g v;
    if ISet.mem v g.adj.(u) then begin
      g.adj.(u) <- ISet.remove v g.adj.(u);
      g.adj.(v) <- ISet.remove u g.adj.(v);
      g.nb_edges <- g.nb_edges - 1
    end

  let row g u =
    check g u;
    ISet.elements g.adj.(u)

  let iter_row g u f =
    check g u;
    ISet.iter f g.adj.(u)

  let fold_row g u ~init ~f =
    check g u;
    ISet.fold (fun v acc -> f acc v) g.adj.(u) init

  let degree g u =
    check g u;
    ISet.cardinal g.adj.(u)

  let iter_edges f g =
    Array.iteri (fun u s -> ISet.iter (fun v -> if u < v then f u v) s) g.adj

  let edges g =
    let acc = ref [] in
    iter_edges (fun u v -> acc := (u, v) :: !acc) g;
    List.rev !acc

  let copy g = { adj = Array.copy g.adj; nb_edges = g.nb_edges }

  let is_subgraph a b =
    nb_nodes a = nb_nodes b
    &&
    let ok = ref true in
    iter_edges (fun u v -> if not (mem_edge b u v) then ok := false) a;
    !ok

  let equal a b = is_subgraph a b && is_subgraph b a
end

module Model_d = struct
  type t = { adj : ISet.t array; mutable nb_edges : int }

  let create n = { adj = Array.make n ISet.empty; nb_edges = 0 }
  let nb_nodes g = Array.length g.adj
  let nb_edges g = g.nb_edges

  let check g u =
    if u < 0 || u >= nb_nodes g then invalid_arg "Digraph: node out of range"

  let mem_edge g u v =
    check g u;
    check g v;
    ISet.mem v g.adj.(u)

  let add_edge g u v =
    check g u;
    check g v;
    if u = v then invalid_arg "Digraph.add_edge: self-loop";
    if not (ISet.mem v g.adj.(u)) then begin
      g.adj.(u) <- ISet.add v g.adj.(u);
      g.nb_edges <- g.nb_edges + 1
    end

  let remove_edge g u v =
    check g u;
    check g v;
    if ISet.mem v g.adj.(u) then begin
      g.adj.(u) <- ISet.remove v g.adj.(u);
      g.nb_edges <- g.nb_edges - 1
    end

  let row g u =
    check g u;
    ISet.elements g.adj.(u)

  let iter_row g u f =
    check g u;
    ISet.iter f g.adj.(u)

  let fold_row g u ~init ~f =
    check g u;
    ISet.fold (fun v acc -> f acc v) g.adj.(u) init

  let degree g u =
    check g u;
    ISet.cardinal g.adj.(u)

  let iter_edges f g = Array.iteri (fun u s -> ISet.iter (fun v -> f u v) s) g.adj

  let edges g =
    let acc = ref [] in
    iter_edges (fun u v -> acc := (u, v) :: !acc) g;
    List.rev !acc

  let copy g = { adj = Array.copy g.adj; nb_edges = g.nb_edges }

  let symmetric_closure g =
    let u_graph = Model_u.create (nb_nodes g) in
    iter_edges (fun u v -> Model_u.add_edge u_graph u v) g;
    u_graph

  let symmetric_core g =
    let u_graph = Model_u.create (nb_nodes g) in
    iter_edges
      (fun u v -> if u < v && mem_edge g v u then Model_u.add_edge u_graph u v)
      g;
    u_graph

  let equal a b =
    nb_nodes a = nb_nodes b
    && nb_edges a = nb_edges b
    && Array.for_all2 ISet.equal a.adj b.adj
end

(* What both implementations expose, under one set of names. *)
module type GRAPH = sig
  type t

  val create : int -> t
  val nb_edges : t -> int
  val add_edge : t -> int -> int -> unit
  val remove_edge : t -> int -> int -> unit
  val mem_edge : t -> int -> int -> bool
  val degree : t -> int -> int
  val row : t -> int -> int list
  val iter_row : t -> int -> (int -> unit) -> unit
  val fold_row : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
  val edges : t -> (int * int) list
  val iter_edges : (int -> int -> unit) -> t -> unit
  val copy : t -> t
  val equal : t -> t -> bool
end

module Ug : GRAPH with type t = U.t = struct
  include U

  let row = U.neighbors
  let iter_row = U.iter_neighbors
  let fold_row = U.fold_neighbors
end

module Dg : GRAPH with type t = D.t = struct
  include D

  let degree = D.out_degree
  let row = D.succ
  let iter_row = D.iter_succ
  let fold_row = D.fold_succ
end

type op =
  | Add of int * int
  | Remove of int * int
  | Mem of int * int
  | Degree of int
  | Row of int
  | Copy_mutate of int * int  (** toggle the edge on a copy *)

let pp_op = function
  | Add (u, v) -> Printf.sprintf "add %d %d" u v
  | Remove (u, v) -> Printf.sprintf "remove %d %d" u v
  | Mem (u, v) -> Printf.sprintf "mem %d %d" u v
  | Degree u -> Printf.sprintf "degree %d" u
  | Row u -> Printf.sprintf "row %d" u
  | Copy_mutate (u, v) -> Printf.sprintf "copy-toggle %d %d" u v

(* Small node counts make duplicate adds and removes of present edges
   common; one id in twenty is out of range, and u = v gives self-loops. *)
let ops_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    let id = frequency [ (19, int_range 0 (n - 1)); (1, oneofl [ -1; n ]) ] in
    let pr = pair id id in
    list_size (int_range 0 80)
      (frequency
         [
           (6, map (fun (u, v) -> Add (u, v)) pr);
           (3, map (fun (u, v) -> Remove (u, v)) pr);
           (2, map (fun (u, v) -> Mem (u, v)) pr);
           (1, map (fun u -> Degree u) id);
           (1, map (fun u -> Row u) id);
           (1, map (fun (u, v) -> Copy_mutate (u, v)) pr);
         ])
    >|= fun ops -> (n, ops))

let ops_arb =
  QCheck.make ops_gen ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map pp_op ops)))

(* Outcomes compared literally, [Invalid_argument] messages included. *)
let attempt f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

module Diff (I : GRAPH) (M : GRAPH) = struct
  let same_state g m =
    I.nb_edges g = M.nb_edges m
    && I.edges g = M.edges m
    &&
    let walk iter x =
      let acc = ref [] in
      iter (fun u v -> acc := (u, v) :: !acc) x;
      List.rev !acc
    in
    walk I.iter_edges g = walk M.iter_edges m

  let toggle add remove mem x u v =
    attempt (fun () -> if mem x u v then remove x u v else add x u v)

  (* One step on both sides: same outcome, same resulting state. *)
  let step g m op =
    let same a b = attempt a = attempt b in
    (match op with
    | Add (u, v) -> same (fun () -> I.add_edge g u v) (fun () -> M.add_edge m u v)
    | Remove (u, v) ->
        same (fun () -> I.remove_edge g u v) (fun () -> M.remove_edge m u v)
    | Mem (u, v) -> same (fun () -> I.mem_edge g u v) (fun () -> M.mem_edge m u v)
    | Degree u -> same (fun () -> I.degree g u) (fun () -> M.degree m u)
    | Row u -> same (fun () -> I.row g u) (fun () -> M.row m u)
    | Copy_mutate (u, v) ->
        let gc = I.copy g and mc = M.copy m in
        toggle I.add_edge I.remove_edge I.mem_edge gc u v
        = toggle M.add_edge M.remove_edge M.mem_edge mc u v
        && same_state gc mc
        && I.equal gc g = M.equal mc m)
    && same_state g m

  let run (n, ops) =
    let g = I.create n and m = M.create n in
    List.for_all (step g m) ops
    && List.for_all
         (fun u ->
           let walked =
             let acc = ref [] in
             I.iter_row g u (fun v -> acc := v :: !acc);
             List.rev !acc
           in
           let row = M.row m u in
           I.row g u = row && walked = row
           && List.rev (I.fold_row g u ~init:[] ~f:(fun l v -> v :: l)) = row
           && I.degree g u = M.degree m u)
         (List.init n Fun.id)
    && I.equal g (I.copy g)
    && (* drop the first edge from a copy: the original must not see it *)
    match I.edges g with
    | [] -> true
    | (u, v) :: _ ->
        let gc = I.copy g and mc = M.copy m in
        I.remove_edge gc u v;
        M.remove_edge mc u v;
        I.equal g gc = M.equal m mc
        && I.mem_edge g u v && same_state g m && same_state gc mc
end

module Diff_u = Diff (Ug) (Model_u)
module Diff_d = Diff (Dg) (Model_d)

(* Replays [ops] on both sides, ignoring rejected operations. *)
let replay (type g m) (module I : GRAPH with type t = g)
    (module M : GRAPH with type t = m) (n, ops) =
  let g = I.create n and m = M.create n in
  List.iter
    (function
      | Add (u, v) ->
          ignore (attempt (fun () -> I.add_edge g u v));
          ignore (attempt (fun () -> M.add_edge m u v))
      | Remove (u, v) ->
          ignore (attempt (fun () -> I.remove_edge g u v));
          ignore (attempt (fun () -> M.remove_edge m u v))
      | _ -> ())
    ops;
  (g, m)

let prop_ugraph_model =
  QCheck.Test.make ~count:500 ~name:"Ugraph = set-based model on random ops"
    ops_arb Diff_u.run

let prop_digraph_model =
  QCheck.Test.make ~count:500 ~name:"Digraph = set-based model on random ops"
    ops_arb Diff_d.run

let prop_ugraph_subgraph_model =
  QCheck.Test.make ~count:300 ~name:"Ugraph equal/is_subgraph = model"
    (QCheck.pair ops_arb ops_arb)
    (fun ((n, ops), (_, ops')) ->
      (* ids of [ops'] out of range for [n] are rejected and skipped *)
      let g, m = replay (module Ug) (module Model_u) (n, ops) in
      let h, mh = replay (module Ug) (module Model_u) (n, ops') in
      (* h2 = g plus a few edges, so subgraph answers are not all false *)
      let h2, mh2 = (U.copy g, Model_u.copy m) in
      List.iter
        (function
          | Add (u, v) ->
              ignore (attempt (fun () -> U.add_edge h2 u v));
              ignore (attempt (fun () -> Model_u.add_edge mh2 u v))
          | _ -> ())
        ops';
      List.for_all
        (fun (a, b, ma, mb) ->
          U.is_subgraph a b = Model_u.is_subgraph ma mb
          && U.equal a b = Model_u.equal ma mb)
        [ (g, h, m, mh); (h, g, mh, m); (g, h2, m, mh2); (h2, g, mh2, m); (g, g, m, m) ])

let prop_digraph_closure_core_model =
  QCheck.Test.make ~count:300
    ~name:"Digraph closure/core = model"
    ops_arb
    (fun (n, ops) ->
      let g, m = replay (module Dg) (module Model_d) (n, ops) in
      let closure = D.symmetric_closure g and core = D.symmetric_core g in
      U.edges closure = Model_u.edges (Model_d.symmetric_closure m)
      && U.nb_edges closure = Model_u.nb_edges (Model_d.symmetric_closure m)
      && U.edges core = Model_u.edges (Model_d.symmetric_core m)
      && U.nb_edges core = Model_u.nb_edges (Model_d.symmetric_core m))

let prop_of_arcs_model =
  QCheck.Test.make ~count:300 ~name:"Ugraph.of_arcs = add_edge on the model"
    (QCheck.make random_graph_gen)
    (fun (n, arcs) ->
      (* every arc twice, once reversed: duplicates must collapse *)
      let g =
        U.of_arcs n (fun add ->
            List.iter (fun (u, v) -> add u v; add v u) arcs)
      in
      let m = Model_u.create n in
      List.iter (fun (u, v) -> Model_u.add_edge m u v) arcs;
      U.edges g = Model_u.edges m
      && U.nb_edges g = Model_u.nb_edges m
      && List.for_all
           (fun u -> U.neighbors g u = Model_u.row m u)
           (List.init n Fun.id))

let test_rejects () =
  let g = U.create 3 and d = D.create 3 in
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  raises "ugraph self-loop" "Ugraph.add_edge: self-loop" (fun () -> U.add_edge g 2 2);
  raises "ugraph negative" "Ugraph: node out of range" (fun () -> U.add_edge g (-1) 0);
  raises "ugraph past end" "Ugraph: node out of range" (fun () -> ignore (U.mem_edge g 0 3));
  raises "ugraph remove" "Ugraph: node out of range" (fun () -> U.remove_edge g 3 0);
  raises "ugraph row" "Ugraph: node out of range" (fun () -> ignore (U.neighbors g 3));
  raises "ugraph degree" "Ugraph: node out of range" (fun () -> ignore (U.degree g (-1)));
  raises "of_arcs self-loop" "Ugraph.of_arcs: self-loop" (fun () ->
      ignore (U.of_arcs 3 (fun add -> add 1 1)));
  raises "of_arcs range" "Ugraph: node out of range" (fun () ->
      ignore (U.of_arcs 3 (fun add -> add 0 3)));
  raises "digraph self-loop" "Digraph.add_edge: self-loop" (fun () -> D.add_edge d 0 0);
  raises "digraph range" "Digraph: node out of range" (fun () -> D.add_edge d 0 5);
  raises "digraph succ" "Digraph: node out of range" (fun () -> ignore (D.succ d (-2)));
  Alcotest.(check int) "nothing added" 0 (U.nb_edges g + D.nb_edges d)

(* [Optimize.pairwise] removes edges from a copy of its input: rows are
   mutable, so the copy must not share them. *)
let test_copy_is_deep () =
  let g = U.of_edges 5 [ (0, 1); (0, 2); (1, 2); (3, 4) ] in
  let before = U.edges g in
  let h = U.copy g in
  U.remove_edge h 0 1;
  U.add_edge h 0 3;
  U.add_edge h 2 4;
  Alcotest.(check (list (pair int int))) "ugraph original unchanged" before (U.edges g);
  Alcotest.(check int) "ugraph original count" 4 (U.nb_edges g);
  Alcotest.(check (list int)) "ugraph original row" [ 1; 2 ] (U.neighbors g 0);
  let d = D.of_edges 3 [ (0, 1); (1, 2) ] in
  let e = D.copy d in
  D.remove_edge e 0 1;
  D.add_edge e 0 2;
  Alcotest.(check (list (pair int int))) "digraph original unchanged"
    [ (0, 1); (1, 2) ] (D.edges d)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "graphkit"
    [
      ( "ugraph",
        [
          Alcotest.test_case "basic" `Quick test_ugraph_basic;
          Alcotest.test_case "edge listing" `Quick test_ugraph_edges_listing;
          Alcotest.test_case "errors" `Quick test_ugraph_errors;
          Alcotest.test_case "subgraph and copy" `Quick test_ugraph_subgraph_copy;
          Alcotest.test_case "copy is deep" `Quick test_copy_is_deep;
          Alcotest.test_case "rejects self-loops and bad ids" `Quick test_rejects;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "closure vs core" `Quick test_digraph_closure_core;
        ] );
      ("unionfind", [ Alcotest.test_case "basic" `Quick test_unionfind ]);
      ( "traversal",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "same partition" `Quick test_same_partition;
          Alcotest.test_case "hop distances" `Quick test_hop_distances;
        ] );
      ("fheap", [ Alcotest.test_case "heap sorts" `Quick test_fheap_sorts ]);
      ( "shortest",
        [
          Alcotest.test_case "line graph" `Quick test_dijkstra_line;
          Alcotest.test_case "unreachable and digraph" `Quick
            test_dijkstra_unreachable_and_digraph;
          Alcotest.test_case "negative cost rejected" `Quick
            test_dijkstra_negative_cost_rejected;
        ] );
      ( "mst",
        [
          Alcotest.test_case "triangle" `Quick test_mst_triangle;
          Alcotest.test_case "forest per component" `Quick
            test_mst_forest_per_component;
        ] );
      ( "biconnect",
        [
          Alcotest.test_case "articulation points" `Quick test_articulation_points;
          Alcotest.test_case "bridges" `Quick test_bridges;
          Alcotest.test_case "is biconnected" `Quick test_is_biconnected;
        ] );
      ( "kconn",
        [
          Alcotest.test_case "k connectivity" `Quick test_k_connectivity;
          Alcotest.test_case "survives removal" `Quick test_survives_removal;
        ] );
      ( "properties",
        qsuite
          [
            prop_components_match_unionfind;
            prop_dijkstra_unit_weights_is_bfs;
            prop_mst_preserves_partition;
            prop_closure_contains_core;
          ] );
      ( "model",
        qsuite
          [
            prop_ugraph_model;
            prop_digraph_model;
            prop_ugraph_subgraph_model;
            prop_digraph_closure_core_model;
            prop_of_arcs_model;
          ] );
    ]
