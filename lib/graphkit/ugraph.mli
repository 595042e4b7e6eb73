(** Mutable undirected simple graphs over dense integer node ids.

    The topologies produced by CBTC and its optimizations ([G_alpha],
    [Gs_alpha], [G-_alpha], the pairwise-reduced graph) are values of
    this type.

    Each node's adjacency is a flat sorted [int] row with spare capacity,
    so membership is a binary search and inserting an id past the last
    one is an append: a builder that adds edges in [(u, v)]
    lexicographic order never shifts a row.

    {b Iteration contract.} The callbacks of {!iter_neighbors},
    {!fold_neighbors} and {!iter_edges} must not mutate the graph they
    walk; rows are updated in place, so the walk would see a mix of old
    and new entries.  Mutate a {!copy} instead. *)

type t

val create : int -> t

val nb_nodes : t -> int

val nb_edges : t -> int

(** [add_edge g u v] adds the undirected edge [{u, v}]; idempotent.
    Self-loops are rejected with [Invalid_argument]. *)
val add_edge : t -> int -> int -> unit

val remove_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** [neighbors g u] in increasing id order. *)
val neighbors : t -> int -> int list

(** [iter_neighbors g u f] applies [f] to each neighbor of [u] in
    increasing id order — same enumeration as {!neighbors} without
    allocating the list.  Preferred on traversal hot paths. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors g u ~init ~f] folds over the neighbors of [u] in
    increasing id order, allocation-free. *)
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val degree : t -> int -> int

(** [edges g] lists each edge once as [(u, v)] with [u < v],
    lexicographically. *)
val edges : t -> (int * int) list

val iter_edges : (int -> int -> unit) -> t -> unit

val of_edges : int -> (int * int) list -> t

(** [of_arcs n arcs] is the graph on [n] nodes whose edges are the pairs
    [arcs add] passes to [add], in either orientation; a pair may come
    several times.  [arcs] is called twice (once to size the rows, once
    to fill them) and must enumerate the same pairs both times.  Rows
    are filled unsorted, then each is sorted once, so no insert ever
    shifts a row, whatever the enumeration order.
    @raise Invalid_argument on an out-of-range id or a self-loop. *)
val of_arcs : int -> ((int -> int -> unit) -> unit) -> t

(** [copy g] is an independent graph: mutating either leaves the other
    unchanged. *)
val copy : t -> t

(** [is_subgraph a b] holds when every edge of [a] is an edge of [b]
    (node counts must agree). *)
val is_subgraph : t -> t -> bool

val equal : t -> t -> bool

val pp : t Fmt.t
