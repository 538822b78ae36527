(** Undirected simple graphs on vertices [0 .. n-1], the common substrate for
    the whole reproduction.

    The representation is immutable after construction and is one flat
    compressed-sparse-row (CSR) adjacency: an offset array [off] of length
    [n + 1] and one neighbour array [nbr] of length [2m], where the
    neighbours of [v] are [nbr.(off.(v)) .. nbr.(off.(v + 1) - 1)] in
    strictly increasing order.  A graph is therefore two allocations
    whatever its size, with O(log deg) edge membership, O(1) degree queries
    and cheap set intersections (the triangle algorithms rely on all
    three).  Hot readers walk the rows in place through {!off} and {!nbr};
    {!neighbors} copies a row and is for cold code only.  A player's
    private input in the communication protocols is itself a [t] on the
    same vertex set, so every local operation a player performs is a plain
    graph operation. *)

type t

(** An edge is normalized as [(u, v)] with [u < v]. *)
type edge = int * int

val normalize_edge : int * int -> edge

(** [of_edges ~n edges] builds a graph; duplicate edges and self-loops are
    dropped.  Raises [Invalid_argument] on out-of-range endpoints. *)
val of_edges : n:int -> (int * int) list -> t

(** [of_edge_seq ~n seq] is {!of_edges} over a sequence, forced exactly once:
    endpoints stream into an {!Edge_buf} (no intermediate list cells), so
    million-edge parsers feed the build incrementally, and an out-of-range
    endpoint stops the forcing at that edge.  Semantics are identical to
    [of_edges ~n (List.of_seq seq)]. *)
val of_edge_seq : n:int -> (int * int) Seq.t -> t

(** Growable flat buffer of edge endpoints, two ints per edge: the
    array-native builders push into one and build the graph once. *)
module Edge_buf : sig
  type t

  (** Empty buffer with room for about the given number of edges. *)
  val create : int -> t

  val add : t -> int -> int -> unit

  (** [relabel b perm] renames every endpoint [x] to [perm.(x)], in place. *)
  val relabel : t -> int array -> unit
end

(** {!of_edges} over the buffer's pairs, in push order. *)
val of_buf : n:int -> Edge_buf.t -> t

(** Build from pairs that are strictly increasing in lexicographic order
    with [u < v] — the order {!iter_edges} yields.  Every row then fills in
    sorted order, so no sort or dedup pass runs.
    @raise Invalid_argument when a pair leaves the range or breaks the
    order. *)
val of_sorted_buf : n:int -> Edge_buf.t -> t

val empty : n:int -> t

(** Number of vertices. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** Average degree 2m/n (0 for the empty vertex set). *)
val avg_degree : t -> float

val degree : t -> int -> int

(** The CSR offsets, length [n + 1]: row [v] spans
    [off.(v) .. off.(v + 1) - 1] of {!nbr}.  Physically shared, zero-copy;
    do not mutate. *)
val off : t -> int array

(** The CSR neighbour array, length [2m]: all rows back to back, each
    strictly increasing.  Physically shared, zero-copy; do not mutate. *)
val nbr : t -> int array

(** A fresh sorted copy of [v]'s row.  It allocates on every call, so hot
    loops read {!off}/{!nbr} (or {!iter_neighbors}) instead. *)
val neighbors : t -> int -> int array

(** [v]'s row as a sorted list, built straight from the CSR. *)
val neighbor_list : t -> int -> int list

(** [f] on each neighbour of [v], in increasing order, without copying. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** Does some neighbour of [v] satisfy [f]?  Stops at the first one, in
    increasing order, without copying. *)
val exists_neighbor : t -> int -> (int -> bool) -> bool

(** O(log min-degree) membership probe of the shorter sorted row; both
    vertices must be in range. *)
val mem_edge : t -> int -> int -> bool

(** All edges, each once, normalized, in lexicographic order. *)
val edges : t -> edge list

val iter_edges : t -> (int -> int -> unit) -> unit

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** Union of edge sets (same [n] required); row-by-row linear merge of
    the two CSRs. *)
val union : t -> t -> t

val union_list : n:int -> t list -> t

(** Subgraph keeping only edges with both endpoints in the given set. *)
val induced : t -> int list -> t

(** Subgraph keeping edges on which [f u v] holds. *)
val filter_edges : t -> (int -> int -> bool) -> t

(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. *)
val relabel : t -> int array -> t

(** Structural equality of edge sets. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
