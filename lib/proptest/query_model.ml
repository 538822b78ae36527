(** The classical (centralized) property-testing query model, as the
    comparator the paper positions itself against (§1, §2).

    A tester accesses the input graph only through an oracle — edge queries
    (dense model), degree and i-th-neighbour queries (sparse/general model) —
    and its complexity is the number of queries.  The oracle counts each kind
    so experiments can put query counts side by side with communication
    bits. *)

open Tfree_graph

type t = {
  graph : Graph.t;
  mutable edge_queries : int;
  mutable degree_queries : int;
  mutable neighbor_queries : int;
}

let make graph = { graph; edge_queries = 0; degree_queries = 0; neighbor_queries = 0 }

let n t = Graph.n t.graph

(** Is {u, v} an edge?  (Dense-model primitive.) *)
let edge_query t u v =
  t.edge_queries <- t.edge_queries + 1;
  Graph.mem_edge t.graph u v

(** deg(v).  (General-model auxiliary query.) *)
let degree_query t v =
  t.degree_queries <- t.degree_queries + 1;
  Graph.degree t.graph v

(** i-th neighbour of v (0-based); [None] when i >= deg(v).
    (Sparse-model primitive.) *)
let neighbor_query t v i =
  t.neighbor_queries <- t.neighbor_queries + 1;
  if i < 0 then invalid_arg "Query_model.neighbor_query: negative index";
  if i < Graph.degree t.graph v then Some (Graph.nbr t.graph).((Graph.off t.graph).(v) + i) else None

let total_queries t = t.edge_queries + t.degree_queries + t.neighbor_queries
