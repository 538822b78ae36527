(** Shared random vertex samples and the edges they select — the common
    step of the simultaneous testers (Algorithms 7, 8 and 11, §3.4).

    A sample is a shared Bernoulli mark per vertex ({!Tfree_util.Rng.hash_bool}
    keyed by the vertex), so every player and the referee agree on it
    without communicating.  A player computes each mark once, with
    {!Tfree_util.Rng.hash_bool_bits}, into one byte per vertex holding up
    to eight independent samples as bits, and then scans only the CSR rows
    of marked vertices. *)

open Tfree_graph

(** One byte per vertex, all bits clear. *)
val create : n:int -> Bytes.t

(** [edges input marks ~mask ~need ~cap] selects the edges (u, v), u < v, of
    [input] whose endpoints both carry a bit of [mask] and which together
    carry every bit of [need].  The result is the last [cap] selected edges
    in lexicographic order, listed in reverse lexicographic order: exactly
    what prepending each selected edge during {!Graph.fold_edges} and then
    keeping the first [cap] gives. *)
val edges : Graph.t -> Bytes.t -> mask:int -> need:int -> cap:int -> (int * int) list
