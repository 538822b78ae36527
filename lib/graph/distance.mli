(** Certified bounds on the distance to triangle-freeness (the exact distance
    is NP-hard): a packing lower bound and a greedy hitting-set upper bound.
    A graph is ǫ-far when at least ǫ·m edge removals are needed (§2). *)

(** Removals forced by the greedy edge-disjoint packing (lower bound). *)
val removal_lower_bound : Graph.t -> int

(** Greedy triangle-hitting edge set, in removal order: each step removes
    the edge in the most remaining triangles, ties to the lexicographically
    smallest.  Removing it leaves the graph triangle-free. *)
val greedy_removal_set : Graph.t -> Graph.edge list

(** Size of {!greedy_removal_set} (upper bound). *)
val removal_upper_bound : Graph.t -> int

(** Is the graph certifiably ǫ-far?  [false] means "not certified by the
    packing bound", not "close". *)
val certified_far : Graph.t -> eps:float -> bool

(** Is the graph certifiably NOT ǫ-far (greedy removal set below ǫ·m)? *)
val certified_close : Graph.t -> eps:float -> bool

(** Best-known farness interval [lo, hi], as fractions of m. *)
val farness_interval : Graph.t -> float * float
