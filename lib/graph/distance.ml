(** Distance to triangle-freeness.

    A graph is ǫ-far from triangle-free when at least ǫ·m edges must be
    removed to destroy every triangle.  Computing that distance exactly is
    NP-hard in general, but the reproduction only ever needs certified
    bounds:

    - {b lower bound}: any edge-disjoint triangle packing of size t forces at
      least t removals (each packed triangle loses >= 1 private edge);
    - {b upper bound}: any hitting set of edges that meets all triangles is a
      valid removal set; we take the greedy one.

    Generators plant instances whose farness is known by construction; these
    bounds serve as independent verification in tests and experiments. *)

(** Removals forced by the greedy packing. *)
let removal_lower_bound g = List.length (Triangle.greedy_packing g)

module Int_set = Set.Make (Int)

(* Position of [x] in the sorted range [a.(lo) .. a.(hi - 1)], which holds
   it. *)
let index_of (a : int array) lo hi x =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    if a.(mid) = x then mid else if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go lo hi

(* Calls [f w] for every common neighbour [w] of [u] and [v], merging the
   two CSR rows in place. *)
let iter_common g u v f =
  let off = Graph.off g and nbr = Graph.nbr g in
  let i = ref off.(u) and j = ref off.(v) in
  let ie = off.(u + 1) and je = off.(v + 1) in
  while !i < ie && !j < je do
    let x = nbr.(!i) and y = nbr.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      f x;
      incr i;
      incr j
    end
  done

(** Greedy hitting set: repeatedly delete the edge in the most remaining
    triangles, ties to the lexicographically smallest edge.  Each edge's
    triangle count is computed once and decremented as the edges of its
    triangles go, so no triangle is enumerated twice. *)
let greedy_removal_set g =
  let n = Graph.n g in
  (* Edge (u, v), u < v, is slot [off.(u) + index of v in u's row], i.e.
     its position in the CSR neighbour array; slot order is lexicographic
     edge order. *)
  let off = Graph.off g and nbr = Graph.nbr g in
  let slots = max 1 off.(n) in
  let slot a b =
    let u = min a b and v = max a b in
    index_of nbr off.(u) off.(u + 1) v
  in
  let count = Array.make slots 0 and alive = Array.make slots true in
  let ends = Array.make slots (0, 0) in
  (* the queue orders by count descending, then slot ascending *)
  let key s = ((n - count.(s)) * slots) + s in
  let queue = ref Int_set.empty in
  Graph.iter_edges g (fun u v ->
      let s = slot u v in
      ends.(s) <- (u, v);
      iter_common g u v (fun _ -> count.(s) <- count.(s) + 1);
      if count.(s) > 0 then queue := Int_set.add (key s) !queue);
  let drop s =
    queue := Int_set.remove (key s) !queue;
    count.(s) <- count.(s) - 1;
    if count.(s) > 0 then queue := Int_set.add (key s) !queue
  in
  let rec loop removed =
    match Int_set.min_elt_opt !queue with
    | None -> List.rev removed
    | Some k ->
        let s = k mod slots in
        queue := Int_set.remove k !queue;
        alive.(s) <- false;
        let u, v = ends.(s) in
        iter_common g u v (fun w ->
            let su = slot u w and sv = slot v w in
            if alive.(su) && alive.(sv) then begin
              drop su;
              drop sv
            end);
        loop ((u, v) :: removed)
  in
  loop []

let removal_upper_bound g = List.length (greedy_removal_set g)

(** Certified check that [g] is ǫ-far: the packing lower bound alone
    suffices.  [false] means "not certified", not "close". *)
let certified_far g ~eps =
  float_of_int (removal_lower_bound g) >= eps *. float_of_int (Graph.m g)

(** Certified check that removing fewer than ǫ·m edges suffices, i.e. [g] is
    certainly NOT ǫ-far. *)
let certified_close g ~eps = float_of_int (removal_upper_bound g) < eps *. float_of_int (Graph.m g)

(** Best-known farness interval [lo, hi] as fractions of m. *)
let farness_interval g =
  let m = float_of_int (max 1 (Graph.m g)) in
  (float_of_int (removal_lower_bound g) /. m, float_of_int (removal_upper_bound g) /. m)
