(** Triangle machinery: detection, enumeration, counting, greedy edge-disjoint
    packing, and the paper's triangle-vee notions (Definitions 2 and 3).

    Enumeration uses the standard forward algorithm over a degeneracy-style
    order (vertices sorted by degree): each triangle is reported exactly once,
    in O(m^{3/2}) time, which is fast enough for every referee and generator
    in this reproduction. *)

type triangle = int * int * int

(** Normalize to increasing vertex order. *)
let normalize (a, b, c) =
  let l = List.sort compare [ a; b; c ] in
  match l with [ x; y; z ] -> (x, y, z) | _ -> assert false

let is_triangle g (a, b, c) =
  a <> b && b <> c && a <> c && Graph.mem_edge g a b && Graph.mem_edge g b c && Graph.mem_edge g a c

(* Rank vertices by (degree, id); the forward algorithm directs each edge from
   lower to higher rank and intersects out-neighbourhoods.  Counting sort on
   degrees — O(n + max degree), no comparison sort — filled in vertex-id order
   so it is stable, i.e. identical to sorting by (degree, id). *)
let degree_order g =
  let n = Graph.n g and off = Graph.off g in
  let maxd = ref 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    if d > !maxd then maxd := d
  done;
  let start = Array.make (!maxd + 1) 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    start.(d) <- start.(d) + 1
  done;
  let acc = ref 0 in
  for d = 0 to !maxd do
    let c = start.(d) in
    start.(d) <- !acc;
    acc := !acc + c
  done;
  let rank = Array.make n 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    rank.(v) <- start.(d);
    start.(d) <- start.(d) + 1
  done;
  rank

(* CSR of the higher-rank out-adjacency: the out-neighbours of [v] are
   [csr.(off.(v)) .. csr.(off.(v + 1) - 1)], sorted by vertex id (the
   graph's rows are already sorted, and filtering preserves order — no sort,
   no intermediate lists).  The rows are read in place from the graph's own
   CSR.  Flat layout keeps the whole structure in two allocations and the
   intersections cache-friendly.  [rank] is annotated so the rank tests are
   int comparisons, not calls to the generic compare. *)
let build_out_csr g (rank : int array) =
  let n = Graph.n g in
  let goff = Graph.off g and gnbr = Graph.nbr g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let rv = rank.(v) in
    let c = ref 0 in
    for i = goff.(v) to goff.(v + 1) - 1 do
      if rank.(gnbr.(i)) > rv then incr c
    done;
    off.(v + 1) <- off.(v) + !c
  done;
  let csr = Array.make (max 1 off.(n)) 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let rv = rank.(v) in
    for i = goff.(v) to goff.(v + 1) - 1 do
      let u = gnbr.(i) in
      if rank.(u) > rv then begin
        csr.(!k) <- u;
        incr k
      end
    done
  done;
  (off, csr)

exception Stop

(* Forward algorithm over the CSR.  [f] returns [true] to stop enumeration;
   the function returns whether it was stopped early.  Triangles are reported
   in the same order as the historical array-of-arrays implementation:
   ascending [u], then ascending [v] within [u], then ascending [w]. *)
let forward g f =
  let n = Graph.n g in
  if n = 0 then false
  else begin
    let rank = degree_order g in
    let off, csr = build_out_csr g rank in
    try
      for u = 0 to n - 1 do
        let ulo = off.(u) and uhi = off.(u + 1) in
        for i = ulo to uhi - 1 do
          let v = csr.(i) in
          let vhi = off.(v + 1) in
          let p = ref ulo and q = ref off.(v) in
          while !p < uhi && !q < vhi do
            let a = csr.(!p) and b = csr.(!q) in
            if a = b then begin
              if f u v a then raise_notrace Stop;
              incr p;
              incr q
            end
            else if a < b then incr p
            else incr q
          done
        done
      done;
      false
    with Stop -> true
  end

(** [iter g f] calls [f a b c] once per triangle, with [rank a < rank b <
    rank c] in the degree order (vertex ids in unspecified order otherwise). *)
let iter g f =
  ignore
    (forward g (fun a b c ->
         f a b c;
         false))

(** [iter_until g f] enumerates like {!iter} but stops as soon as [f] returns
    [true]; the result says whether it stopped.  This is the early-exit path
    under {!find}/{!is_free}: referees only need one witness, so there is no
    reason to walk the remaining intersections. *)
let iter_until g f = forward g f

let count g =
  let c = ref 0 in
  iter g (fun _ _ _ -> incr c);
  !c

let enumerate g =
  let acc = ref [] in
  iter g (fun a b c -> acc := normalize (a, b, c) :: !acc);
  List.rev !acc

(** First triangle found, if any — the referee's final check in every
    protocol.  One-sided error hinges on this returning only real triangles,
    which [iter_until] guarantees; enumeration stops at the first witness. *)
let find g =
  let result = ref None in
  ignore
    (iter_until g (fun a b c ->
         result := Some (normalize (a, b, c));
         true));
  !result

let is_free g = Option.is_none (find g)

(** Greedy maximal edge-disjoint triangle packing.  Its size lower-bounds the
    number of edges whose removal is needed to destroy all triangles, hence
    certifies ǫ-farness: packing of size >= ǫ·m implies ǫ-far. *)
let greedy_packing g =
  let used : (Graph.edge, unit) Hashtbl.t = Hashtbl.create 64 in
  let free e = not (Hashtbl.mem used e) in
  let acc = ref [] in
  iter g (fun a b c ->
      let e1 = Graph.normalize_edge (a, b)
      and e2 = Graph.normalize_edge (b, c)
      and e3 = Graph.normalize_edge (a, c) in
      if free e1 && free e2 && free e3 then begin
        Hashtbl.replace used e1 ();
        Hashtbl.replace used e2 ();
        Hashtbl.replace used e3 ();
        acc := normalize (a, b, c) :: !acc
      end);
  List.rev !acc

(** A triangle-vee with source [v] (Definition 2): edges {v,a},{v,b} such
    that {a,b} is also in the graph. *)
type vee = { source : int; a : int; b : int }

let is_vee g { source; a; b } =
  a <> b && Graph.mem_edge g source a && Graph.mem_edge g source b && Graph.mem_edge g a b

(** Greedy maximal set of disjoint triangle-vees with source [v]: pairwise
    edge-disjoint at [v], i.e. a matching in the link graph on N(v).  Greedy
    maximal matching is a 2-approximation, which suffices for the full-vertex
    analysis (Definition 5). *)
let disjoint_vees_at g v =
  let deg = Graph.degree g v in
  let lo = (Graph.off g).(v) and nbr = Graph.nbr g in
  let used = Array.make deg false in
  let acc = ref [] in
  for i = 0 to deg - 1 do
    if not used.(i) then begin
      let a = nbr.(lo + i) in
      let rec probe j =
        if j >= deg then ()
        else if (not used.(j)) && Graph.mem_edge g a nbr.(lo + j) then begin
          used.(i) <- true;
          used.(j) <- true;
          acc := { source = v; a; b = nbr.(lo + j) } :: !acc
        end
        else probe (j + 1)
      in
      probe (i + 1)
    end
  done;
  List.rev !acc

let count_disjoint_vees_at g v = List.length (disjoint_vees_at g v)

(** Is [e] a triangle edge (Definition 3)? *)
let is_triangle_edge g (u, v) =
  Graph.mem_edge g u v
  && begin
       let scan, probe = if Graph.degree g u <= Graph.degree g v then (u, v) else (v, u) in
       Graph.exists_neighbor g scan (fun w -> w <> u && w <> v && Graph.mem_edge g probe w)
     end

(** All triangle edges, each once. *)
let triangle_edges g =
  let tbl = Hashtbl.create 64 in
  iter g (fun a b c ->
      Hashtbl.replace tbl (Graph.normalize_edge (a, b)) ();
      Hashtbl.replace tbl (Graph.normalize_edge (b, c)) ();
      Hashtbl.replace tbl (Graph.normalize_edge (a, c)) ());
  Hashtbl.fold (fun e () acc -> e :: acc) tbl []

(** Given a set of candidate vees and a graph of available edges, find an edge
    closing some vee into a triangle: the "players check their own inputs"
    step of the unrestricted protocol (§3.3). *)
let close_vee available vees =
  List.find_map
    (fun ({ source = _; a; b } as vee) ->
      if Graph.mem_edge available a b then Some (vee, Graph.normalize_edge (a, b)) else None)
    vees
