(** Graph generators: every input family used by the paper's analysis and by
    our experiments.

    Farness guarantees: [planted_far] and [hub_far] produce instances whose
    complete triangle set is the planted edge-disjoint family, so their
    distance to triangle-freeness is exactly the number of planted triangles
    (as a count of forced removals) and ǫ-farness is known by construction.
    Random families ([gnp], [tripartite_gnp]) are far with high probability
    (Lemma 4.5); tests certify them with {!Distance.certified_far}. *)

open Tfree_util
module Buf = Graph.Edge_buf

(* Edge buffer for about [expected] edges, with slack so a draw a little
   above the mean does not regrow it. *)
let buf_for expected = Buf.create (int_of_float (Float.min 1e7 (expected *. 1.1)))

(* [pair_cursor ~n buf] pushes the pair of each index it is given under the
   row-major enumeration of pairs (u, v), u < v.  Indices must arrive in
   increasing order: the row cursor only moves forward, so a whole sweep
   costs O(n + edges) and the pairs come out in lexicographic order. *)
let pair_cursor ~n buf =
  let u = ref 0 and row_start = ref 0 in
  fun idx ->
    while idx - !row_start >= n - 1 - !u do
      row_start := !row_start + (n - 1 - !u);
      incr u
    done;
    Buf.add buf !u (!u + 1 + idx - !row_start)

let gnp rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  (* Iterate over the n(n-1)/2 pairs with geometric skips. *)
  let total = n * (n - 1) / 2 in
  let buf = buf_for (p *. float_of_int total) in
  Sampling.bernoulli_iter rng total ~p (pair_cursor ~n buf);
  Graph.of_sorted_buf ~n buf

let gnm rng ~n ~m =
  let total = n * (n - 1) / 2 in
  if m > total then invalid_arg "Gen.gnm: too many edges";
  let buf = Buf.create m in
  List.iter (pair_cursor ~n buf) (Sampling.without_replacement rng total m);
  Graph.of_sorted_buf ~n buf

(** Tripartite random graph on parts U, V1, V2 of [part] vertices each (3·part
    total), each cross-part pair an edge iid with probability [p] — the hard
    distribution µ of §4.2.1 when p = γ/√n. *)
let tripartite_gnp rng ~part ~p =
  let n = 3 * part in
  let buf = buf_for (3.0 *. p *. float_of_int (part * part)) in
  let cross offset1 offset2 =
    Sampling.bernoulli_iter rng (part * part) ~p (fun idx ->
        Buf.add buf (offset1 + (idx / part)) (offset2 + (idx mod part)))
  in
  cross 0 part;
  cross 0 (2 * part);
  cross part (2 * part);
  Graph.of_buf ~n buf

(** Triangle-free bipartite noise on the vertices [lo .. hi-1], split in
    halves, each cross pair iid with probability [p].  Pairs are pushed in
    lexicographic order, lower half first. *)
let bipartite_noise rng buf ~lo ~hi ~p =
  let len = hi - lo in
  let half = len / 2 in
  let width = len - half in
  Sampling.bernoulli_iter rng (half * width) ~p (fun idx ->
      Buf.add buf (lo + (idx / width)) (lo + half + (idx mod width)))

(* About [noise] bipartite edges on [lo .. hi-1]; nothing, and no draw, when
   [noise <= 0] or fewer than two vertices remain. *)
let noise_on rng buf ~lo ~hi noise =
  let len = hi - lo in
  if noise > 0 && len >= 2 then begin
    let half = len / 2 in
    let total = max 1 (half * (len - half)) in
    bipartite_noise rng buf ~lo ~hi ~p:(Float.min 1.0 (float_of_int noise /. float_of_int total))
  end

(* Shuffle the labels (one Fisher–Yates draw sequence over [0 .. n-1]) of
   the pushed edges in place, then build once. *)
let shuffled_build rng ~n buf =
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  Buf.relabel buf perm;
  Graph.of_buf ~n buf

(** [planted_far rng ~n ~triangles ~noise] plants [triangles] vertex-disjoint
    triangles on the first 3·triangles vertices and adds ~[noise] bipartite
    (hence triangle-free) edges among the remaining vertices.  The triangle
    set of the result is exactly the planted family, so the graph is
    ǫ-far with ǫ = triangles / m. *)
let planted_far rng ~n ~triangles ~noise =
  if 3 * triangles > n then invalid_arg "Gen.planted_far: too many triangles";
  let buf = buf_for (float_of_int ((3 * triangles) + max 0 noise)) in
  for t = 0 to triangles - 1 do
    let a = 3 * t and b = (3 * t) + 1 and c = (3 * t) + 2 in
    Buf.add buf a b;
    Buf.add buf b c;
    Buf.add buf a c
  done;
  noise_on rng buf ~lo:(3 * triangles) ~hi:n noise;
  (* Shuffle labels so structure is not positional. *)
  shuffled_build rng ~n buf

(** The adversarial low-degree instance of §3.4.2: [hubs] high-degree vertices
    are the sources of all triangle-vees.  Leaves are grouped in pairs; each
    pair (a, b) attaches to a round-robin hub u with edges {u,a}, {u,b},
    {a,b}, yielding [pairs] edge-disjoint triangles all incident to the small
    hub set.  Average degree is ~6·pairs/n while hub degree is ~2·pairs/hubs. *)
let hub_far rng ~n ~hubs ~pairs =
  if hubs + (2 * pairs) > n then invalid_arg "Gen.hub_far: n too small";
  let buf = Buf.create (3 * pairs) in
  for i = 0 to pairs - 1 do
    let a = hubs + (2 * i) and b = hubs + (2 * i) + 1 in
    let u = i mod hubs in
    Buf.add buf u a;
    Buf.add buf u b;
    Buf.add buf a b
  done;
  shuffled_build rng ~n buf

(** Lemma 4.17 embedding: pad a graph with isolated vertices up to [n] and
    shuffle labels; triangles and farness-in-edges are preserved while the
    average degree drops to 2m/n. *)
let embed rng g ~n =
  let n' = Graph.n g in
  if n < n' then invalid_arg "Gen.embed: target smaller than source";
  let buf = Buf.create (Graph.m g) in
  Graph.iter_edges g (Buf.add buf);
  shuffled_build rng ~n buf

let shuffle_labels rng g =
  let perm = Array.init (Graph.n g) (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  Graph.relabel g perm

(* Small deterministic graphs for tests. *)

(* The graph on [n] vertices with every pair (u, v) such that [u < hi_u] and
   [max (u+1) lo_v <= v < n], pushed in lexicographic order. *)
let sorted_block ~n ~hi_u ~lo_v =
  let buf = Buf.create 16 in
  for u = 0 to hi_u - 1 do
    for v = max (u + 1) lo_v to n - 1 do
      Buf.add buf u v
    done
  done;
  Graph.of_sorted_buf ~n buf

let complete ~n = sorted_block ~n ~hi_u:n ~lo_v:0

let complete_bipartite ~left ~right = sorted_block ~n:(left + right) ~hi_u:left ~lo_v:left

let cycle ~n =
  if n < 3 then invalid_arg "Gen.cycle: n < 3";
  let buf = Buf.create n in
  for i = 0 to n - 1 do
    Buf.add buf i ((i + 1) mod n)
  done;
  Graph.of_buf ~n buf

let path ~n =
  let buf = Buf.create n in
  for i = 0 to n - 2 do
    Buf.add buf i (i + 1)
  done;
  Graph.of_sorted_buf ~n buf

let star ~n =
  let buf = Buf.create n in
  for i = 1 to n - 1 do
    Buf.add buf 0 i
  done;
  Graph.of_sorted_buf ~n buf

(** [plant_factors rng buf ~n_part ~rounds offset] plants [rounds]
    "triangle factors" on three parts of [n_part] vertices each (vertex ids
    starting at [offset]): round r matches part A to parts B and C by random
    permutations, creating n_part vertex-disjoint triangles per round.
    Rounds reuse vertices, so the number of planted triangles is not bounded
    by n/3 — this is how we reach high average degree while staying ǫ-far.
    Every edge is pushed into [buf], repeats across rounds included.
    Returns (distinct edges, lower bound on the edge-disjoint triangle
    count); the bound discounts every cross-round edge collision
    conservatively. *)
let plant_factors rng buf ~n_part ~rounds offset =
  let width = offset + (3 * n_part) in
  let keys = Array.make (3 * rounds * n_part) 0 in
  let pushed = ref 0 in
  (* a < b < c, so every pair is already normalized *)
  let add u v =
    Buf.add buf u v;
    keys.(!pushed) <- (u * width) + v;
    incr pushed
  in
  for _ = 1 to rounds do
    let pi = Array.init n_part (fun i -> i) in
    let sigma = Array.init n_part (fun i -> i) in
    Sampling.shuffle_in_place rng pi;
    Sampling.shuffle_in_place rng sigma;
    for i = 0 to n_part - 1 do
      let a = offset + i
      and b = offset + n_part + pi.(i)
      and c = offset + (2 * n_part) + sigma.(i) in
      add a b;
      add b c;
      add a c
    done
  done;
  Array.sort (fun (x : int) y -> compare x y) keys;
  let distinct = ref 0 in
  Array.iteri (fun i key -> if i = 0 || key <> keys.(i - 1) then incr distinct) keys;
  let collisions = Array.length keys - !distinct in
  (* A colliding edge invalidates at most the two triangles using it. *)
  (!distinct, max 0 ((rounds * n_part) - (2 * collisions)))

let tripartite_planted rng ~n_part ~rounds offset =
  let buf = Buf.create (3 * rounds * n_part) in
  let _, disjoint = plant_factors rng buf ~n_part ~rounds offset in
  (Graph.of_buf ~n:(offset + (3 * n_part)) buf, disjoint)

(** A graph that is ǫ-far by construction at target average degree [d]:
    an ǫ fraction of the m = nd/2 edges comes from planted edge-disjoint
    triangles (vertex-disjoint singles for small d, tripartite triangle
    factors for large d), the rest is bipartite (triangle-free) noise on
    separate vertices.  Triangle structure can only exceed the planted
    family, so the packing bound certifies at least the planted farness. *)
let far_with_degree rng ~n ~d ~eps =
  let m_target = max 3 (int_of_float (float_of_int n *. d /. 2.0)) in
  let triangles = max 1 (int_of_float (Float.ceil (eps *. float_of_int m_target))) in
  if (3 * triangles) + 2 <= n - (n / 4) then begin
    let noise = max 0 (m_target - (3 * triangles)) in
    planted_far rng ~n ~triangles ~noise
  end
  else begin
    (* Dense regime: triangle factors on half the vertices, noise on the rest. *)
    let n_part = max 1 (n / 6) in
    let rounds = max 1 (int_of_float (Float.ceil (float_of_int triangles /. float_of_int n_part))) in
    let buf = buf_for (float_of_int (m_target + (3 * rounds * n_part))) in
    let distinct, _ = plant_factors rng buf ~n_part ~rounds 0 in
    noise_on rng buf ~lo:(3 * n_part) ~hi:n (max 0 (m_target - distinct));
    shuffled_build rng ~n buf
  end

(** [planted_pattern_far rng ~n ~pattern ~copies ~noise] plants [copies]
    vertex-disjoint copies of the pattern and up to [noise] matching edges on
    the remaining vertices.  A matching contains no copy of any connected
    pattern with ≥ 3 vertices, so the packing of pattern copies is exactly the
    planted family: the instance is copies/m-far from pattern-freeness.  Used
    by the H-freeness extension (§5 / [19]-style patterns). *)
let planted_pattern_far rng ~n ~(pattern : Subgraph.pattern) ~copies ~noise =
  let h = pattern.Subgraph.vertices in
  if copies * h > n then invalid_arg "Gen.planted_pattern_far: too many copies";
  let buf = Buf.create ((copies * List.length pattern.Subgraph.edges) + max 0 noise) in
  for c = 0 to copies - 1 do
    List.iter (fun (a, b) -> Buf.add buf ((c * h) + a) ((c * h) + b)) pattern.Subgraph.edges
  done;
  let rest = Array.init (n - (copies * h)) (fun i -> (copies * h) + i) in
  Sampling.shuffle_in_place rng rest;
  for i = 0 to min noise (Array.length rest / 2) - 1 do
    Buf.add buf rest.(2 * i) rest.((2 * i) + 1)
  done;
  shuffled_build rng ~n buf

(** [diluted_far rng ~triangles ~extra_degree] plants [triangles]
    vertex-disjoint triangles and attaches [extra_degree] fresh leaves to
    every corner, so a corner's random neighbour-pair probe hits its
    triangle-vee with probability only ~2/extra_degree² — the hard regime
    for probe-based testers (farness ≈ 1/(3·(extra_degree+1))).  Returns the
    graph on 3·triangles·(1 + extra_degree) vertices. *)
let diluted_far rng ~triangles ~extra_degree =
  let corners = 3 * triangles in
  let n = corners * (1 + extra_degree) in
  let buf = Buf.create (n + corners) in
  for t = 0 to triangles - 1 do
    let a = 3 * t and b = (3 * t) + 1 and c = (3 * t) + 2 in
    Buf.add buf a b;
    Buf.add buf b c;
    Buf.add buf a c
  done;
  let next_leaf = ref corners in
  for corner = 0 to corners - 1 do
    for _ = 1 to extra_degree do
      Buf.add buf corner !next_leaf;
      incr next_leaf
    done
  done;
  shuffled_build rng ~n buf

(** Triangle-free graph with average degree ≈ d (bipartite random). *)
let free_with_degree rng ~n ~d =
  let m_target = max 1 (int_of_float (float_of_int n *. d /. 2.0)) in
  let half = n / 2 in
  let total = half * (n - half) in
  let p = Float.min 1.0 (float_of_int m_target /. float_of_int total) in
  let buf = buf_for (float_of_int m_target) in
  bipartite_noise rng buf ~lo:0 ~hi:n ~p;
  Graph.of_sorted_buf ~n buf
