(* The list-based instance builders and partitioners, kept as the oracle the
   array-native builders in [Tfree_graph] are checked against.  Each
   generator draws the same [Rng] values in the same order as the library
   one, passes edges around as [(int * int) list] and builds through
   [of_edges] below; [relabel] rebuilds from the relabelled edge list. *)

open Tfree_util
open Tfree_graph

(* ------------------------------------------------------------------ graphs *)

(* Edge set of [of_edges ~n edges], as a sorted list of normalized pairs,
   raising exactly the library's [Invalid_argument] on the first endpoint
   out of range. *)
let edge_set ~n edges =
  let check v =
    if v < 0 || v >= n then invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0,%d)" v n)
  in
  List.iter (fun (u, v) -> check u; check v) edges;
  List.sort_uniq compare
    (List.filter_map (fun (u, v) -> if u = v then None else Some (Graph.normalize_edge (u, v))) edges)

let of_edges ~n edges =
  let b = Graph.Edge_buf.create 16 in
  List.iter (fun (u, v) -> Graph.Edge_buf.add b u v) (edge_set ~n edges);
  Graph.of_sorted_buf ~n b

let relabel g perm = of_edges ~n:(Graph.n g) (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

(* -------------------------------------------------------------- generators *)

let pair_of_index ~n idx =
  let rec find_row u rem =
    let row = n - 1 - u in
    if rem < row then (u, u + 1 + rem) else find_row (u + 1) (rem - row)
  in
  find_row 0 idx

let gnp rng ~n ~p =
  let total = n * (n - 1) / 2 in
  of_edges ~n (List.map (pair_of_index ~n) (Sampling.bernoulli_subset rng total ~p))

let gnm rng ~n ~m =
  let total = n * (n - 1) / 2 in
  of_edges ~n (List.map (pair_of_index ~n) (Sampling.without_replacement rng total m))

let tripartite_gnp rng ~part ~p =
  let edges = ref [] in
  let cross offset1 offset2 =
    List.iter
      (fun idx -> edges := (offset1 + (idx / part), offset2 + (idx mod part)) :: !edges)
      (Sampling.bernoulli_subset rng (part * part) ~p)
  in
  cross 0 part;
  cross 0 (2 * part);
  cross part (2 * part);
  of_edges ~n:(3 * part) !edges

let bipartite_noise rng vertices ~p =
  let a = Array.of_list vertices in
  let len = Array.length a in
  let half = len / 2 in
  List.map
    (fun idx -> (a.(idx / (len - half)), a.(half + (idx mod (len - half)))))
    (Sampling.bernoulli_subset rng (half * (len - half)) ~p)

let noise_on rng rest noise =
  if noise <= 0 || List.length rest < 2 then []
  else begin
    let half = List.length rest / 2 in
    let total = max 1 (half * (List.length rest - half)) in
    bipartite_noise rng rest ~p:(Float.min 1.0 (float_of_int noise /. float_of_int total))
  end

let shuffled rng n =
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  perm

let planted_far rng ~n ~triangles ~noise =
  if 3 * triangles > n then invalid_arg "Gen.planted_far: too many triangles";
  let tri_edges =
    List.concat_map
      (fun t -> [ (3 * t, (3 * t) + 1); ((3 * t) + 1, (3 * t) + 2); (3 * t, (3 * t) + 2) ])
      (List.init triangles (fun t -> t))
  in
  let rest = List.init (n - (3 * triangles)) (fun i -> (3 * triangles) + i) in
  let noise_edges = noise_on rng rest noise in
  let perm = shuffled rng n in
  relabel (of_edges ~n (tri_edges @ noise_edges)) perm

let hub_far rng ~n ~hubs ~pairs =
  let edges = ref [] in
  for i = 0 to pairs - 1 do
    let a = hubs + (2 * i) and b = hubs + (2 * i) + 1 in
    let u = i mod hubs in
    edges := (u, a) :: (u, b) :: (a, b) :: !edges
  done;
  relabel (of_edges ~n !edges) (shuffled rng n)

let embed rng g ~n = relabel (of_edges ~n (Graph.edges g)) (shuffled rng n)

let tripartite_planted rng ~n_part ~rounds offset =
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let edges = ref [] in
  let collisions = ref 0 in
  let add u v =
    let e = if u < v then (u, v) else (v, u) in
    if Hashtbl.mem seen e then incr collisions
    else begin
      Hashtbl.replace seen e ();
      edges := e :: !edges
    end
  in
  for _ = 1 to rounds do
    let pi = shuffled rng n_part in
    let sigma = shuffled rng n_part in
    for i = 0 to n_part - 1 do
      let a = offset + i and b = offset + n_part + pi.(i) and c = offset + (2 * n_part) + sigma.(i) in
      add a b;
      add b c;
      add a c
    done
  done;
  (!edges, max 0 ((rounds * n_part) - (2 * !collisions)))

let far_with_degree rng ~n ~d ~eps =
  let m_target = max 3 (int_of_float (float_of_int n *. d /. 2.0)) in
  let triangles = max 1 (int_of_float (Float.ceil (eps *. float_of_int m_target))) in
  if (3 * triangles) + 2 <= n - (n / 4) then
    planted_far rng ~n ~triangles ~noise:(max 0 (m_target - (3 * triangles)))
  else begin
    let n_part = max 1 (n / 6) in
    let rounds = max 1 (int_of_float (Float.ceil (float_of_int triangles /. float_of_int n_part))) in
    let tri_edges, _ = tripartite_planted rng ~n_part ~rounds 0 in
    let rest = List.init (n - (3 * n_part)) (fun i -> (3 * n_part) + i) in
    let noise_edges = noise_on rng rest (max 0 (m_target - List.length tri_edges)) in
    relabel (of_edges ~n (tri_edges @ noise_edges)) (shuffled rng n)
  end

let planted_pattern_far rng ~n ~(pattern : Subgraph.pattern) ~copies ~noise =
  let h = pattern.Subgraph.vertices in
  let planted =
    List.concat_map
      (fun c -> List.map (fun (a, b) -> ((c * h) + a, (c * h) + b)) pattern.Subgraph.edges)
      (List.init copies (fun c -> c))
  in
  let rest = Array.init (n - (copies * h)) (fun i -> (copies * h) + i) in
  Sampling.shuffle_in_place rng rest;
  let noise_edges =
    List.init (min noise (Array.length rest / 2)) (fun i -> (rest.(2 * i), rest.((2 * i) + 1)))
  in
  relabel (of_edges ~n (planted @ noise_edges)) (shuffled rng n)

let diluted_far rng ~triangles ~extra_degree =
  let corners = 3 * triangles in
  let n = corners * (1 + extra_degree) in
  let edges = ref [] in
  for t = 0 to triangles - 1 do
    let a = 3 * t and b = (3 * t) + 1 and c = (3 * t) + 2 in
    edges := (a, b) :: (b, c) :: (a, c) :: !edges
  done;
  let next_leaf = ref corners in
  for corner = 0 to corners - 1 do
    for _ = 1 to extra_degree do
      edges := (corner, !next_leaf) :: !edges;
      incr next_leaf
    done
  done;
  relabel (of_edges ~n !edges) (shuffled rng n)

let free_with_degree rng ~n ~d =
  let m_target = max 1 (int_of_float (float_of_int n *. d /. 2.0)) in
  let half = n / 2 in
  let p = Float.min 1.0 (float_of_int m_target /. float_of_int (half * (n - half))) in
  of_edges ~n (bipartite_noise rng (List.init n (fun i -> i)) ~p)

(* ------------------------------------------------------------ partitioners *)

let of_assignment ~n ~k assign =
  let buckets = Array.make k [] in
  List.iter (fun (j, e) -> buckets.(j) <- e :: buckets.(j)) assign;
  Array.map (fun es -> of_edges ~n es) buckets

let disjoint_random rng ~k g =
  of_assignment ~n:(Graph.n g) ~k (List.map (fun e -> (Rng.int rng k, e)) (Graph.edges g))

let with_duplication rng ~k ~dup_p g =
  let assign =
    List.concat_map
      (fun e ->
        let owner = Rng.int rng k in
        let copies =
          List.filter_map
            (fun j -> if j <> owner && Rng.bool rng ~p:dup_p then Some (j, e) else None)
            (List.init k (fun j -> j))
        in
        (owner, e) :: copies)
      (Graph.edges g)
  in
  of_assignment ~n:(Graph.n g) ~k assign

let by_endpoint_hash rng ~k g =
  let salt = Rng.int rng 1_000_000_007 in
  of_assignment ~n:(Graph.n g) ~k
    (List.map (fun (u, v) -> ((u + salt) mod k, (u, v))) (Graph.edges g))

let skewed rng ~k ~bias g =
  let assign =
    List.map
      (fun e -> if Rng.bool rng ~p:bias then (0, e) else (1 + Rng.int rng (max 1 (k - 1)), e))
      (Graph.edges g)
  in
  of_assignment ~n:(Graph.n g) ~k assign
