(** Behrend graphs — the instances §5 expects dense-regime lower bounds to
    need ("devising a hard distribution for dense graphs ... will require
    some sophisticated utilization of Behrend graphs [3]").

    Behrend's construction gives a large subset S of [M] free of 3-term
    arithmetic progressions: encode vectors a ∈ {0..base-1}^digits as
    integers in radix 2·base and keep one spherical shell Σaᵢ² = r.  Sums of
    two members never carry between digits, so x + z = 2y lifts to the
    vector equation, and strict convexity of the Euclidean norm forces
    x = z on a shell: no non-trivial 3-AP.

    The graph: tripartite on parts of size M, 2M, 3M with, for every x ∈ [M]
    and s ∈ S, the triangle  a_x — b_{x+s} — c_{x+2s}.  Because S is
    3-AP-free these are the ONLY triangles, and they are pairwise
    edge-disjoint: the graph is 1/3-far from triangle-free (every edge is in
    exactly one triangle) yet its triangle count is minimal for its size —
    the regime where sampling testers are weakest. *)

open Tfree_util

(** The largest spherical shell of {0..base-1}^digits, encoded in radix
    2·base: a 3-AP-free subset of [ (2·base)^digits ]. *)
let ap_free_set ~base ~digits =
  if base < 2 || digits < 1 then invalid_arg "Behrend.ap_free_set: base >= 2, digits >= 1";
  let radix = 2 * base in
  (* Enumerate all digit vectors, bucket by squared norm, keep the largest. *)
  let shells : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let rec enumerate idx value norm =
    if idx >= digits then begin
      match Hashtbl.find_opt shells norm with
      | Some r -> r := value :: !r
      | None -> Hashtbl.add shells norm (ref [ value ])
    end
    else
      for a = 0 to base - 1 do
        enumerate (idx + 1) ((value * radix) + a) (norm + (a * a))
      done
  in
  enumerate 0 0 0;
  let best =
    Hashtbl.fold
      (fun norm r acc ->
        match acc with
        | Some (_, len) when len >= List.length !r -> acc
        | _ -> if norm = 0 then acc else Some (!r, List.length !r))
      shells None
  in
  match best with Some (s, _) -> List.sort compare s | None -> []

(** Is the set free of non-trivial 3-term APs (x + z = 2y)?  O(|S|²) check
    used by the tests. *)
let is_ap_free s =
  let arr = Array.of_list (List.sort_uniq compare s) in
  let mem =
    let tbl = Hashtbl.create (Array.length arr) in
    Array.iter (fun x -> Hashtbl.replace tbl x ()) arr;
    fun x -> Hashtbl.mem tbl x
  in
  let len = Array.length arr in
  let ok = ref true in
  for i = 0 to len - 1 do
    for j = i + 1 to len - 1 do
      (* x = arr(i), z = arr(j); the midpoint must not be a member. *)
      let sum = arr.(i) + arr.(j) in
      if sum mod 2 = 0 && mem (sum / 2) then ok := false
    done
  done;
  !ok

type t = {
  graph : Graph.t;
  m_param : int;  (** M: the part-size parameter *)
  set_size : int;  (** |S| *)
  planted : int;  (** number of (edge-disjoint) triangles: M·|S| *)
}

(* Part offsets: A = [0, M), B = [M, 3M), C = [3M, 6M). *)
let vertex_a ~m_param x = x mod m_param
let vertex_b ~m_param y = m_param + (y mod (2 * m_param))
let vertex_c ~m_param z = (3 * m_param) + (z mod (3 * m_param))

(** Build the Behrend graph for the 3-AP-free set [s] over [M] = [m_param];
    6·M vertices, 3·M·|S| edges, exactly M·|S| triangles, all edge-disjoint
    (1/3-far). *)
let graph_of_set ~m_param s =
  List.iter
    (fun x -> if x < 0 || x >= m_param then invalid_arg "Behrend.graph_of_set: set out of range")
    s;
  let buf = Graph.Edge_buf.create (3 * m_param * List.length s) in
  for x = 0 to m_param - 1 do
    List.iter
      (fun sv ->
        let a = vertex_a ~m_param x
        and b = vertex_b ~m_param (x + sv)
        and c = vertex_c ~m_param (x + (2 * sv)) in
        Graph.Edge_buf.add buf a b;
        Graph.Edge_buf.add buf b c;
        Graph.Edge_buf.add buf a c)
      s
  done;
  {
    graph = Graph.of_buf ~n:(6 * m_param) buf;
    m_param;
    set_size = List.length s;
    planted = m_param * List.length s;
  }

(** Behrend instance sized by (base, digits); optionally relabelled. *)
let instance ?rng ~base ~digits () =
  let s = ap_free_set ~base ~digits in
  let m_param = (2 * base) * int_of_float (Float.pow (float_of_int (2 * base)) (float_of_int (digits - 1))) in
  let t = graph_of_set ~m_param s in
  match rng with
  | None -> t
  | Some rng ->
      let n = Graph.n t.graph in
      let perm = Array.init n (fun i -> i) in
      Sampling.shuffle_in_place rng perm;
      { t with graph = Graph.relabel t.graph perm }

(** Triangle density per edge-disjoint-triangle "slot": Behrend graphs have
    exactly one triangle per 3 edges and no others — the statistic E20
    contrasts with random far graphs. *)
let triangles_per_edge t =
  float_of_int t.planted /. float_of_int (max 1 (Graph.m t.graph))
