type t = { n : int; adj : int array array; m : int }

type edge = int * int

let normalize_edge (u, v) = if u <= v then (u, v) else (v, u)

let check_vertex n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0,%d)" v n)

module Edge_buf = struct
  (* Endpoints of edge [i] sit at [data.(2i)] and [data.(2i+1)]. *)
  type t = { mutable data : int array; mutable len : int }

  let create edges = { data = Array.make (2 * max 8 edges) 0; len = 0 }

  let add b u v =
    let i = 2 * b.len in
    if i + 2 > Array.length b.data then begin
      let grown = Array.make (2 * Array.length b.data) 0 in
      Array.blit b.data 0 grown 0 i;
      b.data <- grown
    end;
    b.data.(i) <- u;
    b.data.(i + 1) <- v;
    b.len <- b.len + 1

  let relabel b perm =
    for i = 0 to (2 * b.len) - 1 do
      b.data.(i) <- perm.(b.data.(i))
    done
end

(* Rows this short are sorted by insertion; longer ones by [Array.sort]. *)
let insertion_cutoff = 24

(* Sort + dedup each adjacency array in place, returning the half-sum of the
   final degrees (= m).  Shared finishing step of the unsorted builds. *)
let sort_dedup_adj adj =
  let deg_sum = ref 0 in
  for v = 0 to Array.length adj - 1 do
    let a = adj.(v) in
    let len = Array.length a in
    if len > 0 then begin
      if len <= insertion_cutoff then
        for i = 1 to len - 1 do
          let x = a.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && a.(!j) > x do
            a.(!j + 1) <- a.(!j);
            decr j
          done;
          a.(!j + 1) <- x
        done
      else Array.sort (fun (x : int) y -> compare x y) a;
      let k = ref 1 in
      for i = 1 to len - 1 do
        if a.(i) <> a.(!k - 1) then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      if !k < len then adj.(v) <- Array.sub a 0 !k;
      deg_sum := !deg_sum + !k
    end
  done;
  !deg_sum / 2

(* Exact-size count-then-fill of the per-vertex rows from the degrees
   [deg]; self-loops are skipped. *)
let fill_rows ~n deg (b : Edge_buf.t) =
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  let data = b.data in
  for i = 0 to b.len - 1 do
    let u = data.(2 * i) and v = data.((2 * i) + 1) in
    if u <> v then begin
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    end
  done;
  adj

let of_buf ~n (b : Edge_buf.t) =
  let deg = Array.make n 0 in
  let data = b.data in
  for i = 0 to b.len - 1 do
    let u = data.(2 * i) and v = data.((2 * i) + 1) in
    check_vertex n u;
    check_vertex n v;
    if u <> v then begin
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  let adj = fill_rows ~n deg b in
  let m = sort_dedup_adj adj in
  { n; adj; m }

(* Pairs strictly increasing in lexicographic order with u < v fill every
   row in increasing order: vertex x first receives its lower neighbours
   (from the rows before x, in order), then its higher ones.  So the rows
   come out sorted and duplicate-free with no sort pass. *)
let of_sorted_buf ~n (b : Edge_buf.t) =
  let deg = Array.make n 0 in
  let data = b.data in
  let pu = ref (-1) and pv = ref (-1) in
  for i = 0 to b.len - 1 do
    let u = data.(2 * i) and v = data.((2 * i) + 1) in
    check_vertex n u;
    check_vertex n v;
    if u >= v || u < !pu || (u = !pu && v <= !pv) then
      invalid_arg
        (Printf.sprintf "Graph.of_sorted_buf: edge (%d,%d) after (%d,%d) breaks the order" u v !pu !pv);
    pu := u;
    pv := v;
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  { n; adj = fill_rows ~n deg b; m = b.len }

let of_edges ~n edges =
  let b = Edge_buf.create (List.length edges) in
  List.iter (fun (u, v) -> Edge_buf.add b u v) edges;
  of_buf ~n b

(* Endpoints are checked as the sequence is forced, so a parser feeding it
   fails at the first bad edge, before reading further. *)
let of_edge_seq ~n seq =
  let b = Edge_buf.create 512 in
  Seq.iter
    (fun (u, v) ->
      check_vertex n u;
      check_vertex n v;
      Edge_buf.add b u v)
    seq;
  of_buf ~n b

let empty ~n = { n; adj = Array.make n [||]; m = 0 }

let n g = g.n
let m g = g.m

let avg_degree g = if g.n = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.n

let degree g v =
  check_vertex g.n v;
  Array.length g.adj.(v)

let neighbors g v =
  check_vertex g.n v;
  g.adj.(v)

(* Binary search in a sorted adjacency array. *)
let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      let y = a.(mid) in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length a)

(* Hot path for every referee and triangle kernel: bounds come from the array
   accesses themselves, and the probe goes straight to the shorter sorted
   adjacency without separate [degree] calls. *)
let mem_edge g u v =
  if u = v then false
  else begin
    let au = g.adj.(u) and av = g.adj.(v) in
    let a, x = if Array.length au <= Array.length av then (au, v) else (av, u) in
    mem_sorted a x
  end

let iter_edges g f =
  for u = 0 to g.n - 1 do
    let a = g.adj.(u) in
    for i = 0 to Array.length a - 1 do
      let v = a.(i) in
      if u < v then f u v
    done
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

(* Merge the sorted adjacency arrays directly instead of rebuilding from the
   concatenated edge lists (no list materialization, no re-sort). *)
let union g1 g2 =
  if g1.n <> g2.n then invalid_arg "Graph.union: vertex counts differ";
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin
          out.(!k) <- x;
          incr i
        end
        else if y < x then begin
          out.(!k) <- y;
          incr j
        end
        else begin
          out.(!k) <- x;
          incr i;
          incr j
        end;
        incr k
      done;
      while !i < la do
        out.(!k) <- a.(!i);
        incr i;
        incr k
      done;
      while !j < lb do
        out.(!k) <- b.(!j);
        incr j;
        incr k
      done;
      if !k < la + lb then Array.sub out 0 !k else out
    end
  in
  let deg_sum = ref 0 in
  let adj =
    Array.init g1.n (fun v ->
        let a = merge g1.adj.(v) g2.adj.(v) in
        deg_sum := !deg_sum + Array.length a;
        a)
  in
  { n = g1.n; adj; m = !deg_sum / 2 }

let union_list ~n gs =
  let b = Edge_buf.create (List.fold_left (fun acc g -> acc + g.m) 0 gs) in
  List.iter (fun g -> iter_edges g (Edge_buf.add b)) gs;
  of_buf ~n b

(* [iter_edges] yields the kept edges in lexicographic order, so the
   filtered graph is built without a sort. *)
let filter_edges g f =
  let b = Edge_buf.create g.m in
  iter_edges g (fun u v -> if f u v then Edge_buf.add b u v);
  of_sorted_buf ~n:g.n b

let induced g vs =
  let keep = Array.make g.n false in
  List.iter (fun v -> check_vertex g.n v; keep.(v) <- true) vs;
  filter_edges g (fun u v -> keep.(u) && keep.(v))

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: permutation size mismatch";
  let b = Edge_buf.create g.m in
  iter_edges g (Edge_buf.add b);
  Edge_buf.relabel b perm;
  of_buf ~n:g.n b

let equal g1 g2 = g1.n = g2.n && g1.m = g2.m && g1.adj = g2.adj

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges g (fun u v -> Format.fprintf fmt "%d-%d@," u v);
  Format.fprintf fmt "@]"
