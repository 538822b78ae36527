(* Compressed sparse rows: the neighbours of [v] are
   [nbr.(off.(v)) .. nbr.(off.(v + 1) - 1)], strictly increasing, and
   [Array.length nbr = off.(n) = 2m]. *)
type t = { n : int; off : int array; nbr : int array; m : int }

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

(* Sort the row [nbr.(lo) .. nbr.(hi - 1)] in place. *)
let sort_row nbr lo hi =
  if hi - lo <= insertion_cutoff then
    for i = lo + 1 to hi - 1 do
      let x = nbr.(i) in
      let j = ref (i - 1) in
      while !j >= lo && nbr.(!j) > x do
        nbr.(!j + 1) <- nbr.(!j);
        decr j
      done;
      nbr.(!j + 1) <- x
    done
  else begin
    let a = Array.sub nbr lo (hi - lo) in
    Array.sort (fun (x : int) y -> compare x y) a;
    Array.blit a 0 nbr lo (hi - lo)
  end

(* Offsets from per-vertex degrees: [off.(v)] is where row [v] starts and
   [off.(n)] the total length. *)
let offsets_of_degrees ~n deg =
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  off

(* Count-then-fill of the rows in push order; self-loops are skipped.  The
   degree array is reused as the fill cursor. *)
let fill_rows ~n deg (b : Edge_buf.t) =
  let off = offsets_of_degrees ~n deg in
  let nbr = Array.make off.(n) 0 in
  Array.blit off 0 deg 0 n;
  let data = b.data in
  for i = 0 to b.len - 1 do
    let u = data.(2 * i) and v = data.((2 * i) + 1) in
    if u <> v then begin
      nbr.(deg.(u)) <- v;
      deg.(u) <- deg.(u) + 1;
      nbr.(deg.(v)) <- u;
      deg.(v) <- deg.(v) + 1
    end
  done;
  (off, nbr)

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
  let off, nbr = fill_rows ~n deg b in
  (* Sort each row, then drop repeats while compacting the rows leftwards:
     the write cursor [w] never passes the read position. *)
  let w = ref 0 and lo = ref 0 in
  for v = 0 to n - 1 do
    let hi = off.(v + 1) in
    off.(v) <- !w;
    sort_row nbr !lo hi;
    let prev = ref (-1) in
    for i = !lo to hi - 1 do
      let x = nbr.(i) in
      if x <> !prev then begin
        nbr.(!w) <- x;
        incr w;
        prev := x
      end
    done;
    lo := hi
  done;
  off.(n) <- !w;
  let nbr = if !w < Array.length nbr then Array.sub nbr 0 !w else nbr in
  { n; off; nbr; m = !w / 2 }

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
  let off, nbr = fill_rows ~n deg b in
  { n; off; nbr; m = b.len }

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

let empty ~n = { n; off = Array.make (n + 1) 0; nbr = [||]; m = 0 }

let n g = g.n
let m g = g.m

let avg_degree g = if g.n = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.n

let degree g v =
  check_vertex g.n v;
  g.off.(v + 1) - g.off.(v)

let off g = g.off
let nbr g = g.nbr

let neighbors g v =
  check_vertex g.n v;
  Array.sub g.nbr g.off.(v) (g.off.(v + 1) - g.off.(v))

let neighbor_list g v =
  check_vertex g.n v;
  let acc = ref [] in
  for i = g.off.(v + 1) - 1 downto g.off.(v) do
    acc := g.nbr.(i) :: !acc
  done;
  !acc

let iter_neighbors g v f =
  check_vertex g.n v;
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.nbr.(i)
  done

let exists_neighbor g v f =
  check_vertex g.n v;
  let hi = g.off.(v + 1) in
  let rec go i = i < hi && (f g.nbr.(i) || go (i + 1)) in
  go g.off.(v)

(* Binary search for [x] in the sorted range [a.(lo) .. a.(hi - 1)].  The
   annotation keeps the comparisons on ints: a polymorphic [a] would call
   the generic compare at every probe. *)
let mem_sorted (a : int array) lo hi x =
  let rec go lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      let y = a.(mid) in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
    end
  in
  go lo hi

(* Hot path for every referee and triangle kernel: bounds come from the array
   accesses themselves, and the probe goes straight to the shorter sorted
   row. *)
let mem_edge g u v =
  if u = v then false
  else begin
    let off = g.off in
    let lu = off.(u) and hu = off.(u + 1) and lv = off.(v) and hv = off.(v + 1) in
    if hu - lu <= hv - lv then mem_sorted g.nbr lu hu v else mem_sorted g.nbr lv hv u
  end

let iter_edges g f =
  let off = g.off and nbr = g.nbr in
  for u = 0 to g.n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if u < v then f u v
    done
  done

(* A local accumulator, not one captured by an [iter_edges] closure: the
   update then needs no write barrier. *)
let fold_edges g ~init ~f =
  let off = g.off and nbr = g.nbr in
  let acc = ref init in
  for u = 0 to g.n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if u < v then acc := f !acc u v
    done
  done;
  !acc

(* Built back to front, so the list needs no reversal. *)
let edges g =
  let off = g.off and nbr = g.nbr in
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = off.(u + 1) - 1 downto off.(u) do
      let v = nbr.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

(* Row-by-row linear merge of the two sorted CSRs into one (no edge list,
   no re-sort); shared neighbours are written once. *)
let union g1 g2 =
  if g1.n <> g2.n then invalid_arg "Graph.union: vertex counts differ";
  let n = g1.n in
  let a = g1.nbr and b = g2.nbr in
  let out = Array.make (Array.length a + Array.length b) 0 in
  let off = Array.make (n + 1) 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    off.(v) <- !k;
    let i = ref g1.off.(v) and j = ref g2.off.(v) in
    let ia = g1.off.(v + 1) and jb = g2.off.(v + 1) in
    while !i < ia || !j < jb do
      (* take the smaller head; on a tie advance both *)
      let x = if !i < ia then a.(!i) else max_int and y = if !j < jb then b.(!j) else max_int in
      if x <= y then incr i;
      if y <= x then incr j;
      out.(!k) <- (if x <= y then x else y);
      incr k
    done
  done;
  off.(n) <- !k;
  let nbr = if !k < Array.length out then Array.sub out 0 !k else out in
  { n; off; nbr; m = !k / 2 }

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

let equal g1 g2 = g1.n = g2.n && g1.m = g2.m && g1.off = g2.off && g1.nbr = g2.nbr

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges g (fun u v -> Format.fprintf fmt "%d-%d@," u v);
  Format.fprintf fmt "@]"
