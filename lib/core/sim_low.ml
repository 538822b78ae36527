(** Simultaneous protocol for low degrees d = O(√n) — Algorithm 8 (capped,
    Theorem 3.26) and its uncapped variant Algorithm 10.

    Two shared random vertex sets: S (each vertex with probability min(c/d,1))
    targets the few possibly-high-degree triangle sources, and R (probability
    c/√n) catches the two low-degree corners of each triangle by the birthday
    paradox.  Players send their edges with one endpoint in R and the other
    in R ∪ S; the referee looks for a triangle in the union.  Cost
    O(k·√n·log n) with constant error (Theorem 3.26). *)

open Tfree_util
open Tfree_graph
open Tfree_comm

let c_const (p : Params.t) = Params.sim_c p

let p1 (p : Params.t) ~d = Float.min 1.0 (c_const p /. Float.max 1.0 d)

let p2 (p : Params.t) ~n = Float.min 1.0 (c_const p /. sqrt (float_of_int n))

(** Per-player cap q = 2c²(√n + d)·(2/δ) (Algorithm 8 step 3). *)
let edge_cap (p : Params.t) ~n ~d =
  let c = c_const p in
  let q = 2.0 *. c *. c *. (sqrt (float_of_int n) +. Float.max 1.0 d) *. 2.0 /. p.delta in
  max 8 (int_of_float (Float.ceil q))

(* Mark bits of R and S.  A player sends the edges with one endpoint in R
   and the other in R ∪ S: both endpoints marked, and one of them in R. *)
let r_bit = 0
let s_bit = 1
let wanted_mask = (1 lsl r_bit) lor (1 lsl s_bit)
let wanted_need = 1 lsl r_bit

let player_message (p : Params.t) ~d ~capped ctx _j input =
  let n = ctx.Simultaneous.n in
  let marks = Shared_sample.create ~n in
  Rng.hash_bool_bits (Simultaneous.shared_rng ctx ~key:22) ~p:(p2 p ~n) marks ~bit:r_bit;
  Rng.hash_bool_bits (Simultaneous.shared_rng ctx ~key:21) ~p:(p1 p ~d) marks ~bit:s_bit;
  let cap = if capped then edge_cap p ~n ~d else max_int in
  Msg.edges ~n (Shared_sample.edges input marks ~mask:wanted_mask ~need:wanted_need ~cap)

let referee ctx messages = Triangle.find (Simultaneous.edge_union ~n:ctx.Simultaneous.n messages)

let protocol ?(capped = true) (p : Params.t) ~d =
  { Simultaneous.player = player_message p ~d ~capped; referee }

(* The whole protocol is one simultaneous round, so a single "upload" phase
   covers every charged bit (per-player structure lives in the trace's
   player rows). *)
let run ?tap ?(capped = true) ~seed (p : Params.t) ~d inputs =
  Tfree_trace.Trace.span "upload" (fun () -> Simultaneous.run ?tap ~seed (protocol ~capped p ~d) inputs)
