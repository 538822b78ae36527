(** Simultaneous protocol for high degrees d = Ω(√n) — Algorithm 7
    (Theorem 3.24, O~(k·(nd)^{1/3}) bits) and its uncapped variant
    Algorithm 9: a shared vertex sample S of ~c·(n²/(ǫd))^{1/3} vertices;
    players send their edges inside S; the referee searches the union. *)

open Tfree_comm
open Tfree_graph

(** |S| = c·(n²/(ǫ·d))^{1/3}, clamped to [3, n]. *)
val sample_size : Params.t -> n:int -> d:float -> int

(** Per-player edge cap l = 4·|S|²·d/(δ·n) (Algorithm 7 step 2). *)
val edge_cap : Params.t -> n:int -> d:float -> s:int -> int

(** The probability s/n of each vertex's shared mark for S. *)
val in_sample_p : n:int -> s:int -> float

val protocol : ?capped:bool -> Params.t -> d:float -> Triangle.triangle option Simultaneous.protocol

val run :
  ?tap:Tfree_comm.Channel.tap ->
  ?capped:bool ->
  seed:int ->
  Params.t ->
  d:float ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome
