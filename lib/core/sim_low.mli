(** Simultaneous protocol for low degrees d = O(√n) — Algorithm 8
    (Theorem 3.26, O~(k·√n) bits) and its uncapped variant Algorithm 10.
    Two shared vertex samples: S (probability min(c/d, 1)) catches
    high-degree triangle sources, R (probability c/√n) catches the
    low-degree corners by the birthday paradox. *)

open Tfree_comm
open Tfree_graph

(** The Chebyshev constant (from {!Params.sim_c}). *)
val c_const : Params.t -> float

(** S-sampling probability min(c/d, 1). *)
val p1 : Params.t -> d:float -> float

(** R-sampling probability c/√n. *)
val p2 : Params.t -> n:int -> float

(** Per-player edge cap q = 2c²(√n + d)·(2/δ) (Algorithm 8 step 3). *)
val edge_cap : Params.t -> n:int -> d:float -> int

(** Bits of the R and S marks in a {!Shared_sample} byte, and the
    [~mask]/[~need] that select the edges a player sends. *)
val r_bit : int
val s_bit : int
val wanted_mask : int
val wanted_need : int

val protocol : ?capped:bool -> Params.t -> d:float -> Triangle.triangle option Simultaneous.protocol

val run :
  ?tap:Tfree_comm.Channel.tap ->
  ?capped:bool ->
  seed:int ->
  Params.t ->
  d:float ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome
