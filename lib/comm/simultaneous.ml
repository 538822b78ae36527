(** Simultaneous-model runtime (§2, "Simultaneous Communication").

    Each player sees its input and the shared randomness, sends exactly one
    message to the referee, and the referee (who has no input) outputs the
    answer.  The runtime enforces the one-round structure by construction:
    the player function cannot observe other messages. *)

open Tfree_util
open Tfree_graph

type ctx = { k : int; n : int; shared : Rng.t }

(** Shared-randomness sub-stream for step [key] — identical for all players
    and the referee. *)
let shared_rng ctx ~key = Rng.split ctx.shared key

(* Every message's edges pushed straight into one buffer, built once. *)
let edge_union ~n messages =
  let b = Graph.Edge_buf.create 64 in
  Array.iter (fun msg -> List.iter (fun (u, v) -> Graph.Edge_buf.add b u v) (Msg.get_edges msg)) messages;
  Graph.of_buf ~n b

type 'r protocol = {
  player : ctx -> int -> Graph.t -> Msg.t;
  referee : ctx -> Msg.t array -> 'r;
}

type 'r outcome = {
  result : 'r;
  total_bits : int;
  max_message_bits : int;
  per_player_bits : int array;
}

(* With a tap installed, each player's single message crosses its channel to
   the referee physically: the referee decides on the delivered copies. *)
let run ?(tap = Channel.identity) ~seed protocol inputs =
  let k = Partition.k inputs in
  let ctx = { k; n = Partition.n inputs; shared = Rng.split (Rng.create seed) 0 } in
  let messages =
    Array.init k (fun j ->
        tap.Channel.deliver ~round:1 (Channel.From_player j) (protocol.player ctx j (Partition.player inputs j)))
  in
  let per_player_bits = Array.map Msg.bits messages in
  {
    result = protocol.referee ctx messages;
    total_bits = Array.fold_left ( + ) 0 per_player_bits;
    max_message_bits = Array.fold_left max 0 per_player_bits;
    per_player_bits;
  }
