(** Simultaneous-model runtime (§2): each player sends exactly one message to
    the referee (a function of its input and the shared randomness only), and
    the referee outputs the answer.  The types make a second round
    unrepresentable. *)

open Tfree_graph

type ctx = { k : int; n : int; shared : Tfree_util.Rng.t }

(** Shared-randomness sub-stream for step [key] — identical for all players
    and the referee. *)
val shared_rng : ctx -> key:int -> Tfree_util.Rng.t

(** The referee's union: the graph of every edge in the given edge-list
    messages ({!Msg.edges}), in one build. *)
val edge_union : n:int -> Msg.t array -> Graph.t

type 'r protocol = {
  player : ctx -> int -> Graph.t -> Msg.t;  (** player index, private input *)
  referee : ctx -> Msg.t array -> 'r;
}

type 'r outcome = {
  result : 'r;
  total_bits : int;
  max_message_bits : int;
  per_player_bits : int array;
}

(** Run the protocol.  With a {!Channel.tap}, each player's one message is
    delivered through it (channel [From_player j]) and the referee receives
    the delivered copies. *)
val run : ?tap:Channel.tap -> seed:int -> 'r protocol -> Partition.t -> 'r outcome
