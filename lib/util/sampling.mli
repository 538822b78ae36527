(** Sampling primitives shared by the protocols and the generators. *)

(** Calls the function on each index in [0, n), in increasing order,
    selected independently with probability [p]; runs in time proportional
    to the output via geometric skips. *)
val bernoulli_iter : Rng.t -> int -> p:float -> (int -> unit) -> unit

(** The indices {!bernoulli_iter} selects, as a sorted list (same draws). *)
val bernoulli_subset : Rng.t -> int -> p:float -> int list

(** [m] distinct uniform indices from [0, n), sorted (Floyd's algorithm).
    @raise Invalid_argument if [m > n]. *)
val without_replacement : Rng.t -> int -> int -> int list

(** Fisher–Yates shuffle, in place. *)
val shuffle_in_place : Rng.t -> 'a array -> unit

(** Shuffled copy of a list. *)
val shuffle : Rng.t -> 'a list -> 'a list

(** Uniform element.  @raise Invalid_argument on the empty list. *)
val choose : Rng.t -> 'a list -> 'a

(** Uniform sample of [m] items from a sequence of unknown length (keeps
    everything when the sequence is shorter than [m]). *)
val reservoir : Rng.t -> int -> 'a Seq.t -> 'a list

(** Number of successes in [n] iid Bernoulli(p) trials (exact summation). *)
val binomial : Rng.t -> n:int -> p:float -> int
