(** Synchronous CONGEST simulator — the distributed model the paper's first
    motivation comes from ([10, 19]: property testing in CONGEST, whose lower
    bounds are expected to require communication-complexity advances like
    this paper's).

    n nodes, one per graph vertex; computation proceeds in synchronous
    rounds; in each round a node may send one message of at most [b_bits]
    bits along each incident edge (the bandwidth cap is enforced — oversized
    messages raise).  Nodes know n, their own id, their incident edges, and
    a private random stream.

    Rounds are a budgeted resource, exactly like bits: [run] executes at
    most [rounds] synchronous rounds and reports how the run ended as a
    typed {!outcome} — {!Halted} when the optional halt predicate fired,
    {!Budget_exhausted} when the budget ran out first.  Running out of
    rounds is a verdict (the Assadi–Sundaresan question: where does
    detection collapse as the budget shrinks?), not an error, which is why
    it is an outcome and not an exception like {!Bandwidth_exceeded}. *)

open Tfree_util
open Tfree_graph

exception Bandwidth_exceeded of { round : int; src : int; dst : int; bits : int }

type 'st algorithm = {
  init : n:int -> int -> int array -> 'st;
      (** [init ~n v neighbors]: starting state of node [v]. *)
  round :
    n:int ->
    round:int ->
    int ->
    'st ->
    rng:Rng.t ->
    inbox:(int * Tfree_comm.Msg.t) list ->
    neighbors:int array ->
    'st * (int * Tfree_comm.Msg.t) list;
      (** One synchronous round at node [v]: consume the inbox (sender,
          message) and emit an outbox (neighbour, message).  Sending to a
          non-neighbour raises. *)
}

type outcome = Halted | Budget_exhausted

type round_stat = {
  round_bits : int;
  round_messages : int;
  round_max_message_bits : int;
}

type stats = {
  rounds_run : int;
  total_message_bits : int;
  max_message_bits : int;
  messages : int;
  outcome : outcome;
  round_stats : round_stat array;  (* one per executed round, in order *)
}

let outcome_to_string = function
  | Halted -> "halted"
  | Budget_exhausted -> "budget-exhausted"

(* Phase label the per-round Trace.span uses; 1-based like the tap's round
   argument, so a trace decomposes by "round-1", "round-2", ... *)
let round_label r = "round-" ^ string_of_int r

(* The accounting identity, checked before [run] returns: the per-round
   ledger must reconcile with the totals exactly — sum of round bits =
   total bits, sum of round messages = messages, max over round maxima =
   overall max, one stat per executed round.  A failure here is a simulator
   bug, so it fails loudly rather than returning skewed numbers. *)
let check_conservation st =
  let sum_bits = Array.fold_left (fun a r -> a + r.round_bits) 0 st.round_stats in
  let sum_msgs = Array.fold_left (fun a r -> a + r.round_messages) 0 st.round_stats in
  let max_bits = Array.fold_left (fun a r -> max a r.round_max_message_bits) 0 st.round_stats in
  if
    sum_bits <> st.total_message_bits
    || sum_msgs <> st.messages
    || max_bits <> st.max_message_bits
    || Array.length st.round_stats <> st.rounds_run
  then
    failwith
      (Printf.sprintf
         "Congest.run: per-round accounting broken (sum %d bits vs total %d, %d msgs vs %d, max %d \
          vs %d, %d stats vs %d rounds)"
         sum_bits st.total_message_bits sum_msgs st.messages max_bits st.max_message_bits
         (Array.length st.round_stats) st.rounds_run)

(** [run g ~b_bits ~rounds ~seed alg] executes up to [rounds] synchronous
    rounds and returns the final node states and traffic statistics,
    including the per-round ledger ([round_stats]) whose sums reconcile with
    the totals exactly (asserted before returning).

    [halt], checked on the node states after each round, stops the run early
    with [outcome = Halted]; without it (or if it never fires) the run ends
    with [outcome = Budget_exhausted] after exactly [rounds] rounds.
    Messages sent in the final round are charged but never delivered.

    [tap] observes every charged message at its charging point — the channel
    is [From_player src] (the sending node's upload) and the round is
    1-based, matching [round_stats] indexing — and each executed round runs
    inside a [Trace.span] labelled ["round-<r>"], so a trace collector
    decomposes the run by round exactly as serve traces decompose by phase.

    @raise Invalid_argument when [rounds <= 0] or [b_bits < 0] (a budget of
    zero rounds is a degenerate question, asked loudly rather than answered
    with an empty run), and on sends to non-neighbours
    @raise Bandwidth_exceeded when a message exceeds [b_bits] *)
let run ?halt ?tap g ~b_bits ~rounds ~seed alg =
  if rounds <= 0 then invalid_arg "Congest.run: rounds must be positive";
  if b_bits < 0 then invalid_arg "Congest.run: b_bits must be non-negative";
  let n = Graph.n g in
  let root = Rng.create seed in
  let rngs = Array.init n (fun v -> Rng.split root (v + 1)) in
  (* Each node's row is copied once per run, not once per round. *)
  let rows = Array.init n (Graph.neighbors g) in
  let states = Array.init n (fun v -> alg.init ~n v rows.(v)) in
  let inboxes : (int * Tfree_comm.Msg.t) list array = Array.make n [] in
  let total = ref 0 and max_bits = ref 0 and messages = ref 0 in
  let round_acc = ref [] in
  let halted = ref false in
  let executed = ref 0 in
  while (not !halted) && !executed < rounds do
    let r = !executed in
    let body () =
      let outgoing = Array.make n [] in
      let rb = ref 0 and rm = ref 0 and rmax = ref 0 in
      for v = 0 to n - 1 do
        let st, outbox =
          alg.round ~n ~round:r v states.(v) ~rng:rngs.(v) ~inbox:inboxes.(v)
            ~neighbors:rows.(v)
        in
        states.(v) <- st;
        List.iter
          (fun (dst, msg) ->
            if not (Graph.mem_edge g v dst) then
              invalid_arg "Congest.run: send to non-neighbour";
            let bits = Tfree_comm.Msg.bits msg in
            if bits > b_bits then raise (Bandwidth_exceeded { round = r; src = v; dst; bits });
            (* the charging point: taps preserve value and bit count, so the
               receiver observes a faithful copy and the ledger is unchanged *)
            let msg =
              match tap with
              | None -> msg
              | Some t -> t.Tfree_comm.Channel.deliver ~round:(r + 1) (Tfree_comm.Channel.From_player v) msg
            in
            total := !total + bits;
            rb := !rb + bits;
            max_bits := max !max_bits bits;
            rmax := max !rmax bits;
            incr messages;
            incr rm;
            outgoing.(dst) <- (v, msg) :: outgoing.(dst))
          outbox
      done;
      Array.blit outgoing 0 inboxes 0 n;
      round_acc :=
        { round_bits = !rb; round_messages = !rm; round_max_message_bits = !rmax } :: !round_acc
    in
    (* span per round only when someone is observing: an untapped run pays
       no tracing overhead on its (possibly very long) round loop *)
    (match tap with
    | None -> body ()
    | Some _ -> Tfree_trace.Trace.span (round_label (r + 1)) body);
    incr executed;
    match halt with
    | Some h when h states -> halted := true
    | _ -> ()
  done;
  let stats =
    {
      rounds_run = !executed;
      total_message_bits = !total;
      max_message_bits = !max_bits;
      messages = !messages;
      outcome = (if !halted then Halted else Budget_exhausted);
      round_stats = Array.of_list (List.rev !round_acc);
    }
  in
  check_conservation stats;
  (states, stats)
