(* The per-endpoint-hash player functions of the simultaneous testers, kept
   as the oracle the mark-once players in [Tfree] are checked against.
   Each one hashes both endpoints of every edge of its input, prepends each
   selected edge during [Graph.fold_edges] and keeps the first [cap] of the
   resulting reverse-lexicographic list. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
open Tfree

let sim_high (p : Params.t) ~d ~capped ctx input =
  let n = ctx.Simultaneous.n in
  let s = Sim_high.sample_size p ~n ~d in
  let rng = Simultaneous.shared_rng ctx ~key:11 in
  let in_sample v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
  let cap = if capped then Sim_high.edge_cap p ~n ~d ~s else max_int in
  let selected =
    Graph.fold_edges input ~init:[] ~f:(fun acc u v ->
        if in_sample u && in_sample v then (u, v) :: acc else acc)
  in
  Msg.edges ~n (List.filteri (fun idx _ -> idx < cap) selected)

let sim_low (p : Params.t) ~d ~capped ctx input =
  let n = ctx.Simultaneous.n in
  let rng_s = Simultaneous.shared_rng ctx ~key:21 in
  let rng_r = Simultaneous.shared_rng ctx ~key:22 in
  let in_s v = Rng.hash_float rng_s v < Sim_low.p1 p ~d in
  let in_r v = Rng.hash_float rng_r v < Sim_low.p2 p ~n in
  let wanted u v = (in_r u && (in_r v || in_s v)) || (in_r v && (in_r u || in_s u)) in
  let cap = if capped then Sim_low.edge_cap p ~n ~d else max_int in
  let selected = Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if wanted u v then (u, v) :: acc else acc) in
  Msg.edges ~n (List.filteri (fun idx _ -> idx < cap) selected)

let oblivious_instance_edges (p : Params.t) ctx ~t ~d_bar input =
  let n = ctx.Simultaneous.n in
  let k = ctx.Simultaneous.k in
  let d_guess = Float.pow 2.0 (float_of_int t) in
  if d_guess >= sqrt (float_of_int n) then begin
    let s = Sim_high.sample_size p ~n ~d:d_guess in
    let rng = Simultaneous.shared_rng ctx ~key:(1000 + t) in
    let in_s v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if in_s u && in_s v then (u, v) :: acc else acc)
    in
    List.filteri (fun idx _ -> idx < Sim_oblivious.cap_high p ~k ~n d_bar) selected
  end
  else begin
    let rng_s = Simultaneous.shared_rng ctx ~key:(2000 + t) in
    let rng_r = Simultaneous.shared_rng ctx ~key:22 in
    let c = Sim_low.c_const p in
    let ps = Float.min 1.0 (c /. Float.max 1.0 d_guess) in
    let pr = Float.min 1.0 (c /. sqrt (float_of_int n)) in
    let in_s v = Rng.hash_float rng_s v < ps in
    let in_r v = Rng.hash_float rng_r v < pr in
    let wanted u v = (in_r u && (in_r v || in_s v)) || (in_r v && (in_r u || in_s u)) in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if wanted u v then (u, v) :: acc else acc)
    in
    List.filteri (fun idx _ -> idx < Sim_oblivious.cap_low p ~k ~n) selected
  end

let sim_oblivious (p : Params.t) ctx input =
  let n = ctx.Simultaneous.n in
  let k = ctx.Simultaneous.k in
  let d_bar = Sim_oblivious.observed_avg_degree ~n input in
  let guesses = if Graph.m input = 0 then [] else Sim_oblivious.guess_range p ~k ~n d_bar in
  Msg.tuple
    (List.concat_map
       (fun t -> [ Msg.nat t; Msg.edges ~n (oblivious_instance_edges p ctx ~t ~d_bar input) ])
       guesses)
