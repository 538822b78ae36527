(* Differential tests: the array-native instance builders and partitioners
   of [Tfree_graph] against the list-based oracle in [Reference_build], and
   served replies over instances built either way. *)

open Tfree_util
open Tfree_graph
module Ref = Reference_build
module Service = Tfree_wire.Service

(* A build's observable result: the graph, or the exception it raised. *)
let outcome f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e)

let same eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let same_partition p q = Array.length p = Array.length q && Array.for_all2 Graph.equal p q

(* ---------------------------------------------------------------- families *)

(* Each family maps (n, d) to a generator call, new and reference.  [far]
   spans both regimes: with eps = 0.1 the dense triangle-factor regime
   starts near d = 5. *)
type family = {
  name : string;
  lib : Rng.t -> n:int -> d:float -> Graph.t;
  oracle : Rng.t -> n:int -> d:float -> Graph.t;
}

let gnp_p ~n ~d = Float.min 1.0 (d /. float_of_int n)
let gnm_m ~n ~d = min (n * (n - 1) / 2) (int_of_float (float_of_int n *. d /. 2.0))
let hub_pairs ~n ~d = max 1 (min ((n - 1) / 3) (int_of_float (0.1 *. float_of_int n *. d /. 2.0)))
let c4_copies ~n = n / 8
let dilution ~d = max 1 (int_of_float d / 4)

let families =
  [
    { name = "far"; lib = (fun r ~n ~d -> Gen.far_with_degree r ~n ~d ~eps:0.1);
      oracle = (fun r ~n ~d -> Ref.far_with_degree r ~n ~d ~eps:0.1) };
    { name = "free"; lib = Gen.free_with_degree; oracle = Ref.free_with_degree };
    { name = "gnp"; lib = (fun r ~n ~d -> Gen.gnp r ~n ~p:(gnp_p ~n ~d));
      oracle = (fun r ~n ~d -> Ref.gnp r ~n ~p:(gnp_p ~n ~d)) };
    { name = "gnm"; lib = (fun r ~n ~d -> Gen.gnm r ~n ~m:(gnm_m ~n ~d));
      oracle = (fun r ~n ~d -> Ref.gnm r ~n ~m:(gnm_m ~n ~d)) };
    { name = "tripartite"; lib = (fun r ~n ~d -> Gen.tripartite_gnp r ~part:(n / 3) ~p:(gnp_p ~n ~d));
      oracle = (fun r ~n ~d -> Ref.tripartite_gnp r ~part:(n / 3) ~p:(gnp_p ~n ~d)) };
    { name = "planted"; lib = (fun r ~n ~d -> Gen.planted_far r ~n ~triangles:(n / 5) ~noise:(gnm_m ~n ~d));
      oracle = (fun r ~n ~d -> Ref.planted_far r ~n ~triangles:(n / 5) ~noise:(gnm_m ~n ~d)) };
    { name = "hub"; lib = (fun r ~n ~d -> Gen.hub_far r ~n ~hubs:1 ~pairs:(hub_pairs ~n ~d));
      oracle = (fun r ~n ~d -> Ref.hub_far r ~n ~hubs:1 ~pairs:(hub_pairs ~n ~d)) };
    { name = "pattern";
      lib = (fun r ~n ~d ->
        Gen.planted_pattern_far r ~n ~pattern:Subgraph.four_cycle ~copies:(c4_copies ~n) ~noise:(int_of_float d));
      oracle = (fun r ~n ~d ->
        Ref.planted_pattern_far r ~n ~pattern:Subgraph.four_cycle ~copies:(c4_copies ~n)
          ~noise:(int_of_float d)) };
    { name = "diluted";
      lib = (fun r ~n ~d -> Gen.diluted_far r ~triangles:(max 1 (n / 30)) ~extra_degree:(dilution ~d));
      oracle = (fun r ~n ~d -> Ref.diluted_far r ~triangles:(max 1 (n / 30)) ~extra_degree:(dilution ~d)) };
    { name = "embed"; lib = (fun r ~n ~d -> Gen.embed r (Gen.complete ~n:(int_of_float d + 3)) ~n:(n + 43));
      oracle = (fun r ~n ~d -> Ref.embed r (Gen.complete ~n:(int_of_float d + 3)) ~n:(n + 43)) };
  ]

type kind = {
  kind : string;
  split : Rng.t -> k:int -> Graph.t -> Partition.t;
  reference : Rng.t -> k:int -> Graph.t -> Partition.t;
}

let kinds =
  [
    { kind = "disjoint"; split = Partition.disjoint_random; reference = Ref.disjoint_random };
    { kind = "dup"; split = Partition.with_duplication ~dup_p:0.3;
      reference = Ref.with_duplication ~dup_p:0.3 };
    { kind = "hash"; split = Partition.by_endpoint_hash; reference = Ref.by_endpoint_hash };
    { kind = "skewed"; split = Partition.skewed ~bias:0.8; reference = Ref.skewed ~bias:0.8 };
  ]

(* (n, d, k, seed): n up to 400, d from 0.5 to 40 (so the dense [far]
   regime is covered), k from 1. *)
let arb_instance =
  QCheck.make
    ~print:(fun (n, d, k, seed) -> Printf.sprintf "n=%d d=%g k=%d seed=%d" n d k seed)
    QCheck.Gen.(
      quad (int_range 6 400)
        (map (fun x -> float_of_int x /. 2.0) (int_range 1 80))
        (int_range 1 6) (int_range 0 1_000_000))

let builder_prop fam kd =
  QCheck.Test.make ~count:12 ~name:(Printf.sprintf "%s x %s equals the list reference" fam.name kd.kind)
    arb_instance (fun (n, d, k, seed) ->
      let g = outcome (fun () -> fam.lib (Rng.create seed) ~n ~d) in
      let g' = outcome (fun () -> fam.oracle (Rng.create seed) ~n ~d) in
      same Graph.equal g g'
      &&
      match g with
      | Error _ -> true
      | Ok g ->
          (* the partition draws from its own stream, as in [Service] *)
          same same_partition
            (outcome (fun () -> kd.split (Rng.create (seed + 1)) ~k g))
            (outcome (fun () -> kd.reference (Rng.create (seed + 1)) ~k g)))

(* ---------------------------------------------------------- of_edges oracle *)

(* Multigraphs with repeated edges, self-loops and (sometimes) endpoints
   out of range. *)
let arb_multigraph =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) es)))
    QCheck.Gen.(
      int_range 1 30 >>= fun n ->
      list_size (int_range 0 120) (pair (int_range (-1) n) (int_range (-1) n)) >>= fun es ->
      bool >|= fun in_range ->
      (n, if in_range then List.map (fun (u, v) -> (abs u mod n, abs v mod n)) es else es))

let edge_oracle_prop =
  QCheck.Test.make ~count:300 ~name:"of_edges and of_edge_seq equal the list oracle on multigraphs"
    arb_multigraph (fun (n, es) ->
      let expected = outcome (fun () -> Ref.edge_set ~n es) in
      let observed build =
        match outcome build with
        | Ok g ->
            let degrees_ok =
              List.for_all
                (fun v ->
                  Graph.degree g v
                  = List.length (List.filter (fun (a, b) -> a = v || b = v) (Graph.edges g)))
                (List.init n (fun v -> v))
            in
            if degrees_ok && Graph.m g = List.length (Graph.edges g) then Ok (Graph.edges g)
            else Error "inconsistent degrees"
        | Error e -> Error e
      in
      observed (fun () -> Graph.of_edges ~n es) = expected
      && observed (fun () -> Graph.of_edge_seq ~n (List.to_seq es)) = expected)

(* ----------------------------------------------------------- players *)

(* The mark-once players of the simultaneous testers against the
   per-endpoint-hash players of [Reference_players]: every player's message
   must be equal in value, bit count and layout.  Instances are G(n, d/n)
   split disjointly over k players; d runs from 0.5 to 60, so with n up to
   300 it falls both below and at or above sqrt n.  A small [boost] makes
   the degree-oblivious caps bind. *)
module Players = Reference_players

let same_msg a b =
  Tfree_comm.Msg.value a = Tfree_comm.Msg.value b
  && Tfree_comm.Msg.bits a = Tfree_comm.Msg.bits b
  && Tfree_comm.Msg.layout a = Tfree_comm.Msg.layout b

let arb_players =
  QCheck.make
    ~print:(fun ((n, d, k, seed), (capped, boost)) ->
      Printf.sprintf "n=%d d=%g k=%d seed=%d capped=%b boost=%g" n d k seed capped boost)
    QCheck.Gen.(
      pair
        (quad (int_range 4 300)
           (map (fun x -> float_of_int x /. 2.0) (int_range 1 120))
           (int_range 1 6) (int_range 0 1_000_000))
        (pair bool (oneofl [ 0.01; 0.2; 1.0 ])))

(* Every player's input and the shared context of a run with this seed. *)
let player_inputs (n, d, k, seed) =
  let g = Gen.gnp (Rng.create seed) ~n ~p:(Float.min 1.0 (d /. float_of_int n)) in
  let parts = Partition.disjoint_random (Rng.create (seed + 1)) ~k g in
  ({ Tfree_comm.Simultaneous.k; n; shared = Rng.create (seed + 2) }, parts)

let players_prop name ~lib ~reference =
  QCheck.Test.make ~count:60 ~name:(name ^ " messages equal the per-endpoint-hash reference") arb_players
    (fun ((_, d, _, _) as inst, (capped, boost)) ->
      let p = Tfree.Params.with_boost Tfree.Params.practical boost in
      let ctx, parts = player_inputs inst in
      let player = (lib p ~d ~capped).Tfree_comm.Simultaneous.player in
      Array.for_all (fun x -> x)
        (Array.mapi (fun j input -> same_msg (player ctx j input) (reference p ~d ~capped ctx input)) parts))

let player_props =
  [
    players_prop "sim-high"
      ~lib:(fun p ~d ~capped -> Tfree.Sim_high.protocol ~capped p ~d)
      ~reference:Players.sim_high;
    players_prop "sim-low"
      ~lib:(fun p ~d ~capped -> Tfree.Sim_low.protocol ~capped p ~d)
      ~reference:Players.sim_low;
    players_prop "sim-oblivious"
      ~lib:(fun p ~d:_ ~capped:_ -> Tfree.Sim_oblivious.protocol p)
      ~reference:(fun p ~d:_ ~capped:_ ctx input -> Players.sim_oblivious p ctx input);
  ]

(* The selection itself, with caps small enough to cut: random marks over
   random graphs, against the fold-prepend-truncate it replaces. *)
let shared_sample_prop =
  QCheck.Test.make ~count:300 ~name:"Shared_sample.edges equals fold, prepend and truncate"
    QCheck.(quad (int_range 1 60) (int_range 0 1_000_000) (int_range 0 40) (pair (int_range 0 3) (int_range 0 3)))
    (fun (n, seed, cap, (mask, need)) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let marks = Tfree.Shared_sample.create ~n in
      Rng.hash_bool_bits rng ~p:0.5 marks ~bit:0;
      Rng.hash_bool_bits (Rng.split rng 1) ~p:0.4 marks ~bit:1;
      let code v = Char.code (Bytes.get marks v) in
      let keep u v = code u land mask <> 0 && code v land mask <> 0 && (code u lor code v) land need = need in
      let expected =
        List.filteri (fun i _ -> i < cap)
          (Graph.fold_edges g ~init:[] ~f:(fun acc u v -> if keep u v then (u, v) :: acc else acc))
      in
      Tfree.Shared_sample.edges g marks ~mask ~need ~cap = expected)

(* --------------------------------------------------------- served replies *)

(* The build-churn mix: far/free/gnp x dup/disjoint/hash x the cheap
   protocols at n = 1200, d = 6, k = 4.  Each request is answered twice:
   building with the library, and from a cache pre-filled with the list
   reference's graph and partition for the same key. *)
let churn_requests =
  let families = [| Service.Far; Service.Free; Service.Gnp |] in
  let partitions = [| Service.Dup; Service.Disjoint; Service.Hash |] in
  let protocols = [| Service.Sim; Service.Oblivious; Service.Exact |] in
  List.init 9 (fun i ->
      { Service.default_request with
        Service.family = families.(i mod 3); partition = partitions.(i / 3);
        protocol = protocols.((i + (i / 3)) mod 3); n = 1200; d = 6.0; k = 4; seed = 500 + i })

let reference_pair (req : Service.request) =
  let rng = Service.graph_rng req.Service.seed in
  let n = req.Service.n and d = req.Service.d in
  let g =
    match req.Service.family with
    | Service.Far -> Ref.far_with_degree rng ~n ~d ~eps:req.Service.eps
    | Service.Free -> Ref.free_with_degree rng ~n ~d
    | Service.Gnp -> Ref.gnp rng ~n ~p:(Float.min 1.0 (d /. float_of_int n))
    | _ -> invalid_arg "reference_pair: family outside the build-churn mix"
  in
  let prng = Service.partition_rng req.Service.seed and k = req.Service.k in
  let parts =
    match req.Service.partition with
    | Service.Dup -> Ref.with_duplication prng ~k ~dup_p:0.3 g
    | Service.Disjoint -> Ref.disjoint_random prng ~k g
    | Service.Hash -> Ref.by_endpoint_hash prng ~k g
    | _ -> invalid_arg "reference_pair: partition outside the build-churn mix"
  in
  (g, parts)

let reply r = Jsonout.to_line (Service.response_to_json r)

let test_served_replies_unchanged () =
  List.iter
    (fun req ->
      let cache = Service.create_cache () in
      ignore (Lru.find_or_add cache (Service.key_of_request req) (fun () -> reference_pair req));
      Alcotest.(check string)
        (Printf.sprintf "%s/%s seed %d"
           (Service.family_to_string req.Service.family)
           (Service.partition_to_string req.Service.partition)
           req.Service.seed)
        (reply (Service.run_request ~cache req))
        (reply (Service.run_request req)))
    churn_requests

let () =
  Alcotest.run "tfree_builders"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          (edge_oracle_prop :: List.concat_map (fun f -> List.map (builder_prop f) kinds) families) );
      ("players", List.map QCheck_alcotest.to_alcotest (shared_sample_prop :: player_props));
      ( "served",
        [ Alcotest.test_case "build-churn replies unchanged" `Quick test_served_replies_unchanged ] );
    ]
