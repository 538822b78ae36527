(* Allocation of a served cache miss, from build through run.  One "query"
   is [Service.run_request] without a cache: generate the graph, partition
   it, run the protocol over the pipe transport and reconcile — what a
   build-churn query costs the daemon past parsing.  The mix is fixed:
   far/free/gnp x dup/disjoint/hash x sim/oblivious/exact at n = 1200,
   d = 6, k = 4, one seed each.  Minor-heap words are a deterministic count,
   so the budget gate has no noise band.  [bench/micro.ml] runs the gate
   behind @micro-smoke; [bench/main.ml] embeds the row in
   BENCH_results.json; [bench/check_json.ml] re-validates it. *)

module Service = Tfree_wire.Service

(** Minor words per miss allowed. *)
let minor_words_limit = 150_000.0

let requests =
  let families = [| Service.Far; Service.Free; Service.Gnp |] in
  let partitions = [| Service.Dup; Service.Disjoint; Service.Hash |] in
  let protocols = [| Service.Sim; Service.Oblivious; Service.Exact |] in
  List.init 27 (fun i ->
      { Service.default_request with
        Service.family = families.(i mod 3); partition = partitions.(i / 3 mod 3);
        protocol = protocols.(i / 9); n = 1200; d = 6.0; k = 4; seed = 1 + i })

(** Minor words per query over the mix, after one warm-up pass. *)
let measure () =
  let pass () = List.iter (fun r -> ignore (Sys.opaque_identity (Service.run_request r))) requests in
  pass ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. w0) /. float_of_int (List.length requests)

let check words =
  if words <= minor_words_limit then Ok ()
  else
    Error
      [ Printf.sprintf "cache miss allocates %.0f minor words/query, budget %.0f" words minor_words_limit ]

let print words =
  Printf.printf "miss path: %.0f minor words/query over %d build-churn misses (budget %.0f)\n" words
    (List.length requests) minor_words_limit

let to_row words =
  Tfree_util.Jsonout.Obj
    [
      ("name", Tfree_util.Jsonout.Str "micro/miss-minor-words-per-query");
      ("words", Tfree_util.Jsonout.Num words);
      ("queries", Tfree_util.Jsonout.Num (float_of_int (List.length requests)));
      ("limit", Tfree_util.Jsonout.Num minor_words_limit);
    ]
