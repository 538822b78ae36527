(* The three served-query workloads.  Every exchange is a pure function of
   the workload seed and its index, so a run, its in-process re-check and
   the traced replay all see the same requests, and the daemon only ever
   sees these generated requests. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Rng = Tfree_util.Rng

type query = Gen of Service.request | Ds of Service.dataset_request

(* One client exchange: a query and the wire protocol it is sent with.
   [V2] negotiates binary frames through the handshake, [V1] sends a bare
   JSON line, exactly as [tfree client --protocol v1|v2] does. *)
type exchange = { query : query; proto : Proto.pref }

(* The snapshot a workload's daemon preloads: [tfree dataset gen NAME
   --instance FAMILY -n N -d D --seed SEED]. *)
type dataset = { ds_name : string; ds_family : Service.family; ds_n : int; ds_d : float; ds_seed : int }

type t = {
  name : string;
  why : string;
  warmup : exchange list;  (** sent once after the first health reply, before timing *)
  item : int -> exchange;  (** the [i]-th timed exchange *)
  dataset : dataset option;
  replay_queries : int;  (** exchanges the traced replay runs after its warm-up *)
}

let v2 query = { query; proto = Proto.V2 }

(* Per-index randomness that does not depend on how many items came
   before, so two connections drawing indices in any order agree. *)
let index_rng seed i = Rng.create ((seed * 1_000_003) + i + 17)

(* chatty-hot: unrestricted over far/dup with pipe transport, sixteen hot
   seeds, so after warm-up every lookup hits and the run — over half of it
   per-message wire-tap cost — is nearly all the work.
   k=2 (not 4) keeps the ~40k-message degree-guess phase short enough for
   a run to collect the 1000 samples its p99 needs.  The per-instance cost
   varies by about 8%, so sixteen hot seeds (not four) keep the mean cost
   steady from one workload seed to the next; all fit the 32-entry cache. *)
let chatty_hot seed =
  let base = 1 + (seed mod 10_000 * 16) in
  let req j =
    { Service.default_request with
      Service.family = Service.Far; partition = Service.Dup; protocol = Service.Unrestricted;
      n = 300; d = 6.0; k = 2; seed = base + j; transport = Tfree_wire.Wire_runtime.Pipe }
  in
  {
    name = "chatty-hot";
    why = "cache-hit unrestricted runs: protocol run and per-message wire tap dominate";
    warmup = List.init 16 (fun j -> v2 (Gen (req j)));
    item = (fun i -> v2 (Gen (req (i mod 16))));
    dataset = None;
    replay_queries = 24;
  }

let families = [| Service.Far; Service.Free; Service.Gnp |]
let partitions = [| Service.Dup; Service.Disjoint; Service.Hash |]

(* sim twice as often as oblivious or exact *)
let cheap_protocol rng =
  match Rng.int rng 4 with 0 | 1 -> Service.Sim | 2 -> Service.Oblivious | _ -> Service.Exact

(* build-churn: every query names an instance the daemon has not seen.
   Three in four are generated (families x partitions cycling), one in four
   is a dataset query whose fresh seed re-partitions the preloaded snapshot.
   n=1200 (not 2000) lets a run collect the 1000 samples its p99 needs;
   build and partition stay about two thirds of the replayed time.  Seeds are [base + i] for timed items and below
   [base] for warm-up, so no two exchanges of a run share a cache key. *)
let build_churn seed =
  let base = 1_000_000 + (seed mod 10_000 * 100_000) in
  let ds = { ds_name = "churn"; ds_family = Service.Far; ds_n = 1200; ds_d = 6.0; ds_seed = 7 + seed } in
  let make s i =
    let rng = index_rng seed s in
    let protocol = cheap_protocol rng in
    let partition = partitions.(i / 3 mod 3) in
    if i mod 4 = 3 then
      v2
        (Ds
           { (Service.default_dataset_request ~name:ds.ds_name) with
             Service.ds_partition = partition; ds_protocol = protocol; ds_seed = s })
    else
      v2
        (Gen
           { Service.default_request with
             Service.family = families.(i mod 3); partition; protocol; n = 1200; d = 6.0; k = 4;
             seed = s })
  in
  {
    name = "build-churn";
    why = "every lookup misses: graph build and partition dominate; a quarter are dataset queries";
    warmup = List.init 8 (fun j -> make (base - 1 - j) j);
    item = (fun i -> make (base + i) i);
    dataset = Some ds;
    replay_queries = 48;
  }

(* tiny-mixed: small simultaneous queries over 24 hot seeds, sized
   (n=30, k=2 rather than n=60, k=4) so the protocol run does not crowd out
   the per-exchange front end: connect, handshake, codecs, I/O.  Every
   fourth exchange speaks JSON v1, the rest binary v2: v1 costs about
   twice v2 here, so the v1 quarter sits mostly above p75 and p50 falls
   inside v2, p99 inside v1.  The per-instance cost varies, and p50 sits
   where it depends on the mix; 24 hot seeds (not 8) keep that mix steady
   from one workload seed to the next, and all fit the 32-entry cache. *)
let tiny_mixed seed =
  let hot = 24 in
  let base = 1 + (seed mod 10_000 * hot) in
  let req s =
    { Service.default_request with
      Service.protocol = Service.Sim; n = 30; d = 3.0; k = 2; seed = base + s }
  in
  let proto i = if i mod 4 = 3 then Proto.V1 else Proto.V2 in
  {
    name = "tiny-mixed";
    why = "tiny hot queries, 3 in 4 over v2 and 1 in 4 over JSON v1: connect, codec and dispatch dominate";
    warmup = List.init hot (fun s -> { query = Gen (req s); proto = proto s });
    item = (fun i -> { query = Gen (req (Rng.int (index_rng seed i) hot)); proto = proto i });
    dataset = None;
    replay_queries = 400;
  }

let all = [ "chatty-hot"; "build-churn"; "tiny-mixed" ]

let of_name name seed =
  match name with
  | "chatty-hot" -> Some (chatty_hot seed)
  | "build-churn" -> Some (build_churn seed)
  | "tiny-mixed" -> Some (tiny_mixed seed)
  | _ -> None

let key = function
  | Gen r -> Service.key_of_request r
  | Ds d -> Service.key_of_dataset_request d

let is_free = function Gen r -> r.Service.family = Service.Free | Ds _ -> false

let describe = function
  | Gen r ->
      Printf.sprintf "%s/%s/%s n=%d seed=%d" (Service.family_to_string r.Service.family)
        (Service.partition_to_string r.Service.partition)
        (Service.protocol_to_string r.Service.protocol)
        r.Service.n r.Service.seed
  | Ds d ->
      Printf.sprintf "dataset %s/%s/%s seed=%d" d.Service.ds_name
        (Service.partition_to_string d.Service.ds_partition)
        (Service.protocol_to_string d.Service.ds_protocol)
        d.Service.ds_seed
