(* The traced replay: a workload's request sequence run in-process through
   the same public functions the daemon's serve path calls, with spans and
   counts recorded around each call from here.  It gives the per-layer
   numbers; the end-to-end numbers come from the live daemon with no
   tracing at all. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Wire = Tfree_wire.Wire_runtime
module Metrics = Tfree_wire.Metrics
module Jsonout = Tfree_util.Jsonout
module Lru = Tfree_util.Lru
module Channel = Tfree_comm.Channel
module Registry = Tfree_dataset.Registry
module Graph = Tfree_graph.Graph

let now = Unix.gettimeofday

(* Counts at the span boundaries of one replay pass. *)
type counters = {
  mutable queries : int;
  mutable lookups : int;
  mutable hits : int;
  mutable builds : int;  (** graph builds after warm-up *)
  mutable build_s : float list;  (** every graph build, warm-up included *)
  mutable partition_s : float list;
  mutable messages : int;
  mutable accounted_bits : int;
  mutable frames : int;
  mutable wire_bytes : int;
}

let counters () =
  {
    queries = 0; lookups = 0; hits = 0; builds = 0; build_s = []; partition_s = []; messages = 0;
    accounted_bits = 0; frames = 0; wire_bytes = 0;
  }

(* What the client puts on the wire for an exchange: a JSON line for v1,
   a sealed frame for v2. *)
type encoded = Line of string | Frame of Bytes.t

let encode_request (ex : Workload.exchange) =
  match ex.Workload.proto with
  | Proto.V1 ->
      Line
        (match ex.Workload.query with
        | Workload.Gen r -> Jsonout.to_line (Service.request_to_json r)
        | Workload.Ds d -> Jsonout.to_line (Service.dataset_request_to_json d))
  | Proto.V2 | Proto.Auto ->
      let b = Proto.create_buf () in
      (match ex.Workload.query with
      | Workload.Gen r -> Service.encode_query_frame b r
      | Workload.Ds d -> Service.encode_dataset_frame b d);
      Frame (Bytes.sub (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b))

let get_ok what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let parse_line line : Workload.query =
  let j = get_ok "parse" (Jsonout.parse line) in
  match Jsonout.member "op" j with
  | Some (Jsonout.Str "dataset") -> Workload.Ds (get_ok "parse" (Service.dataset_request_of_json j))
  | _ -> Workload.Gen (get_ok "parse" (Service.request_of_json j))

let parse_frame cur frame : Workload.query =
  ignore (Proto.try_frame frame ~pos:0 ~limit:(Bytes.length frame) cur);
  let tag = Proto.get_u8 cur in
  let q =
    if tag = Service.tag_dataset then Workload.Ds (get_ok "parse" (Service.decode_dataset_request_body cur))
    else Workload.Gen (get_ok "parse" (Service.decode_request_body cur))
  in
  Proto.expect_end cur;
  q

let parse cur = function Line l -> parse_line l | Frame f -> parse_frame cur f

let encode_response buf (proto : Proto.pref) resp =
  match proto with
  | Proto.V1 -> ignore (Jsonout.to_line (Service.response_to_json resp))
  | Proto.V2 | Proto.Auto -> Service.encode_response_frame buf resp

let timed acc f =
  let t0 = now () in
  let r = f () in
  acc := (now () -. t0) :: !acc;
  r

(* The served lookup: [Service.instance_pair] or [dataset_pair]. *)
let served_pair ~cache ~registry = function
  | Workload.Gen r -> Service.instance_pair ~cache r
  | Workload.Ds d -> Service.dataset_pair ~cache ~registry d

(* The served query: [Service.run_request] or [run_dataset_request]. *)
let served_run ~cache ~registry = function
  | Workload.Gen r -> Service.run_request ~cache r
  | Workload.Ds d -> Service.run_dataset_request ~cache ~registry d

let with_transport transport = function
  | Workload.Gen r -> Workload.Gen { r with Service.transport }
  | Workload.Ds d -> Workload.Ds { d with Service.ds_transport = transport }

(* The traced cache lookup.  A hit is {!served_pair}; a miss replays its
   build step through [Lru.find_or_add] with the graph build and the
   partition timed as child spans. *)
let lookup ~tr ~cache ~registry ~ctr (q : Workload.query) =
  let key = Workload.key q in
  let hit = Lru.mem cache key in
  ctr.lookups <- ctr.lookups + 1;
  if hit then ctr.hits <- ctr.hits + 1;
  let build_acc = ref [] and part_acc = ref [] in
  let partition kind seed ~k g =
    Spans.span tr "graph.partition" (fun () ->
        timed part_acc (fun () -> Service.build_partition kind (Service.partition_rng seed) ~k g))
  in
  let pair =
    if hit then served_pair ~cache ~registry q
    else
      match q with
      | Workload.Gen req ->
          Lru.find_or_add cache key (fun () ->
              let g =
                Spans.span tr "graph.build" (fun () ->
                    timed build_acc (fun () ->
                        Service.build_instance req.Service.family
                          (Service.graph_rng req.Service.seed)
                          ~n:req.Service.n ~d:req.Service.d ~eps:req.Service.eps))
              in
              (g, partition req.Service.partition req.Service.seed ~k:req.Service.k g))
      | Workload.Ds dreq ->
          Lru.find_or_add cache key (fun () ->
              let g =
                Spans.span tr "dataset.graph" (fun () -> Registry.graph registry dreq.Service.ds_name)
              in
              (g, partition dreq.Service.ds_partition dreq.Service.ds_seed ~k:dreq.Service.ds_k g))
  in
  ctr.build_s <- !build_acc @ ctr.build_s;
  ctr.partition_s <- !part_acc @ ctr.partition_s;
  ctr.builds <- ctr.builds + List.length !build_acc;
  pair

(* One [Tfree.Tester] entry point, as the service dispatches it. *)
let tester ?tap (q : Workload.query) g inputs =
  let protocol, seed, eps =
    match q with
    | Workload.Gen r -> (r.Service.protocol, r.Service.seed, r.Service.eps)
    | Workload.Ds d -> (d.Service.ds_protocol, d.Service.ds_seed, d.Service.ds_eps)
  in
  let params = Tfree.Params.(with_eps practical eps) in
  match protocol with
  | Service.Unrestricted -> Tfree.Tester.unrestricted ?tap ~seed params inputs
  | Service.Sim -> Tfree.Tester.simultaneous ?tap ~seed params ~d:(Graph.avg_degree g) inputs
  | Service.Oblivious -> Tfree.Tester.simultaneous_oblivious ?tap ~seed params inputs
  | Service.Exact -> Tfree.Tester.exact ?tap ~seed inputs

(* The traced protocol run over a wire network, composed as the service
   composes it.  A counting tap of our own sits in front of the wire tap,
   whose deliveries are timed and summed into one aggregate span. *)
let run ~tr ~ctr (q : Workload.query) g inputs =
  let transport, k =
    match q with
    | Workload.Gen r -> (r.Service.transport, r.Service.k)
    | Workload.Ds d -> (d.Service.ds_transport, d.Service.ds_k)
  in
  let net = Spans.span tr "wire.open" (fun () -> Wire.create ~transport ~k ()) in
  Fun.protect
    ~finally:(fun () -> Spans.span tr "wire.close" (fun () -> Wire.close net))
    (fun () ->
      let wire_tap = Wire.tap net in
      let tap_s = ref 0.0 in
      let wire_tap =
        {
          Channel.deliver =
            (fun ~round ch m ->
              let t0 = now () in
              let r = wire_tap.Channel.deliver ~round ch m in
              tap_s := !tap_s +. (now () -. t0);
              r);
        }
      in
      let count =
        { Channel.deliver = (fun ~round:_ _ m -> ctr.messages <- ctr.messages + 1; m) }
      in
      let start = now () in
      let report =
        Spans.span tr "core.tester" (fun () ->
            let r = tester ~tap:(Channel.compose count wire_tap) q g inputs in
            Spans.add_aggregate tr "wire.tap" ~start ~total:!tap_s;
            r)
      in
      let wire =
        Spans.span tr "wire.report" (fun () ->
            Wire.report net ~accounted_bits:report.Tfree.Tester.bits)
      in
      ctr.accounted_bits <- ctr.accounted_bits + report.Tfree.Tester.bits;
      ctr.frames <- ctr.frames + wire.Wire.frames;
      ctr.wire_bytes <- ctr.wire_bytes + wire.Wire.wire_bytes;
      {
        Service.verdict = report.Tfree.Tester.verdict;
        bits = report.Tfree.Tester.bits;
        rounds = report.Tfree.Tester.rounds;
        max_message = report.Tfree.Tester.max_message;
        wire;
      })

(* One query as the daemon serves it: parse, {!served_run}, encode. *)
let serve_plain ~cache ~registry ~cur ~buf (ex : Workload.exchange) encoded =
  let q = parse cur encoded in
  let resp = served_run ~cache ~registry q in
  encode_response buf ex.Workload.proto resp;
  (q, resp)

(* The same query traced: parse, look up (build on a miss), run, encode,
   each a span, with counts taken at the span boundaries. *)
let serve_traced ~tr ~cache ~registry ~ctr ~cur ~buf (ex : Workload.exchange) encoded =
  let tr = Some tr in
  Spans.next_query tr;
  Spans.span tr "query" (fun () ->
      let q = Spans.span tr "front.parse" (fun () -> parse cur encoded) in
      let g, inputs = Spans.span tr "cache.lookup" (fun () -> lookup ~tr ~cache ~registry ~ctr q) in
      let resp = Spans.span tr "run" (fun () -> run ~tr ~ctr q g inputs) in
      Spans.span tr "front.encode" (fun () -> encode_response buf ex.Workload.proto resp);
      ctr.queries <- ctr.queries + 1;
      (q, resp))

type pass = { seconds : float; trace : (counters * Spans.t) option; cache : Service.instance_cache }

(* One replay pass over a fresh cache: the warm-up, then the first
   [replay_queries] items, both served plainly or traced; each reply is
   checked against [check].  A traced pass keeps the warm-up's build and
   partition times, so a workload whose timed items all hit the cache
   still reports them, and drops the warm-up's spans and other counts. *)
let pass ~traced ~registry ~check (w : Workload.t) =
  let cache = Service.create_cache () in
  let cur = Proto.cursor () and buf = Proto.create_buf () in
  let prepared l = List.map (fun ex -> (ex, encode_request ex)) l in
  let serve one l =
    List.iter
      (fun (ex, enc) ->
        let q, resp = one ex enc in
        check q resp)
      l
  in
  let warmup = prepared w.Workload.warmup in
  let items = prepared (List.init w.Workload.replay_queries w.Workload.item) in
  let trace = if traced then Some (counters (), Spans.create ()) else None in
  (match trace with
  | None -> serve (serve_plain ~cache ~registry ~cur ~buf) warmup
  | Some (ctr, _) ->
      let warm = counters () in
      serve (serve_traced ~tr:(Spans.create ()) ~cache ~registry ~ctr:warm ~cur ~buf) warmup;
      ctr.build_s <- warm.build_s;
      ctr.partition_s <- warm.partition_s);
  let t0 = now () in
  (match trace with
  | None -> serve (serve_plain ~cache ~registry ~cur ~buf) items
  | Some (ctr, tr) -> serve (serve_traced ~tr ~cache ~registry ~ctr ~cur ~buf) items);
  { seconds = now () -. t0; trace; cache }

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let distinct l =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* Mean seconds per call of [f] over [reps] rounds of [xs]. *)
let per_call ~reps xs f =
  let t0 = now () in
  for _ = 1 to reps do
    List.iter f xs
  done;
  (now () -. t0) /. float_of_int (reps * List.length xs)

(* Per-call times of the model run (each [Tfree.Tester] call with no
   tap) and of the served run over pipe and over socketpair, on keys
   already in [cache], so a served run's lookup is a hit.  All three must
   agree on verdict and bits. *)
let transports ~cache ~registry ~reps queries =
  let inst = List.map (fun q -> (q, served_pair ~cache ~registry q)) queries in
  let model = per_call ~reps inst (fun (q, (g, inputs)) -> ignore (tester q g inputs)) in
  let over transport =
    per_call ~reps queries (fun q -> ignore (served_run ~cache ~registry (with_transport transport q)))
  in
  let pipe = over Wire.Pipe and sp = over Wire.Socketpair in
  List.iter
    (fun (q, (g, inputs)) ->
      let m = tester q g inputs in
      List.iter
        (fun transport ->
          let r = served_run ~cache ~registry (with_transport transport q) in
          if compare m.Tfree.Tester.verdict r.Service.verdict <> 0 || m.Tfree.Tester.bits <> r.Service.bits
          then failwith "model and wire runs disagree")
        [ Wire.Pipe; Wire.Socketpair ])
    inst;
  (model, pipe, sp)

(* Codec costs on the workload's own requests and replies. *)
let codecs ~reference queries =
  let cur = Proto.cursor () and buf = Proto.create_buf () in
  let enc proto q = encode_request { Workload.query = q; proto } in
  let lines = List.map (enc Proto.V1) queries and frames = List.map (enc Proto.V2) queries in
  let resps = List.map reference queries in
  let reps = max 1 (4000 / List.length queries) in
  let parse_v1 = per_call ~reps lines (fun e -> ignore (parse cur e)) in
  let parse_v2 = per_call ~reps frames (fun e -> ignore (parse cur e)) in
  let encode_v1 = per_call ~reps resps (encode_response buf Proto.V1) in
  let encode_v2 = per_call ~reps resps (encode_response buf Proto.V2) in
  (parse_v1, parse_v2, encode_v1, encode_v2)

(* [Service.handle_line] over the items' JSON lines on a fresh cache
   after the warm-up: mean seconds and minor words per query. *)
let handle_lines ~registry (w : Workload.t) =
  let cache = Service.create_cache () and metrics = Metrics.create () and stop = ref false in
  let line (ex : Workload.exchange) =
    match encode_request { ex with Workload.proto = Proto.V1 } with Line l -> l | Frame _ -> assert false
  in
  let handle l = Service.handle_line ~cache ~registry ~metrics ~stop l in
  List.iter (fun ex -> ignore (handle (line ex))) w.Workload.warmup;
  let lines = List.init w.Workload.replay_queries (fun i -> line (w.Workload.item i)) in
  let words0 = Gc.minor_words () and t0 = now () in
  List.iter
    (fun l ->
      let _, served = handle l in
      if served <> 1 then failwith "handle_line did not serve a replayed line")
    lines;
  let n = float_of_int (List.length lines) in
  ((now () -. t0) /. n, (Gc.minor_words () -. words0) /. n)

(* Daemon start-up's dataset step: load the manifest and preload it. *)
let preload_s manifest =
  let once () =
    let t0 = now () in
    Registry.preload (Registry.load manifest);
    now () -. t0
  in
  E2e.median (List.init 5 (fun _ -> once ()))

(* A one-entry manifest over the snapshot of [g], for workloads that
   serve no dataset: the preload cost at the workload's graph size. *)
let snapshot_manifest ~out g =
  let file = "replay.tfs" in
  Tfree_dataset.Snapshot.save g (Filename.concat out file);
  let reg = Registry.create ~dir:out () in
  Registry.add reg
    { Registry.name = "replay"; path = file; format = Registry.Snapshot; n = Graph.n g; m = Graph.m g; gen = None };
  let manifest = Filename.concat out "replay.json" in
  Registry.save reg manifest;
  manifest

(* Mean {!served_pair} time on keys resident in [cache]. *)
let hit_probe ~cache ~registry queries =
  let resident = List.filter (fun q -> Lru.mem cache (Workload.key q)) queries in
  per_call ~reps:(max 1 (2000 / max 1 (List.length resident))) resident (fun q ->
      ignore (served_pair ~cache ~registry q))

(* Span self time grouped by layer. *)
let layer_groups =
  [
    ("front", [ "front.parse"; "front.encode" ]);
    ("cache", [ "cache.lookup" ]);
    ("graph", [ "graph.build"; "graph.partition"; "dataset.graph" ]);
    ("core", [ "run"; "core.tester" ]);
    ("wire", [ "wire.open"; "wire.tap"; "wire.report"; "wire.close" ]);
    ("unattributed", [ "query" ]);
  ]

let shares spans =
  let self = Spans.self_times spans in
  let total = Spans.root_total spans in
  List.map
    (fun (layer, names) ->
      let s = List.fold_left (fun acc n -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt self n)) 0.0 names in
      (layer, s /. total))
    layer_groups

type result = {
  metrics : (string * float * string) list;
  layer_shares : (string * float) list;
  spans : Spans.t;
}

let run_all ~out ~registry ~manifest ~check ~reference (w : Workload.t) =
  let registry = match registry with Some r -> r | None -> Registry.create () in
  (* alternate untraced and traced passes; keep the last traced one *)
  let passes = List.init 4 (fun i -> pass ~traced:(i mod 2 = 1) ~registry ~check w) in
  let sum traced =
    List.fold_left ( +. ) 0.0
      (List.filteri (fun i _ -> i mod 2 = if traced then 1 else 0) (List.map (fun p -> p.seconds) passes))
  in
  let last = List.nth passes 3 in
  let ctr, spans = Option.get last.trace in
  let items = List.init w.Workload.replay_queries (fun i -> (w.Workload.item i).Workload.query) in
  let uniq = distinct items in
  let sample = List.filteri (fun i _ -> i < 8) uniq in
  let reps = if w.Workload.name = "tiny-mixed" then 50 else 3 in
  let model, pipe, sp = transports ~cache:last.cache ~registry ~reps sample in
  let parse_v1, parse_v2, encode_v1, encode_v2 = codecs ~reference sample in
  let handle_s, words = handle_lines ~registry w in
  let manifest =
    match manifest with
    | Some m -> m
    | None ->
        snapshot_manifest ~out (fst (served_pair ~cache:last.cache ~registry (List.hd items)))
  in
  let preload = preload_s manifest in
  let hit_s = hit_probe ~cache:last.cache ~registry uniq in
  let q = float_of_int ctr.queries in
  let layer_shares = shares spans in
  let self = Spans.self_times spans in
  let unattributed = Option.value ~default:0.0 (Hashtbl.find_opt self "query") /. Spans.root_total spans in
  let metrics =
    [
      ("graph.build_ms", mean ctr.build_s *. 1e3, "ms");
      ("graph.partition_ms", mean ctr.partition_s *. 1e3, "ms");
      ("graph.builds", float_of_int ctr.builds, "count");
      ("cache.hit_ratio", float_of_int ctr.hits /. float_of_int ctr.lookups, "ratio");
      ("cache.lookup_hit_us", hit_s *. 1e6, "us");
      ("dataset.preload_ms", preload *. 1e3, "ms");
      ("core.run_model_ms", model *. 1e3, "ms");
      ("comm.messages_per_query", float_of_int ctr.messages /. q, "count");
      ("comm.accounted_bits_per_query", float_of_int ctr.accounted_bits /. q, "bits");
      ("wire.run_pipe_ms", pipe *. 1e3, "ms");
      ("wire.run_socketpair_ms", sp *. 1e3, "ms");
      ("wire.tap_overhead_ms", (pipe -. model) *. 1e3, "ms");
      ("wire.frames_per_query", float_of_int ctr.frames /. q, "count");
      ("wire.bytes_per_query", float_of_int ctr.wire_bytes /. q, "bytes");
      ( "wire.framing_ratio",
        float_of_int (8 * ctr.wire_bytes) /. float_of_int (max 1 ctr.accounted_bits),
        "ratio" );
      ("service.parse_v1_us", parse_v1 *. 1e6, "us");
      ("service.parse_v2_us", parse_v2 *. 1e6, "us");
      ("service.encode_v1_us", encode_v1 *. 1e6, "us");
      ("service.encode_v2_us", encode_v2 *. 1e6, "us");
      ("service.handle_line_us", handle_s *. 1e6, "us");
      ("service.minor_words_per_query", words, "words");
      ("trace.unattributed_share", unattributed, "ratio");
      ("trace.overhead_ratio", sum true /. sum false, "ratio");
    ]
    @ List.filter_map
        (fun (layer, s) ->
          if layer = "unattributed" then None else Some ("layer." ^ layer ^ "_share", s, "ratio"))
        layer_shares
  in
  { metrics; layer_shares; spans }
