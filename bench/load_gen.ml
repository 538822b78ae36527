(* Closed-loop load generator for tfree-serve, behind the @load-smoke
   alias.

   For each wire protocol selected by [--protocol] (default: both v1 and
   v2), forks one server and [--clients] concurrent client processes; each
   client drives [--queries] protocol queries through the socket, grouped
   into batch exchanges of [--batch] requests, cycling [--seeds] distinct
   instance seeds so the server's LRU cache sees genuine reuse.  Every
   reply is compared against a locally computed run of the same request —
   a single wrong verdict (or bit count, or a wire report that does not
   reconcile) is a hard failure.

   The parent then reconciles the server's [{"op": "stats"}] telemetry
   against the clients' own tallies:

     queries_served   = clients x queries + retries x batch
     cache lookups    = queries_served, misses = distinct seeds,
                        hits = lookups - misses (> 0 whenever seeds repeat)
     batches / items  = exchanges incl. retried ones / batches x batch
     injected_faults  = the whole [--fault] schedule, with exactly one
                        client retry per non-benign firing; errors = 0
     protocol_versions.vN
                      = all serving lands on the active version: its
                        served gauge equals queries_served, its byte gauge
                        equals the clients' framed bytes over all-ok
                        exchanges, and the other version's gauges are 0

   and reports latency and wire traffic per query — framed bytes (what
   crosses the socket: newline framing for v1, length prefix + checksum
   for v2) and payload bytes (the JSON text / frame body alone) separately,
   side by side across versions when both run.  Exit status is nonzero on
   any violation, so the alias doubles as a concurrency regression gate.

   Latency reconciliation: each client also records its per-exchange
   latencies into a bounded {!Tfree_obs.Histogram} shipped down the pipe
   in compact form.  The parent merges the per-client histograms and
   insists the merge is bit-identical to a histogram of all raw samples
   (merge over split histograms = unsplit), that the merged quantiles
   agree with {!Stats.quantile} over the raw samples within the
   histogram's documented precision, and that the server's own latency
   histogram counted every served query; the server's per-phase
   histograms must account one run and one encode per served query, and
   their p99s are reported.

   Every forked process leaves with [Unix._exit]: the parent's [at_exit]
   handlers must run once, in the parent. *)

open Tfree_util
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Fault = Tfree_wire.Fault
module Metrics = Tfree_wire.Metrics
module Wire = Tfree_wire.Wire_runtime
module Histogram = Tfree_obs.Histogram
module Phase = Tfree_obs.Phase

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("load_gen: " ^ msg); exit 1) fmt

(* ------------------------------------------------------------ arguments *)

let clients = ref 4
let queries = ref 8
let batch = ref 2
let seeds = ref 4
let retries = ref 8
let fault_spec = ref "1:drop,3:corrupt@13,6:close"
let max_clients = ref 64
let cache_capacity = ref 32
let inst_n = ref 200
let socket_path = ref ""
let protocol_mode = ref "both"
let workers = ref 0
let fleet_sweep = ref false
let fleet_out = ref ""

let specs =
  [
    ("--clients", Arg.Set_int clients, "N  concurrent client processes (default 4)");
    ("--queries", Arg.Set_int queries, "Q  queries per client; multiple of --batch (default 8)");
    ("--batch", Arg.Set_int batch, "B  requests per batch exchange; 1 = single lines (default 2)");
    ("--seeds", Arg.Set_int seeds, "S  distinct instance seeds cycled per client (default 4)");
    ("--retries", Arg.Set_int retries, "R  client retry budget per exchange (default 8)");
    ("--fault", Arg.Set_string fault_spec,
     "SPEC  server reply-fault schedule, Fault.parse grammar; '' = none");
    ("--max-clients", Arg.Set_int max_clients, "M  server connection cap (default 64)");
    ("--cache", Arg.Set_int cache_capacity, "C  server instance-cache capacity (default 32)");
    ("--n", Arg.Set_int inst_n, "N  instance size per query (default 200)");
    ("--socket", Arg.Set_string socket_path, "PATH  socket path stem (default: fresh temp path)");
    ("--protocol", Arg.Set_string protocol_mode,
     "P  wire protocol to drive: v1, v2 or both (default both)");
    ("--workers", Arg.Set_int workers,
     "W  drive a W-worker fleet (serve --workers W) with shard-aware clients; 0 = single server \
      (default 0)");
    ("--fleet", Arg.Set fleet_sweep,
     "  fleet throughput sweep: run the workload at 1, 2 and 4 workers, reconcile each run \
      exactly, and require the multi-worker runs to beat one worker on wall-clock qps");
    ("--fleet-out", Arg.Set_string fleet_out,
     "FILE  write the sweep's fleet/* rows as JSON: into FILE's \"fleet\" member when it is a \
      tfree-bench/v1 document, else as a standalone tfree-fleet/v1 document");
  ]

let usage = "load_gen [options]  -- closed-loop load generator for tfree-serve"

(* ------------------------------------------------------- request plan *)

let request_for seed = { Service.default_request with n = !inst_n; seed }

(* Consecutive chunks of [--batch] requests, one per exchange. *)
let rec group_batches = function
  | [] -> []
  | l ->
      let rec take n = function
        | x :: tl when n > 0 ->
            let h, rest = take (n - 1) tl in
            (x :: h, rest)
        | rest -> ([], rest)
      in
      let h, rest = take !batch l in
      h :: group_batches rest

(* Client [c]'s query stream: seeds cycle 1..S, identically across
   clients, so the distinct instance-key count is exactly S. *)
let plan_for_client _c = group_batches (List.init !queries (fun q -> request_for (1 + (q mod !seeds))))

(* The exact wire bytes of one all-ok exchange, as (framed, payload):
   request plus reply as the client serializes them and the server shapes
   its replies (a batch item's reply is byte-for-byte the single reply in
   both protocols).  Framed is what the server's per-version byte gauge
   records — line bytes incl. newlines for v1, whole frames for v2 — so
   summing this over all-ok exchanges must reproduce that gauge exactly.
   Payload strips the framing: newlines for v1, length prefix and checksum
   for v2. *)
let exchange_bytes ~pref reqs resps =
  match (pref : Proto.pref) with
  | V1 ->
      let request_line =
        match reqs with
        | [ r ] when !batch = 1 -> Jsonout.to_line (Service.request_to_json r)
        | _ -> Jsonout.to_line (Service.batch_request_to_json reqs)
      in
      let reply_line =
        match resps with
        | [ r ] when !batch = 1 -> Jsonout.to_line (Service.response_to_json r)
        | _ ->
            Jsonout.to_line
              (Jsonout.Obj
                 [
                   ("ok", Jsonout.Bool true);
                   ("count", Jsonout.Num (float_of_int (List.length resps)));
                   ("results", Jsonout.List (List.map Service.response_to_json resps));
                 ])
      in
      let payload = String.length request_line + String.length reply_line in
      (payload + 2 (* the newlines *), payload)
  | V2 | Auto ->
      let b = Proto.create_buf () in
      (match reqs with
      | [ r ] when !batch = 1 -> Service.encode_query_frame b r
      | _ -> Service.encode_batch_frame b reqs);
      let qf = Proto.frame_len b and qp = Proto.frame_body_len b in
      (match resps with
      | [ r ] when !batch = 1 -> Service.encode_response_frame b r
      | _ -> Service.encode_batch_reply_frame b resps);
      (qf + Proto.frame_len b, qp + Proto.frame_body_len b)

(* ------------------------------------------------------- client process *)

type tally = {
  mutable ok : int;
  mutable wrong : int;
  mutable failed : int;
  mutable framed : int;
  mutable payload : int;
  mutable lats_us : int list;  (** newest first; one sample per exchange *)
}

let check_item expected = function
  | Error msg -> `Failed msg
  | Ok (resp : Service.response) ->
      if
        resp.Service.verdict = expected.Service.verdict
        && resp.Service.bits = expected.Service.bits
        && resp.Service.rounds = expected.Service.rounds
        && Wire.reconciles resp.Service.wire
      then `Ok
      else `Wrong

let run_client ~pref ~path ~expected c =
  let m = Metrics.create () in
  let t = { ok = 0; wrong = 0; failed = 0; framed = 0; payload = 0; lats_us = [] } in
  List.iter
    (fun reqs ->
      let expect = List.map (fun r -> expected r.Service.seed) reqs in
      let t0 = Unix.gettimeofday () in
      let results =
        if !batch = 1 then
          List.map
            (fun r ->
              Service.client_query ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02
                ~backoff_seed:c ~metrics:m ~protocol:pref ~path r)
            reqs
        else
          match
            Service.client_batch ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02 ~backoff_seed:c
              ~metrics:m ~protocol:pref ~path reqs
          with
          | Ok items -> items
          | Error msg -> List.map (fun _ -> Error msg) reqs
      in
      t.lats_us <- int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) :: t.lats_us;
      List.iter2
        (fun e r ->
          match check_item e r with
          | `Ok -> t.ok <- t.ok + 1
          | `Wrong -> t.wrong <- t.wrong + 1
          | `Failed msg ->
              Printf.eprintf "load_gen: client %d exchange failed: %s\n%!" c msg;
              t.failed <- t.failed + 1)
        expect results;
      if List.for_all Result.is_ok results then begin
        let framed, payload = exchange_bytes ~pref reqs (List.map Result.get_ok results) in
        t.framed <- t.framed + framed;
        t.payload <- t.payload + payload
      end)
    (plan_for_client c);
  (t, Metrics.retries m)

(* One result line per client down the pipe; each is far under PIPE_BUF,
   so concurrent writes stay atomic.  The ninth token is the client's
   latency histogram in {!Histogram.to_compact} form (space-free), built
   from exactly the raw samples in the eighth — the parent checks the
   merge of these against a histogram of all the raw samples. *)
let emit_tally fd c (t, nretries) =
  let lats = String.concat "," (List.rev_map string_of_int t.lats_us) in
  let h = Histogram.create () in
  List.iter (fun us -> Histogram.record h (float_of_int us)) t.lats_us;
  let line =
    Printf.sprintf "%d %d %d %d %d %d %d %s %s\n" c t.ok t.wrong t.failed nretries t.framed
      t.payload lats (Histogram.to_compact h)
  in
  ignore (Unix.write_substring fd line 0 (String.length line))

(* --------------------------------------------------------- the harness *)

let stats_num stats k =
  match Option.bind (Jsonout.member k stats) Jsonout.to_float with
  | Some f -> int_of_float f
  | None -> fail "stats missing numeric field %S" k

let stats_sub stats outer k =
  match Option.bind (Jsonout.member outer stats) (Jsonout.member k) with
  | Some j -> (
      match Jsonout.to_float j with
      | Some f -> int_of_float f
      | None -> fail "stats field %s.%s is not numeric" outer k)
  | None -> fail "stats missing field %s.%s" outer k

(* protocol_versions.vN.{served,bytes} *)
let stats_version stats v k =
  let key = Printf.sprintf "v%d" v in
  match
    Option.bind (Jsonout.member "protocol_versions" stats) (fun pv ->
        Option.bind (Jsonout.member key pv) (Jsonout.member k))
  with
  | Some j -> (
      match Jsonout.to_float j with
      | Some f -> int_of_float f
      | None -> fail "stats field protocol_versions.%s.%s is not numeric" key k)
  | None -> fail "stats missing field protocol_versions.%s.%s" key k

type run_summary = {
  label : string;
  framed_per_query : float;
  payload_per_query : float;
  us_per_query : float;
}

(* One full load run over wire protocol [pref]: fork a server and the
   client fleet, drain tallies, reconcile stats — including the
   per-version served/byte gauges — and report.  Returns the per-query
   figures for the cross-version comparison. *)
let run_load ~pref ~fault ~expected ~path =
  let label = Proto.pref_to_string pref in
  let active = match (pref : Proto.pref) with V1 -> 1 | V2 | Auto -> 2 in
  (* ---- server ---- *)
  let server =
    match Unix.fork () with
    | 0 ->
        (try
           ignore
             (Service.serve ~max_clients:!max_clients ~line_timeout_s:10.0 ~fault
                ~cache_capacity:!cache_capacity ~path ())
         with _ -> Unix._exit 2);
        Unix._exit 0
    | pid -> pid
  in
  let rec await tries =
    if not (Sys.file_exists path) then
      if tries = 0 then (
        Unix.kill server Sys.sigkill;
        fail "server socket %s never appeared" path)
      else (
        Unix.sleepf 0.05;
        await (tries - 1))
  in
  await 100;
  (* ---- clients ---- *)
  let rd, wr = Unix.pipe () in
  let pids =
    List.init !clients (fun c ->
        match Unix.fork () with
        | 0 ->
            Unix.close rd;
            emit_tally wr c (run_client ~pref ~path ~expected c);
            Unix._exit 0
        | pid -> pid)
  in
  Unix.close wr;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read rd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close rd;
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "[%s] a client process crashed" label)
    pids;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  if List.length lines <> !clients then
    fail "[%s] collected %d client tallies, expected %d" label (List.length lines) !clients;
  let ok = ref 0 and wrong = ref 0 and failed = ref 0 in
  let nretries = ref 0 and framed = ref 0 and payload = ref 0 and lats = ref [] in
  let merged = Histogram.create () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ _c; o; w; f; r; fb; pb; ls; hc ] ->
          ok := !ok + int_of_string o;
          wrong := !wrong + int_of_string w;
          failed := !failed + int_of_string f;
          nretries := !nretries + int_of_string r;
          framed := !framed + int_of_string fb;
          payload := !payload + int_of_string pb;
          List.iter
            (fun s -> if s <> "" then lats := float_of_string s :: !lats)
            (String.split_on_char ',' ls);
          (match Histogram.of_compact hc with
          | Ok h -> Histogram.merge merged h
          | Error msg -> fail "[%s] garbled client histogram: %s" label msg)
      | _ -> fail "[%s] garbled client tally %S" label line)
    lines;
  (* merge over per-client histograms = one histogram of all raw samples,
     exactly; and the merged quantiles track the exact sample quantiles
     within the histogram's documented precision *)
  let reference = Histogram.create () in
  List.iter (Histogram.record reference) !lats;
  if not (Histogram.equal merged reference) then
    fail "[%s] merged client histograms differ from the unsplit histogram of all samples" label;
  if Histogram.count merged <> List.length !lats then
    fail "[%s] merged histogram holds %d samples, clients reported %d" label
      (Histogram.count merged) (List.length !lats);
  List.iter
    (fun p ->
      let exact = Stats.quantile p !lats in
      let approx = Histogram.quantile merged p in
      let tolerance = Histogram.max_error merged exact in
      if Float.abs (approx -. exact) > tolerance then
        fail "[%s] histogram p%.0f %.1f drifts from exact %.1f beyond precision %.1f" label
          (100.0 *. p) approx exact tolerance)
    [ 0.5; 0.9; 0.99 ];
  (* ---- server telemetry, then shutdown ---- *)
  let stats =
    match Service.client_stats ~protocol:pref ~path () with
    | Ok s -> s
    | Error msg -> fail "[%s] stats query: %s" label msg
  in
  Service.client_shutdown ~protocol:pref ~path ();
  (match Unix.waitpid [] server with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "[%s] server did not exit cleanly" label);
  (* ---- reconciliation ---- *)
  let total = !clients * !queries in
  if !wrong > 0 then fail "[%s] %d wrong verdicts out of %d queries" label !wrong total;
  if !failed > 0 then fail "[%s] %d exchanges exhausted their retry budget" label !failed;
  if !ok <> total then fail "[%s] served %d ok replies, expected %d" label !ok total;
  let served = stats_num stats "queries_served" in
  let expect_served = total + (!nretries * !batch) in
  if served <> expect_served then
    fail "[%s] server served %d queries; clients account for %d (= %d ok + %d retries x %d batch)"
      label served expect_served total !nretries !batch;
  let nonbenign =
    List.length (List.filter (fun e -> not (Fault.benign e.Fault.kind)) fault)
  in
  if stats_num stats "injected_faults" <> List.length fault then
    fail "[%s] server injected %d faults, scheduled %d" label
      (stats_num stats "injected_faults") (List.length fault);
  if !nretries <> nonbenign then
    fail "[%s] clients spent %d retries; the schedule's %d non-benign faults force exactly that many"
      label !nretries nonbenign;
  if stats_num stats "errors" <> 0 then
    fail "[%s] server tallied %d errors on a clean run" label (stats_num stats "errors");
  (* every query serves — and every byte lands — on the active version;
     the byte gauge counts clean replies only, which is exactly the
     clients' all-ok exchanges (a sabotaged attempt is retried, and only
     the clean final attempt is recorded on either side) *)
  for v = 1 to Metrics.max_wire_version do
    let expect_served = if v = active then served else 0 in
    let expect_bytes = if v = active then !framed else 0 in
    if stats_version stats v "served" <> expect_served then
      fail "[%s] v%d served gauge %d, expected %d" label v (stats_version stats v "served")
        expect_served;
    if stats_version stats v "bytes" <> expect_bytes then
      fail "[%s] v%d byte gauge %d; clients' framed all-ok bytes total %d" label v
        (stats_version stats v "bytes") expect_bytes
  done;
  let hits = stats_sub stats "cache" "hits"
  and misses = stats_sub stats "cache" "misses"
  and lookups = stats_sub stats "cache" "lookups" in
  if !cache_capacity > 0 then begin
    if lookups <> served then fail "[%s] cache lookups %d != queries served %d" label lookups served;
    if hits + misses <> lookups then
      fail "[%s] cache hits %d + misses %d != lookups %d" label hits misses lookups;
    if !cache_capacity >= !seeds && misses <> !seeds then
      fail "[%s] cache misses %d != %d distinct seeds" label misses !seeds;
    if served > !seeds && hits = 0 then fail "[%s] seed reuse produced no cache hits" label
  end;
  let exchanges = total / !batch + !nretries in
  if !batch > 1 then begin
    if stats_sub stats "batch" "batches" <> exchanges then
      fail "[%s] server saw %d batches, clients sent %d" label
        (stats_sub stats "batch" "batches") exchanges;
    if stats_sub stats "batch" "items" <> exchanges * !batch then
      fail "[%s] server saw %d batch items, clients sent %d" label
        (stats_sub stats "batch" "items") (exchanges * !batch)
  end;
  (* the server's own bounded histograms: the end-to-end latency histogram
     counted every served query, and the per-phase histograms account
     exactly one run and one encode per served query *)
  if stats_sub stats "latency_us" "count" <> served then
    fail "[%s] server latency histogram holds %d samples, served %d queries" label
      (stats_sub stats "latency_us" "count") served;
  let phase_num phase k =
    match
      Option.bind (Jsonout.member "phases" stats) (fun ps ->
          Option.bind (Jsonout.member (Phase.name phase) ps) (Jsonout.member k))
    with
    | Some j -> Option.value ~default:0.0 (Jsonout.to_float j)
    | None -> fail "[%s] stats missing field phases.%s.%s" label (Phase.name phase) k
  in
  if int_of_float (phase_num Phase.Run "count") <> served then
    fail "[%s] run phase counted %.0f samples, served %d queries" label
      (phase_num Phase.Run "count") served;
  if int_of_float (phase_num Phase.Encode "count") <> served then
    fail "[%s] encode phase counted %.0f samples, served %d queries" label
      (phase_num Phase.Encode "count") served;
  (* ---- report ---- *)
  let q p = Stats.quantile p !lats /. 1000.0 in
  Printf.printf
    "load_gen: [%s] %d clients x %d queries (batch %d, %d seeds): 0 wrong, %d retries, %d injected\n"
    label !clients !queries !batch !seeds !nretries (stats_num stats "injected_faults");
  Printf.printf "load_gen: [%s] cache %d/%d/%d hit/miss/lookups; %d batches\n" label hits misses
    lookups
    (if !batch > 1 then exchanges else 0);
  Printf.printf "load_gen: [%s] latency/exchange ms p50 %.1f  p90 %.1f  p99 %.1f\n" label (q 0.50)
    (q 0.90) (q 0.99);
  Printf.printf "load_gen: [%s] server phase p99 us:%s\n" label
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf "  %s %.0f" (Phase.name p) (phase_num p "p99"))
          Phase.all));
  let per_query b = float_of_int b /. float_of_int total in
  Printf.printf "load_gen: [%s] wire bytes/query %.1f framed, %.1f payload\n" label
    (per_query !framed) (per_query !payload);
  {
    label;
    framed_per_query = per_query !framed;
    payload_per_query = per_query !payload;
    us_per_query = List.fold_left ( +. ) 0.0 !lats /. float_of_int total;
  }

(* ------------------------------------------------------- fleet harness *)

(* The fleet workload routes every request to the worker that owns its
   instance key — the same {!Service.shard_of_request} hash the fleet
   parent shards by — so each worker's LRU sees only its slice of the
   seed space.  The sweep measures two effects of that sharding as
   separate rows:

   - capacity: [--clients] sequential clients, [--cache] entries per
     worker.  With [--seeds] past one worker's capacity, one worker
     thrashes (every lookup rebuilds its instance) while at two or four
     workers every shard slice fits its cache.  This is a cache effect,
     asserted from exact miss counts, not from wall-clock time.
   - parallel: [fleet_max] concurrent clients (at least W at every W),
     each running [--queries], at equal total capacity — each worker gets
     [fleet_max·cache / W] entries, so every distinct instance is built
     exactly once at every W and the only difference left is how many
     workers serve at once.  The "W workers beat one" qps gate sits here.

   Clients group each [--batch] chunk per shard (one exchange per shard
   the chunk touches) and account retries per exchange, so the
   reconciliation [served = ok + extra] stays exact at any batch size: a
   retried exchange re-serves exactly its own items. *)

let fleet_max = 4

(* One sweep point: client processes, queries per client, cache entries
   per worker. *)
type fleet_load = { fl_clients : int; fl_queries : int; fl_cache : int }

let capacity_load () = { fl_clients = !clients; fl_queries = !queries; fl_cache = !cache_capacity }

let parallel_load ~workers =
  { fl_clients = fleet_max; fl_queries = !queries; fl_cache = fleet_max * !cache_capacity / workers }

(* Client [c]'s query stream under [load]: seeds cycle 1..S, each client
   starting [c·S/clients] seeds in, so concurrent clients are not in
   lockstep on one shard; the distinct instance-key count stays S. *)
let fleet_plan load c =
  let offset = c * !seeds / load.fl_clients in
  group_batches (List.init load.fl_queries (fun q -> request_for (1 + ((q + offset) mod !seeds))))

(* One fleet client: returns (ok, wrong, failed, retries, extra) where
   [extra] counts queries the server served again because an exchange
   was retried. *)
let run_fleet_client ~load ~workers ~path ~expected c =
  let m = Metrics.create () in
  let ok = ref 0 and wrong = ref 0 and failed = ref 0 and extra = ref 0 in
  List.iter
    (fun reqs ->
      let by_shard = Hashtbl.create 4 in
      List.iter
        (fun r ->
          let sh = Service.shard_of_request ~workers r in
          Hashtbl.replace by_shard sh (r :: (try Hashtbl.find by_shard sh with Not_found -> [])))
        reqs;
      let groups =
        Hashtbl.fold (fun sh rs acc -> (sh, List.rev rs) :: acc) by_shard [] |> List.sort compare
      in
      List.iter
        (fun (sh, reqs) ->
          let spath = Service.worker_path ~path sh in
          let before = Metrics.retries m in
          let results =
            match reqs with
            | [ r ] ->
                [
                  Service.client_query ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02
                    ~backoff_seed:c ~metrics:m ~protocol:Proto.V2 ~path:spath r;
                ]
            | _ -> (
                match
                  Service.client_batch ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02
                    ~backoff_seed:c ~metrics:m ~protocol:Proto.V2 ~path:spath reqs
                with
                | Ok items -> items
                | Error msg -> List.map (fun _ -> Error msg) reqs)
          in
          extra := !extra + ((Metrics.retries m - before) * List.length reqs);
          List.iter2
            (fun r result ->
              match check_item (expected r.Service.seed) result with
              | `Ok -> incr ok
              | `Wrong -> incr wrong
              | `Failed msg ->
                  Printf.eprintf "load_gen: fleet client %d exchange failed: %s\n%!" c msg;
                  incr failed)
            reqs results)
        groups)
    (fleet_plan load c);
  (!ok, !wrong, !failed, Metrics.retries m, !extra)

type fleet_row = {
  fr_sweep : string;
  fr_load : fleet_load;
  fr_workers : int;
  fr_qps : float;
  fr_served : int;
  fr_ok : int;
  fr_retries : int;
  fr_extra : int;
  fr_hits : int;
  fr_misses : int;
  fr_restarts : int;
}

(* One full fleet run at [workers]: fork [serve --workers], await the
   public and every shard socket, drive the shard-aware client fleet,
   measure wall-clock qps over the client phase, then reconcile the
   merged {"op":"stats"} exactly — served = ok + extra, zero wrong,
   zero errors, cache lookups = served, per-worker gauges summing to
   the total, no restarts. *)
let run_fleet_load ~sweep ~load ~workers ~expected ~path =
  let label = Printf.sprintf "fleet %s w%d" sweep workers in
  let all_paths = path :: List.init workers (Service.worker_path ~path) in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) all_paths;
  let server =
    match Unix.fork () with
    | 0 ->
        (try
           ignore
             (Service.serve ~max_clients:!max_clients ~line_timeout_s:10.0
                ~cache_capacity:load.fl_cache ~workers ~path ())
         with _ -> Unix._exit 2);
        Unix._exit 0
    | pid -> pid
  in
  let rec await tries =
    if not (List.for_all Sys.file_exists all_paths) then
      if tries = 0 then (
        Unix.kill server Sys.sigkill;
        fail "[%s] fleet sockets at %s never appeared" label path)
      else (
        Unix.sleepf 0.05;
        await (tries - 1))
  in
  await 100;
  let rd, wr = Unix.pipe () in
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init load.fl_clients (fun c ->
        match Unix.fork () with
        | 0 ->
            Unix.close rd;
            let ok, wrong, failed, nretries, extra =
              run_fleet_client ~load ~workers ~path ~expected c
            in
            let line = Printf.sprintf "%d %d %d %d %d %d\n" c ok wrong failed nretries extra in
            ignore (Unix.write_substring wr line 0 (String.length line));
            Unix._exit 0
        | pid -> pid)
  in
  Unix.close wr;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read rd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close rd;
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "[%s] a client process crashed" label)
    pids;
  let t1 = Unix.gettimeofday () in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf)) in
  if List.length lines <> load.fl_clients then
    fail "[%s] collected %d client tallies, expected %d" label (List.length lines) load.fl_clients;
  let ok = ref 0 and wrong = ref 0 and failed = ref 0 and nretries = ref 0 and extra = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ _c; o; w; f; r; x ] ->
          ok := !ok + int_of_string o;
          wrong := !wrong + int_of_string w;
          failed := !failed + int_of_string f;
          nretries := !nretries + int_of_string r;
          extra := !extra + int_of_string x
      | _ -> fail "[%s] garbled client tally %S" label line)
    lines;
  let stats =
    match Service.client_stats ~protocol:Proto.V2 ~path () with
    | Ok s -> s
    | Error msg -> fail "[%s] stats query: %s" label msg
  in
  Service.client_shutdown ~path ();
  (match Unix.waitpid [] server with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "[%s] fleet supervisor did not exit cleanly" label);
  let total = load.fl_clients * load.fl_queries in
  if !wrong > 0 then fail "[%s] %d wrong verdicts out of %d queries" label !wrong total;
  if !failed > 0 then fail "[%s] %d exchanges exhausted their retry budget" label !failed;
  if !ok <> total then fail "[%s] %d ok replies, expected %d" label !ok total;
  let served = stats_num stats "queries_served" in
  if served <> !ok + !extra then
    fail "[%s] fleet served %d queries; clients account for %d (= %d ok + %d re-served)" label
      served (!ok + !extra) !ok !extra;
  if stats_num stats "errors" <> 0 then
    fail "[%s] fleet tallied %d errors on a clean run" label (stats_num stats "errors");
  if stats_num stats "injected_faults" <> 0 then
    fail "[%s] fleet injected %d faults with no schedule" label (stats_num stats "injected_faults");
  let hits = stats_sub stats "cache" "hits" and misses = stats_sub stats "cache" "misses" in
  if hits + misses <> served then
    fail "[%s] cache lookups %d != queries served %d" label (hits + misses) served;
  let wobj =
    match Jsonout.member "workers" stats with
    | Some w -> w
    | None -> fail "[%s] merged stats missing the workers object" label
  in
  if stats_num wobj "count" <> workers then
    fail "[%s] workers gauge says %d, fleet has %d" label (stats_num wobj "count") workers;
  let restarts = stats_num wobj "restarts" in
  if restarts <> 0 then fail "[%s] %d unexpected worker restarts" label restarts;
  (match Option.bind (Jsonout.member "fleet" wobj) Jsonout.to_list with
  | Some entries ->
      if List.length entries <> workers then
        fail "[%s] %d per-worker gauge rows, expected %d" label (List.length entries) workers;
      let sum = List.fold_left (fun acc e -> acc + stats_num e "served") 0 entries in
      if sum <> served then
        fail "[%s] per-worker served gauges sum to %d, fleet served %d" label sum served
  | None -> fail "[%s] workers object missing the fleet array" label);
  let qps = float_of_int total /. Float.max 1e-9 (t1 -. t0) in
  Printf.printf
    "load_gen: [%s] %d clients x %d queries: %.0f qps, served %d (%d ok + %d re-served), cache \
     %d/%d hit/miss\n"
    label load.fl_clients load.fl_queries qps served !ok !extra hits misses;
  {
    fr_sweep = sweep;
    fr_load = load;
    fr_workers = workers;
    fr_qps = qps;
    fr_served = served;
    fr_ok = !ok;
    fr_retries = !nretries;
    fr_extra = !extra;
    fr_hits = hits;
    fr_misses = misses;
    fr_restarts = restarts;
  }

let fleet_json rows =
  let num i = Jsonout.Num (float_of_int i) in
  Jsonout.Obj
    [
      ( "workload",
        Jsonout.Obj
          [
            ("clients", num !clients);
            ("queries", num !queries);
            ("batch", num !batch);
            ("seeds", num !seeds);
            ("cache", num !cache_capacity);
            ("n", num !inst_n);
            ("cores", num (Domain.recommended_domain_count ()));
          ] );
      ( "rows",
        Jsonout.List
          (List.map
             (fun r ->
               Jsonout.Obj
                 [
                   ( "name",
                     Jsonout.Str
                       (if r.fr_sweep = "capacity" then Printf.sprintf "fleet/w%d" r.fr_workers
                        else Printf.sprintf "fleet/%s/w%d" r.fr_sweep r.fr_workers) );
                   ("sweep", Jsonout.Str r.fr_sweep);
                   ("workers", num r.fr_workers);
                   ("clients", num r.fr_load.fl_clients);
                   ("queries", num r.fr_load.fl_queries);
                   ("cache", num r.fr_load.fl_cache);
                   ("qps", Jsonout.Num r.fr_qps);
                   ("served", num r.fr_served);
                   ("ok", num r.fr_ok);
                   ("retries", num r.fr_retries);
                   ("extra", num r.fr_extra);
                   ("wrong", num 0);
                   ("cache_hits", num r.fr_hits);
                   ("cache_misses", num r.fr_misses);
                   ("restarts", num r.fr_restarts);
                   ("reconciled", Jsonout.Bool true);
                 ])
             rows) );
    ]

(* Write the sweep's rows: injected as the "fleet" member of an existing
   tfree-bench/v1 document (the committed baseline keeps one document),
   or as a standalone tfree-fleet/v1 document. *)
let write_fleet_out file rows =
  let fleet = fleet_json rows in
  let doc =
    match
      if Sys.file_exists file then Jsonout.parse (In_channel.with_open_text file In_channel.input_all)
      else Error "absent"
    with
    | Ok (Jsonout.Obj fields)
      when Jsonout.member "schema" (Jsonout.Obj fields) = Some (Jsonout.Str "tfree-bench/v1") ->
        Jsonout.Obj (List.filter (fun (k, _) -> k <> "fleet") fields @ [ ("fleet", fleet) ])
    | _ -> Jsonout.Obj [ ("schema", Jsonout.Str "tfree-fleet/v1"); ("fleet", fleet) ]
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Jsonout.to_string ~indent:2 doc);
      Out_channel.output_char oc '\n');
  Printf.printf "load_gen: fleet rows written to %s\n" file

(* Both sweeps over 1, 2 and 4 workers, best of two measured runs per
   point: every run reconciles exactly on its own, so the extra run only
   filters one-off scheduler noise out of the wall-clock qps.  The
   capacity sweep is gated on exact miss counts (one worker rebuilds on
   every lookup, a fleet builds each distinct instance once); the parallel
   sweep builds each instance once at every W, and W workers must beat one
   on qps wherever the machine has the cores to run them at once. *)
let run_fleet_sweep ~expected ~stem =
  if !seeds <= !cache_capacity then
    fail "the capacity sweep needs --seeds (%d) past --cache (%d) for one worker to thrash" !seeds
      !cache_capacity;
  let sweep name load =
    List.map
      (fun w ->
        let run i =
          run_fleet_load ~sweep:name ~load:(load w) ~workers:w ~expected
            ~path:(Printf.sprintf "%s.%c%d.r%d" stem name.[0] w i)
        in
        let a = run 0 and b = run 1 in
        if b.fr_qps > a.fr_qps then b else a)
      [ 1; 2; 4 ]
  in
  let capacity = sweep "capacity" (fun _ -> capacity_load ()) in
  let parallel = sweep "parallel" (fun w -> parallel_load ~workers:w) in
  let row rows w = List.find (fun r -> r.fr_workers = w) rows in
  let total = !clients * !queries in
  List.iter
    (fun r ->
      let want = if r.fr_workers = 1 then total else !seeds in
      if r.fr_misses <> want then
        fail "fleet capacity w%d: %d cache misses, expected exactly %d" r.fr_workers r.fr_misses want)
    capacity;
  List.iter
    (fun r ->
      if r.fr_misses <> !seeds then
        fail "fleet parallel w%d: %d cache misses at equal total capacity, expected exactly %d"
          r.fr_workers r.fr_misses !seeds)
    parallel;
  let qps rows w = (row rows w).fr_qps in
  Printf.printf "load_gen: fleet capacity misses  w1 %d  w2 %d  w4 %d\n" (row capacity 1).fr_misses
    (row capacity 2).fr_misses (row capacity 4).fr_misses;
  Printf.printf "load_gen: fleet parallel qps  w1 %.0f  w2 %.0f  w4 %.0f (%d cores)\n" (qps parallel 1)
    (qps parallel 2) (qps parallel 4) (Domain.recommended_domain_count ());
  if Domain.recommended_domain_count () >= 2 then
    List.iter
      (fun w ->
        if qps parallel w <= qps parallel 1 then
          fail "parallel fleet of %d (%.0f qps) does not beat one worker (%.0f qps)" w
            (qps parallel w) (qps parallel 1))
      [ 2; 4 ]
  else print_endline "load_gen: one core: the parallel qps gate needs at least two";
  if !fleet_out <> "" then write_fleet_out !fleet_out (capacity @ parallel)

let () =
  Arg.parse specs (fun a -> fail "unexpected argument %S" a) usage;
  if !clients < 1 || !queries < 1 || !batch < 1 || !seeds < 1 then
    fail "--clients, --queries, --batch and --seeds must be positive";
  if !queries mod !batch <> 0 then
    fail "--queries (%d) must be a multiple of --batch (%d)" !queries !batch;
  if !clients > !max_clients then
    fail "--clients (%d) beyond --max-clients (%d) would shed; raise the cap" !clients !max_clients;
  let prefs =
    match !protocol_mode with
    | "v1" -> [ Proto.V1 ]
    | "v2" -> [ Proto.V2 ]
    | "both" -> [ Proto.V1; Proto.V2 ]
    | p -> fail "bad --protocol %S (expected v1, v2 or both)" p
  in
  let fault =
    match Fault.parse !fault_spec with
    | Ok s -> s
    | Error msg -> fail "bad --fault spec: %s" msg
  in
  let stem =
    if !socket_path <> "" then !socket_path
    else
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "tfree-load-%d.sock" (Unix.getpid ()))
  in
  (* expected replies, computed locally before any forking *)
  let expected_arr =
    Array.init !seeds (fun i -> Service.run_request (request_for (1 + i)))
  in
  let expected seed = expected_arr.(seed - 1) in
  if !fleet_sweep || !workers > 0 then begin
    (* Fleet runs are clean-path throughput measurements: the fault
       schedule targets a single server's reply stream and would make
       the per-worker op indices racy across a fleet. *)
    if !fault_spec <> "" then
      fail "--fleet/--workers measure the clean path; drop --fault (%S)" !fault_spec;
    if !fleet_sweep then run_fleet_sweep ~expected ~stem
    else begin
      let row =
        run_fleet_load ~sweep:"capacity" ~load:(capacity_load ()) ~workers:!workers ~expected
          ~path:stem
      in
      if !fleet_out <> "" then write_fleet_out !fleet_out [ row ]
    end;
    print_endline "load_gen: ok";
    exit 0
  end;
  let summaries =
    List.map
      (fun pref ->
        let path =
          if List.length prefs = 1 then stem
          else stem ^ "." ^ Proto.pref_to_string pref
        in
        run_load ~pref ~fault ~expected ~path)
      prefs
  in
  (match summaries with
  | [ s1; s2 ] ->
      Printf.printf
        "load_gen: side by side  bytes/query framed %s %.1f vs %s %.1f | payload %.1f vs %.1f | us/query %.1f vs %.1f\n"
        s1.label s1.framed_per_query s2.label s2.framed_per_query s1.payload_per_query
        s2.payload_per_query s1.us_per_query s2.us_per_query;
      if s2.framed_per_query >= s1.framed_per_query then
        fail "v2 framed bytes/query %.1f is not below v1's %.1f" s2.framed_per_query
          s1.framed_per_query;
      if s2.payload_per_query >= s1.payload_per_query then
        fail "v2 payload bytes/query %.1f is not below v1's %.1f" s2.payload_per_query
          s1.payload_per_query
  | _ -> ());
  print_endline "load_gen: ok"
