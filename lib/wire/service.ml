(* tfree-serve — a query service over Unix-domain sockets.

   A query names an instance — generated from a family and size
   parameters, or a registered dataset by name — plus an edge partition
   and a protocol (the same enums the tfree CLI exposes); the server
   builds or loads the instance, runs the protocol through a
   {!Wire_runtime} network — so every charged message crosses a real
   transport — and replies with the verdict, the accounted bits and the
   measured wire traffic, reconciled.

   Every request travels one path, whichever wire protocol carried it.
   A JSON v1 line ({!op_of_line}) and a binary v2 frame ({!op_of_frame})
   decode into the same [op]: a query ({!query}: [Generated] or
   [Dataset]), a batch of generated queries, stats, health or shutdown.
   One dispatcher ({!dispatch}) serves the op into a [reply], which the
   connection's codec encodes ({!reply_to_json}, {!encode_reply_frame});
   one {!run_core} records, classifies and runs every query; one
   {!query_pair} looks its instance up.  The client encodes the same
   [op] and decodes either codec's answer back into a [reply].

   [{"cmd": "shutdown"}] stops the server after the acknowledgement is
   written.  [{"op": "stats"}] returns the server's telemetry
   ({!Metrics}); [{"op": "health"}] its O(1) liveness scalars.
   [{"op": "batch", "requests": [...]}] runs many queries over one framed
   exchange and returns per-item verdicts in order.

   The server is a single-threaded poll event loop: every open connection
   owns a read buffer and a per-line deadline, so a slow, silent or
   chaos-faulted client costs at most its own connection while the loop
   keeps serving everyone else.  Admission is bounded by [max_clients]; a
   connection over the cap is shed with a typed [overload]-category
   error, never a hang.  Instances and partitions are memoized in a
   bounded {!Tfree_util.Lru} keyed by the query fields that determine
   them.

   The server is built to degrade, never die: malformed requests get a
   structured [{"ok": false, "error": ..., "category": ...}] reply and the
   connection stays usable; a client killed mid-line, a half-written
   request, a reply write into a closed socket, or a silent client holding
   the line past the read deadline each cost one categorized error counter
   and at worst that one connection.  SIGPIPE is ignored for the same
   reason — a dead peer must surface as an [EPIPE] result, not a signal.

   The client side mirrors this with a bounded retry: transient failures
   (connection refused, timeouts, garbled or truncated replies, server
   errors in the timeout/transport/overload categories) back off
   exponentially with deterministic jitter and try again; structured
   server rejections (malformed request, unknown op) are fatal
   immediately. *)

open Tfree_util
open Tfree_graph
module Phase = Tfree_obs.Phase
module Mono = Tfree_obs.Mono
module Logger = Tfree_obs.Logger
module Prom = Tfree_obs.Prom
module Trace = Tfree_trace.Trace
module Registry = Tfree_dataset.Registry

(* ------------------------------------------------------ the CLI's enums *)

type family = Far | Free | Hub | Mu | Gnp | Behrend | Diluted
type partition_kind = Disjoint | Dup | Replicate | Skewed | Hash
type protocol = Unrestricted | Sim | Oblivious | Exact

let family_to_string = function
  | Far -> "far"
  | Free -> "free"
  | Hub -> "hub"
  | Mu -> "mu"
  | Gnp -> "gnp"
  | Behrend -> "behrend"
  | Diluted -> "diluted"

let family_of_string = function
  | "far" -> Some Far
  | "free" -> Some Free
  | "hub" -> Some Hub
  | "mu" -> Some Mu
  | "gnp" -> Some Gnp
  | "behrend" -> Some Behrend
  | "diluted" -> Some Diluted
  | _ -> None

let partition_to_string = function
  | Disjoint -> "disjoint"
  | Dup -> "dup"
  | Replicate -> "replicate"
  | Skewed -> "skewed"
  | Hash -> "hash"

let partition_of_string = function
  | "disjoint" -> Some Disjoint
  | "dup" -> Some Dup
  | "replicate" -> Some Replicate
  | "skewed" -> Some Skewed
  | "hash" -> Some Hash
  | _ -> None

let protocol_to_string = function
  | Unrestricted -> "unrestricted"
  | Sim -> "sim"
  | Oblivious -> "oblivious"
  | Exact -> "exact"

let protocol_of_string = function
  | "unrestricted" -> Some Unrestricted
  | "sim" -> Some Sim
  | "oblivious" -> Some Oblivious
  | "exact" -> Some Exact
  | _ -> None

(* ------------------------------------------------------------- builders *)

let build_instance family rng ~n ~d ~eps =
  match family with
  | Far -> Gen.far_with_degree rng ~n ~d ~eps
  | Free -> Gen.free_with_degree rng ~n ~d
  | Hub ->
      Gen.hub_far rng ~n ~hubs:(max 1 (n / 400))
        ~pairs:(max 1 (int_of_float (eps *. float_of_int n *. d /. 2.0)))
  | Mu -> Tfree_lowerbound.Mu_dist.sample rng ~part:(n / 3) ~gamma:2.0
  | Gnp -> Gen.gnp rng ~n ~p:(Float.min 1.0 (d /. float_of_int n))
  | Behrend ->
      (* pick digits/base so 6·(2·base)^digits is near n *)
      let base = max 2 (int_of_float (sqrt (float_of_int n /. 24.0))) in
      (Behrend.instance ~rng ~base ~digits:2 ()).Behrend.graph
  | Diluted ->
      let extra = max 1 (int_of_float (1.0 /. (3.0 *. eps)) - 1) in
      let triangles = max 1 (n / (3 * (1 + extra))) in
      Gen.diluted_far rng ~triangles ~extra_degree:extra

let build_partition kind rng ~k g =
  match kind with
  | Disjoint -> Partition.disjoint_random rng ~k g
  | Dup -> Partition.with_duplication rng ~k ~dup_p:0.3 g
  | Replicate -> Partition.replicate ~k g
  | Skewed -> Partition.skewed rng ~k ~bias:0.8 g
  | Hash -> Partition.by_endpoint_hash rng ~k g

(* -------------------------------------------------------------- queries *)

type request = {
  family : family;
  partition : partition_kind;
  protocol : protocol;
  n : int;
  d : float;
  k : int;
  eps : float;
  seed : int;
  transport : Wire_runtime.kind;
  fault : string;  (** {!Fault.parse} spec injected below the framing; [""] = none *)
}

let default_request =
  {
    family = Far;
    partition = Dup;
    protocol = Oblivious;
    n = 300;
    d = 6.0;
    k = 4;
    eps = 0.1;
    seed = 1;
    transport = Wire_runtime.Pipe;
    fault = "";
  }

type response = {
  verdict : Tfree.Tester.verdict;
  bits : int;
  rounds : int;
  max_message : int;
  wire : Wire_runtime.report;
}

(* A [{"op": "dataset"}] query: the same protocol/partition/k/eps/seed
   vocabulary as a generated request, but the graph comes from the server's
   dataset registry by name — family/n/d have no say. *)
type dataset_request = {
  ds_name : string;
  ds_partition : partition_kind;
  ds_protocol : protocol;
  ds_k : int;
  ds_eps : float;
  ds_seed : int;
  ds_transport : Wire_runtime.kind;
  ds_fault : string;
}

let default_dataset_request ~name =
  {
    ds_name = name;
    ds_partition = Dup;
    ds_protocol = Oblivious;
    ds_k = 4;
    ds_eps = 0.1;
    ds_seed = 1;
    ds_transport = Wire_runtime.Pipe;
    ds_fault = "";
  }

type query = Generated of request | Dataset of dataset_request

(* The vocabulary both arms share: how the instance is partitioned and
   queried. *)
let protocol_of = function Generated r -> r.protocol | Dataset d -> d.ds_protocol
let partition_of = function Generated r -> r.partition | Dataset d -> d.ds_partition
let k_of = function Generated r -> r.k | Dataset d -> d.ds_k
let eps_of = function Generated r -> r.eps | Dataset d -> d.ds_eps
let seed_of = function Generated r -> r.seed | Dataset d -> d.ds_seed
let transport_of = function Generated r -> r.transport | Dataset d -> d.ds_transport
let fault_of = function Generated r -> r.fault | Dataset d -> d.ds_fault

(* The arm a decoder asked for; the typed entry points below use these to
   narrow a [query] they built themselves. *)
let as_generated = function
  | Generated r -> r
  | Dataset _ -> invalid_arg "Service: not a generated query"

let as_dataset = function
  | Dataset d -> d
  | Generated _ -> invalid_arg "Service: not a dataset query"

(* ----------------------------------------------------------------- JSON *)

let request_to_json r =
  Jsonout.Obj
    [
      ("family", Jsonout.Str (family_to_string r.family));
      ("partition", Jsonout.Str (partition_to_string r.partition));
      ("protocol", Jsonout.Str (protocol_to_string r.protocol));
      ("n", Jsonout.Num (float_of_int r.n));
      ("d", Jsonout.Num r.d);
      ("k", Jsonout.Num (float_of_int r.k));
      ("eps", Jsonout.Num r.eps);
      ("seed", Jsonout.Num (float_of_int r.seed));
      ("transport", Jsonout.Str (Wire_runtime.kind_to_string r.transport));
      ("fault", Jsonout.Str r.fault);
    ]

let dataset_request_to_json r =
  Jsonout.Obj
    [
      ("op", Jsonout.Str "dataset");
      ("name", Jsonout.Str r.ds_name);
      ("partition", Jsonout.Str (partition_to_string r.ds_partition));
      ("protocol", Jsonout.Str (protocol_to_string r.ds_protocol));
      ("k", Jsonout.Num (float_of_int r.ds_k));
      ("eps", Jsonout.Num r.ds_eps);
      ("seed", Jsonout.Num (float_of_int r.ds_seed));
      ("transport", Jsonout.Str (Wire_runtime.kind_to_string r.ds_transport));
      ("fault", Jsonout.Str r.ds_fault);
    ]

exception Bad of string

let num_field j k default =
  match Jsonout.member k j with
  | None -> default
  | Some v -> (
      match Jsonout.to_float v with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "field %S must be a number" k)))

let int_field j k default = int_of_float (num_field j k (float_of_int default))

let str_field j k default =
  match Jsonout.member k j with
  | None -> default
  | Some (Jsonout.Str s) -> s
  | Some _ -> raise (Bad (Printf.sprintf "field %S must be a string" k))

let enum_field j k of_string default =
  match Jsonout.member k j with
  | None -> default
  | Some (Jsonout.Str s) -> (
      match of_string s with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "unknown %s %S" k s)))
  | Some _ -> raise (Bad (Printf.sprintf "field %S must be a string" k))

(* A fault spec is validated when its request decodes, so a served run
   never meets a bad one.  [""] skips the parse on the hot path. *)
let checked_fault spec =
  if spec = "" then spec
  else
    match Fault.parse spec with
    | Ok _ -> spec
    | Error msg -> raise (Bad (Printf.sprintf "bad fault spec: %s" msg))

let make_query ~dataset ~name ~family ~partition ~protocol ~n ~d ~k ~eps ~seed ~transport ~fault =
  if dataset then
    Dataset
      {
        ds_name = name;
        ds_partition = partition;
        ds_protocol = protocol;
        ds_k = k;
        ds_eps = eps;
        ds_seed = seed;
        ds_transport = transport;
        ds_fault = fault;
      }
  else Generated { family; partition; protocol; n; d; k; eps; seed; transport; fault }

(* One JSON object to a query of the asked-for arm; a missing field takes
   its default, a dataset [name] is required.  The fields are read in the
   order that decides which of several bad fields is reported. *)
let query_of_json ~dataset j =
  try
    let name =
      if not dataset then ""
      else
        match Jsonout.member "name" j with
        | Some (Jsonout.Str "") -> raise (Bad "dataset name must be non-empty")
        | Some (Jsonout.Str s) -> s
        | Some _ -> raise (Bad "field \"name\" must be a string")
        | None -> raise (Bad "dataset request without a \"name\"")
    in
    let r = default_request in
    let fault = checked_fault (str_field j "fault" r.fault) in
    let transport = enum_field j "transport" Wire_runtime.kind_of_string r.transport in
    let seed = int_field j "seed" r.seed in
    let eps = num_field j "eps" r.eps in
    let k = int_field j "k" r.k in
    let d = if dataset then r.d else num_field j "d" r.d in
    let n = if dataset then r.n else int_field j "n" r.n in
    let protocol = enum_field j "protocol" protocol_of_string r.protocol in
    let partition = enum_field j "partition" partition_of_string r.partition in
    let family = if dataset then r.family else enum_field j "family" family_of_string r.family in
    Ok
      (make_query ~dataset ~name ~family ~partition ~protocol ~n ~d ~k ~eps ~seed ~transport
         ~fault)
  with Bad msg -> Error msg

let request_of_json j = Result.map as_generated (query_of_json ~dataset:false j)
let dataset_request_of_json j = Result.map as_dataset (query_of_json ~dataset:true j)

let response_to_json r =
  let verdict_fields =
    match r.verdict with
    | Tfree.Tester.Triangle (a, b, c) ->
        [
          ("verdict", Jsonout.Str "triangle");
          ( "witness",
            Jsonout.List
              [
                Jsonout.Num (float_of_int a); Jsonout.Num (float_of_int b);
                Jsonout.Num (float_of_int c);
              ] );
        ]
    | Tfree.Tester.Triangle_free -> [ ("verdict", Jsonout.Str "triangle-free") ]
  in
  let w = r.wire in
  Jsonout.Obj
    (("ok", Jsonout.Bool true)
     :: verdict_fields
    @ [
        ("bits", Jsonout.Num (float_of_int r.bits));
        ("rounds", Jsonout.Num (float_of_int r.rounds));
        ("max_message", Jsonout.Num (float_of_int r.max_message));
        ("wire_bytes", Jsonout.Num (float_of_int w.Wire_runtime.wire_bytes));
        ("frames", Jsonout.Num (float_of_int w.Wire_runtime.frames));
        ("payload_bits", Jsonout.Num (float_of_int w.Wire_runtime.payload_bits));
        ("framing_overhead_bits", Jsonout.Num (float_of_int w.Wire_runtime.framing_overhead_bits));
        ("accounted_bits", Jsonout.Num (float_of_int w.Wire_runtime.accounted_bits));
        ("ratio", Jsonout.Num w.Wire_runtime.ratio);
        ("reconciled", Jsonout.Bool (Wire_runtime.reconciles w));
      ])

let response_of_json j =
  try
    (match Jsonout.member "ok" j with
    | Some (Jsonout.Bool true) -> ()
    | _ ->
        let msg =
          match Jsonout.member "error" j with Some (Jsonout.Str s) -> s | _ -> "server error"
        in
        raise (Bad msg));
    let verdict =
      match Jsonout.member "verdict" j with
      | Some (Jsonout.Str "triangle-free") -> Tfree.Tester.Triangle_free
      | Some (Jsonout.Str "triangle") -> (
          match Jsonout.member "witness" j with
          | Some (Jsonout.List [ a; b; c ]) ->
              let v x =
                match Jsonout.to_float x with
                | Some f -> int_of_float f
                | None -> raise (Bad "witness must be three vertices")
              in
              Tfree.Tester.Triangle (v a, v b, v c)
          | _ -> raise (Bad "triangle verdict without witness"))
      | _ -> raise (Bad "missing verdict")
    in
    let i k = int_field j k 0 in
    Ok
      {
        verdict;
        bits = i "bits";
        rounds = i "rounds";
        max_message = i "max_message";
        wire =
          {
            Wire_runtime.wire_bytes = i "wire_bytes";
            frames = i "frames";
            payload_bits = i "payload_bits";
            framing_overhead_bits = i "framing_overhead_bits";
            accounted_bits = i "accounted_bits";
            ratio = num_field j "ratio" 0.0;
          };
      }
  with Bad msg -> Error msg

let error_obj ~category msg =
  Jsonout.Obj
    [
      ("ok", Jsonout.Bool false);
      ("error", Jsonout.Str msg);
      ("category", Jsonout.Str (Metrics.category_name category));
    ]

let error_line ~category msg = Jsonout.to_line (error_obj ~category msg)

(* A structured [{"ok": false}] reply as its category and message; a
   missing or unknown category reads as a run failure. *)
let json_error j =
  let msg = match Jsonout.member "error" j with Some (Jsonout.Str s) -> s | _ -> "server error" in
  let category =
    match Jsonout.member "category" j with
    | Some (Jsonout.Str c) -> Metrics.category_of_name c
    | _ -> None
  in
  (Option.value ~default:Metrics.Run_failure category, msg)

let batch_request_to_json reqs =
  Jsonout.Obj
    [ ("op", Jsonout.Str "batch"); ("requests", Jsonout.List (List.map request_to_json reqs)) ]

(* ------------------------------------------- binary protocol v2 layout *)

(* Protocol v2 carries the same request/reply/batch/stats shapes as the
   JSON lines, as fixed binary layouts inside {!Proto} frames (varint
   length prefix + body + 2-byte checksum).  One tag byte opens every
   body; integers travel as zigzag varints, floats as little-endian
   binary64, strings as varint-length-prefixed bytes.  The layouts are
   fixed — unknown tags and trailing bytes are typed errors, not
   extensions — because a byte stream cannot resync on guesswork.

   Encoding pokes bytes into a caller-owned {!Proto.buf} and decoding
   reads scalars out of a caller-owned {!Proto.cursor}, so the serve hot
   path allocates little per query beyond the decoded request record
   itself (the micro benchmark holds this to a [Gc.minor_words] budget).

   Structural failures (bytes missing, varint overflow) raise the typed
   {!Wire_error.Wire_error}; semantic ones (enum code out of range, bad
   fault spec) return [Error msg] so the server can answer a malformed
   frame the way it answers a malformed line — typed reply, connection
   kept. *)

let tag_query = 1
let tag_reply = 2
let tag_error = 3
let tag_batch = 4
let tag_batch_reply = 5
let tag_stats = 6
let tag_stats_reply = 7
let tag_shutdown = 8
let tag_bye = 9
let tag_dataset = 10
let tag_health = 11
let tag_health_reply = 12

(* enum codes: stable on the wire, dense for a match-based decode *)

let family_code = function
  | Far -> 0
  | Free -> 1
  | Hub -> 2
  | Mu -> 3
  | Gnp -> 4
  | Behrend -> 5
  | Diluted -> 6

let family_of_code = function
  | 0 -> Some Far
  | 1 -> Some Free
  | 2 -> Some Hub
  | 3 -> Some Mu
  | 4 -> Some Gnp
  | 5 -> Some Behrend
  | 6 -> Some Diluted
  | _ -> None

let partition_code = function Disjoint -> 0 | Dup -> 1 | Replicate -> 2 | Skewed -> 3 | Hash -> 4

let partition_of_code = function
  | 0 -> Some Disjoint
  | 1 -> Some Dup
  | 2 -> Some Replicate
  | 3 -> Some Skewed
  | 4 -> Some Hash
  | _ -> None

let protocol_code = function Unrestricted -> 0 | Sim -> 1 | Oblivious -> 2 | Exact -> 3

let protocol_of_code = function
  | 0 -> Some Unrestricted
  | 1 -> Some Sim
  | 2 -> Some Oblivious
  | 3 -> Some Exact
  | _ -> None

let transport_code = function Wire_runtime.Pipe -> 0 | Wire_runtime.Socketpair -> 1

let transport_of_code = function
  | 0 -> Some Wire_runtime.Pipe
  | 1 -> Some Wire_runtime.Socketpair
  | _ -> None

(* error categories travel as their index in {!Metrics.all_categories} *)

let category_code category =
  let rec go i = function [] -> 0 | c :: rest -> if c = category then i else go (i + 1) rest in
  go 0 Metrics.all_categories

let category_of_code i =
  match List.nth_opt Metrics.all_categories i with Some c -> c | None -> Metrics.Run_failure

(* A generated query body: 4 enum bytes, 3 zigzag ints (n, k, seed), 2 f64
   (d, eps), the fault spec.  A dataset body: the registered name, 3 enum
   bytes, 2 zigzag ints (k, seed), 1 f64 (eps), the fault spec. *)
let put_query b q =
  (match q with
  | Generated r -> Proto.put_u8 b (family_code r.family)
  | Dataset d -> Proto.put_string b d.ds_name);
  Proto.put_u8 b (partition_code (partition_of q));
  Proto.put_u8 b (protocol_code (protocol_of q));
  Proto.put_u8 b (transport_code (transport_of q));
  (match q with Generated r -> Proto.put_zigzag b r.n | Dataset _ -> ());
  Proto.put_zigzag b (k_of q);
  Proto.put_zigzag b (seed_of q);
  (match q with Generated r -> Proto.put_f64 b r.d | Dataset _ -> ());
  Proto.put_f64 b (eps_of q);
  Proto.put_string b (fault_of q)

(* Smallest generated query body: four enum bytes, three one-byte varints,
   two floats and an empty fault string — what bounds a batch count. *)
let min_query_bytes = 24

let code what of_code c =
  match of_code c with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "unknown %s code %d" what c))

(* Structural reads happen unconditionally (a failure raises and fails the
   whole frame); the semantic checks return [Error] so a bad enum code or
   fault spec is a per-request malformed reply, exactly like its JSON
   twin. *)
let decode_query ~dataset cur =
  let name = if dataset then Proto.get_string cur else "" in
  let family_c = if dataset then 0 else Proto.get_u8 cur in
  let partition_c = Proto.get_u8 cur in
  let protocol_c = Proto.get_u8 cur in
  let transport_c = Proto.get_u8 cur in
  let n = if dataset then 0 else Proto.get_zigzag cur in
  let k = Proto.get_zigzag cur in
  let seed = Proto.get_zigzag cur in
  let d = if dataset then 0.0 else Proto.get_f64 cur in
  let eps = Proto.get_f64 cur in
  let fault = Proto.get_string cur in
  try
    if dataset && name = "" then raise (Bad "dataset name must be non-empty");
    let family = code "family" family_of_code family_c in
    let partition = code "partition" partition_of_code partition_c in
    let protocol = code "protocol" protocol_of_code protocol_c in
    let transport = code "transport" transport_of_code transport_c in
    let fault = checked_fault fault in
    Ok
      (make_query ~dataset ~name ~family ~partition ~protocol ~n ~d ~k ~eps ~seed ~transport
         ~fault)
  with Bad msg -> Error msg

let decode_request_body cur = Result.map as_generated (decode_query ~dataset:false cur)
let decode_dataset_request_body cur = Result.map as_dataset (decode_query ~dataset:true cur)

(* reply body: verdict (+ witness), the counters, the reconciled wire report *)
let put_response b r =
  (match r.verdict with
  | Tfree.Tester.Triangle_free -> Proto.put_u8 b 0
  | Tfree.Tester.Triangle (x, y, z) ->
      Proto.put_u8 b 1;
      Proto.put_zigzag b x;
      Proto.put_zigzag b y;
      Proto.put_zigzag b z);
  Proto.put_zigzag b r.bits;
  Proto.put_zigzag b r.rounds;
  Proto.put_zigzag b r.max_message;
  let w = r.wire in
  Proto.put_zigzag b w.Wire_runtime.wire_bytes;
  Proto.put_zigzag b w.Wire_runtime.frames;
  Proto.put_zigzag b w.Wire_runtime.payload_bits;
  Proto.put_zigzag b w.Wire_runtime.framing_overhead_bits;
  Proto.put_zigzag b w.Wire_runtime.accounted_bits;
  Proto.put_f64 b w.Wire_runtime.ratio

let decode_response_body cur =
  let verdict =
    match Proto.get_u8 cur with
    | 0 -> Tfree.Tester.Triangle_free
    | 1 ->
        let x = Proto.get_zigzag cur in
        let y = Proto.get_zigzag cur in
        let z = Proto.get_zigzag cur in
        Tfree.Tester.Triangle (x, y, z)
    | v -> Wire_error.errorf_corrupt "unknown verdict code %d" v
  in
  let bits = Proto.get_zigzag cur in
  let rounds = Proto.get_zigzag cur in
  let max_message = Proto.get_zigzag cur in
  let wire_bytes = Proto.get_zigzag cur in
  let frames = Proto.get_zigzag cur in
  let payload_bits = Proto.get_zigzag cur in
  let framing_overhead_bits = Proto.get_zigzag cur in
  let accounted_bits = Proto.get_zigzag cur in
  let ratio = Proto.get_f64 cur in
  {
    verdict;
    bits;
    rounds;
    max_message;
    wire =
      {
        Wire_runtime.wire_bytes;
        frames;
        payload_bits;
        framing_overhead_bits;
        accounted_bits;
        ratio;
      };
  }

(* ------------------------------------------------- the instance cache *)

(* The fields of a query that determine the instance and its partition —
   and nothing else.  Protocol, transport and fault spec are deliberately
   absent: two queries that differ only in how the instance is *queried*
   share the cached build.  A dataset-backed instance is keyed by its
   registered name instead of the generator fields.  Correctness of sharing
   rests on the graph and the partition being derived from independent
   seed-determined streams ({!graph_rng}/{!partition_rng}) and the protocol
   run seeding itself off a fresh [~seed], so a cache hit is bit-identical
   to a rebuild. *)
type instance_key =
  | Key_generated of {
      key_family : family;
      key_partition : partition_kind;
      key_n : int;
      key_d : float;
      key_k : int;
      key_eps : float;
      key_seed : int;
    }
  | Key_dataset of {
      key_name : string;
      key_ds_partition : partition_kind;
      key_ds_k : int;
      key_ds_seed : int;
    }

type instance_cache = (instance_key, Graph.t * Partition.t) Lru.t

let create_cache ?(capacity = 32) () : instance_cache = Lru.create capacity

let key_of_query = function
  | Generated r ->
      Key_generated
        {
          key_family = r.family;
          key_partition = r.partition;
          key_n = r.n;
          key_d = r.d;
          key_k = r.k;
          key_eps = r.eps;
          key_seed = r.seed;
        }
  | Dataset d ->
      Key_dataset
        {
          key_name = d.ds_name;
          key_ds_partition = d.ds_partition;
          key_ds_k = d.ds_k;
          key_ds_seed = d.ds_seed;
        }

let key_of_request r = key_of_query (Generated r)
let key_of_dataset_request d = key_of_query (Dataset d)

(* ------------------------------------------------------- fleet sharding *)

(* Where a fleet routes a key: FNV-1a over a canonical rendering of every
   field of the instance key.  Deliberately *not* [Hashtbl.hash]: the
   shard of a key must agree across processes, builds and runs — the
   client picks the worker socket from it, and the worker's cache
   hit-rate rests on the agreement.  Floats render in hex ([%h]) so the
   encoding is exact, and the two key arms get distinct prefixes so a
   generated key can never collide with a dataset key by rendering. *)
let shard_key key =
  let canonical =
    match key with
    | Key_generated k ->
        Printf.sprintf "g|%s|%s|%d|%h|%d|%h|%d"
          (family_to_string k.key_family)
          (partition_to_string k.key_partition)
          k.key_n k.key_d k.key_k k.key_eps k.key_seed
    | Key_dataset k ->
        Printf.sprintf "d|%s|%s|%d|%d" k.key_name
          (partition_to_string k.key_ds_partition)
          k.key_ds_k k.key_ds_seed
  in
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) canonical;
  (* xor-fold the high half in, then drop to 30 bits so the result is a
     nonnegative immediate int on every platform *)
  (!h lxor (!h lsr 16)) land 0x3FFFFFFF

let shard_of_key ~workers key = if workers <= 1 then 0 else shard_key key mod workers
let shard_of_request ~workers r = shard_of_key ~workers (key_of_request r)
let shard_of_dataset_request ~workers d = shard_of_key ~workers (key_of_dataset_request d)

(* The shard socket of fleet worker [i] under a fleet at [path]. *)
let worker_path ~path i = Printf.sprintf "%s.w%d" path i

(* The graph and the partition come from *independent* seed-determined
   streams.  This is what lets a dataset-backed query (whose graph comes
   off disk, consuming no randomness) partition identically to the
   generated query of the same seed — the byte-identical-replies
   guarantee the dataset tests pin down. *)
let graph_rng seed = Rng.create seed
let partition_rng seed = Rng.create (seed lxor 0x7ea5eed)

(* Build a query's instance: a generated graph from {!graph_rng}, or the
   registry's memoized load (shared across every connection of the
   daemon); the partition always from {!partition_rng}. *)
let build_pair ?registry q =
  let g =
    match (q, registry) with
    | Generated r, _ -> build_instance r.family (graph_rng r.seed) ~n:r.n ~d:r.d ~eps:r.eps
    | Dataset d, Some reg -> Registry.graph reg d.ds_name
    | Dataset _, None -> invalid_arg "Service: a dataset query needs a registry"
  in
  (g, build_partition (partition_of q) (partition_rng (seed_of q)) ~k:(k_of q) g)

(* The cached instance/partition pair for [q], built on a miss.  Each call
   is one counted lookup; [metrics] mirrors the hit/miss into the server
   registry so [{"op": "stats"}] can report it. *)
let query_pair ?cache ?metrics ?registry q =
  match cache with
  | None -> build_pair ?registry q
  | Some c ->
      let key = key_of_query q in
      let hit = Lru.mem c key in
      (match metrics with Some m -> Metrics.record_cache m ~hit | None -> ());
      Lru.find_or_add c key (fun () -> build_pair ?registry q)

let instance_pair ?cache ?metrics r = query_pair ?cache ?metrics (Generated r)
let dataset_pair ?cache ?metrics ~registry d = query_pair ?cache ?metrics ~registry (Dataset d)

(* -------------------------------------------------- serve observability *)

(* Ambient per-request observation state.  The serve event loop is
   single-threaded, so one module-level scratch is data-race free; the
   in-process callers (tests, experiments) simply leave tracing and the
   slow-query log off, and still get per-phase histograms through
   [metrics].  [trace] is [Some] only while the loop is handling a
   sampled request unit: it routes protocol messages into the sampled
   timeline and turns the phase timers into {!Trace.span}s. *)
module Obs_ctx = struct
  (* per-phase durations (µs) of the request being handled, for the
     slow-query log's latency breakdown *)
  let scratch = Array.make Phase.count nan

  (* the sampled-request collector, set around a sampled unit *)
  let trace : Trace.t option ref = ref None

  (* accounted bits of every traced run, the trace file's otherData
     reconciliation figure *)
  let traced_bits = ref 0

  (* slow-query log: threshold (µs, on the run phase) and sink *)
  let slow : (float * Logger.t) option ref = ref None
end

(* Time [f] as serve phase [phase]: one histogram sample into [metrics],
   the duration into the slow-query scratch, and — while a sampled trace
   is active — a {!Trace.span} in the request timeline.  Records only
   when [f] returns (an aborted phase is not a completed phase), which is
   what keeps phase counts consistent with served counts. *)
let timed_phase ~metrics phase f =
  let t0 = Mono.now_us () in
  let r =
    match !Obs_ctx.trace with
    | Some _ -> Trace.span (Phase.name phase) f
    | None -> f ()
  in
  let dt = Mono.now_us () -. t0 in
  Metrics.record_phase metrics ~phase ~us:dt;
  Obs_ctx.scratch.(Phase.index phase) <- dt;
  r

(* Emit one slow-query line when the run phase of the query just served
   crossed the threshold: the request key [fields] plus the latency
   breakdown the scratch holds. *)
let maybe_slow_query ~latency_us fields =
  match !Obs_ctx.slow with
  | Some (threshold_us, logger) ->
      let run_us = Obs_ctx.scratch.(Phase.index Phase.Run) in
      if run_us >= threshold_us then
        Logger.log logger Logger.Warn "slow_query"
          (fields
          @ [
              ("run_us", Jsonout.Num run_us);
              ("cache_lookup_us", Jsonout.Num Obs_ctx.scratch.(Phase.index Phase.Cache_lookup));
              ("latency_us", Jsonout.Num latency_us);
            ])
  | None -> ()

(* ---------------------------------------------------------- run a query *)

(* The protocol run itself: a fresh wire network under the query's fault
   schedule, the query's protocol over [inputs], the reconciled report.
   [trace] additionally routes every protocol message into a sampled
   request timeline (composed before the wire tap, so the ledger the wire
   reconciles against is untouched).  The network is closed even when an
   injected fault aborts the run, so a chaos loop cannot leak
   descriptors. *)
let run_protocol ?trace ~fault q g inputs =
  let net = Wire_runtime.create ~fault ~transport:(transport_of q) ~k:(k_of q) () in
  Fun.protect
    ~finally:(fun () -> Wire_runtime.close net)
    (fun () ->
      let tap =
        match trace with
        | None -> Wire_runtime.tap net
        | Some tr -> Tfree_comm.Channel.compose_all [ Trace.tap tr; Wire_runtime.tap net ]
      in
      let seed = seed_of q in
      let params = Tfree.Params.(with_eps practical (eps_of q)) in
      let report =
        match protocol_of q with
        | Unrestricted -> Tfree.Tester.unrestricted ~tap ~seed params inputs
        | Sim -> Tfree.Tester.simultaneous ~tap ~seed params ~d:(Graph.avg_degree g) inputs
        | Oblivious -> Tfree.Tester.simultaneous_oblivious ~tap ~seed params inputs
        | Exact -> Tfree.Tester.exact ~tap ~seed inputs
      in
      let wire = Wire_runtime.report net ~accounted_bits:report.Tfree.Tester.bits in
      {
        verdict = report.Tfree.Tester.verdict;
        bits = report.Tfree.Tester.bits;
        rounds = report.Tfree.Tester.rounds;
        max_message = report.Tfree.Tester.max_message;
        wire;
      })

(* A sampled trace only accounts clean runs: an injected fault aborts
   mid-protocol and would leave a half timeline. *)
let traced q = Option.is_some !Obs_ctx.trace && fault_of q = ""

(* Look up the instance, run the protocol, reconcile — deterministic in
   the query's seed and fault spec, with or without [cache].  [timed]
   records the lookup and the run as serve phases into [metrics]. *)
let execute ~timed ?cache ?metrics ?registry q =
  let phase p f =
    match metrics with Some metrics when timed -> timed_phase ~metrics p f | _ -> f ()
  in
  let fault =
    match Fault.parse (fault_of q) with
    | Ok s -> s
    | Error msg -> invalid_arg (Printf.sprintf "Service: bad fault spec: %s" msg)
  in
  let g, inputs = phase Phase.Cache_lookup (fun () -> query_pair ?cache ?metrics ?registry q) in
  let trace = if traced q then !Obs_ctx.trace else None in
  phase Phase.Run (fun () -> run_protocol ?trace ~fault q g inputs)

let run_request ?cache ?metrics r = execute ~timed:false ?cache ?metrics (Generated r)

let run_dataset_request ?cache ?metrics ~registry d =
  execute ~timed:false ?cache ?metrics ~registry (Dataset d)

(* Run one served query, record it, and classify the outcome, whichever
   codec carried it.  [version] is the wire protocol of the serving
   connection, feeding the per-version served gauge.  [Ok resp] counts as
   one served query (the unit the [max_requests] budget measures);
   [Error (category, msg)] was already recorded under its category.  A
   typed dataset failure (the file vanished or rotted under the manifest)
   keeps its own message under [Run_failure] — the request was
   well-formed, the server's data was not. *)
let run_core ?cache ?registry ~metrics ~version q =
  let t0 = Mono.now_us () in
  let failed category msg =
    Metrics.record_error metrics ~category;
    Error (category, msg)
  in
  match execute ~timed:true ?cache ~metrics ?registry q with
  | resp ->
      let protocol = protocol_to_string (protocol_of q) in
      Metrics.record_query ~version metrics ~protocol
        ~found_triangle:
          (match resp.verdict with
          | Tfree.Tester.Triangle _ -> true
          | Tfree.Tester.Triangle_free -> false)
        ~wire_bytes:resp.wire.Wire_runtime.wire_bytes
        ~accounted_bits:resp.wire.Wire_runtime.accounted_bits
        ~latency_us:(Mono.now_us () -. t0);
      (match q with
      | Dataset d -> Metrics.record_dataset metrics ~name:d.ds_name
      | Generated _ -> ());
      if traced q then
        Obs_ctx.traced_bits := !Obs_ctx.traced_bits + resp.wire.Wire_runtime.accounted_bits;
      let num v = Jsonout.Num (float_of_int v) in
      maybe_slow_query
        ~latency_us:(Mono.now_us () -. t0)
        ((("protocol", Jsonout.Str protocol)
         ::
         (match q with
         | Generated r ->
             [
               ("family", Jsonout.Str (family_to_string r.family));
               ("partition", Jsonout.Str (partition_to_string r.partition));
               ("n", num r.n);
             ]
         | Dataset d -> [ ("dataset", Jsonout.Str d.ds_name) ]))
        @ [ ("k", num (k_of q)); ("seed", num (seed_of q)) ]);
      Ok resp
  | exception Wire_error.Wire_error k ->
      failed
        (Option.value ~default:Metrics.Run_failure
           (Metrics.category_of_name (Wire_error.category k)))
        (Wire_error.message k)
  | exception Tfree_dataset.Dataset_error.Dataset_error kind ->
      failed Metrics.Run_failure ("dataset: " ^ Tfree_dataset.Dataset_error.message kind)
  | exception e -> failed Metrics.Run_failure (Printexc.to_string e)

(* ---------------------------------------------- ops, replies and codecs *)

(* Every exchange, as both ends see it.  A batch carries ['item] per
   element: a request when a client sends it, a decoded request or its
   per-item error when the server receives it. *)
type 'item op =
  | Op_query of query
  | Op_batch of 'item list
  | Op_stats
  | Op_health
  | Op_shutdown

(* Every answer the server can give, whichever codec carries it. *)
type reply =
  | R_response of response
  | R_error of (Metrics.error_category * string)
  | R_batch of (response, Metrics.error_category * string) result list
  | R_stats of Jsonout.t
  | R_health of Jsonout.t
  | R_bye

let no_registry = "no dataset registry configured"

(* One request line to an op.  [datasets] is whether the server has a
   registry: without one, a dataset line is refused before its fields
   are read.  A batch item must be a plain query; one carrying an ["op"]
   is that item's malformed error. *)
let op_of_line ~datasets line =
  let malformed msg = Error (Metrics.Malformed, msg) in
  let query ~dataset j =
    match query_of_json ~dataset j with Ok q -> Ok (Op_query q) | Error msg -> malformed msg
  in
  let batch_item item =
    if Option.is_some (Jsonout.member "op" item) then
      Error "a batch item is a plain query and takes no \"op\""
    else request_of_json item
  in
  match Jsonout.parse line with
  | Error msg -> malformed ("bad JSON: " ^ msg)
  | Ok j -> (
      match (Jsonout.member "cmd" j, Jsonout.member "op" j) with
      | Some (Jsonout.Str "shutdown"), _ -> Ok Op_shutdown
      | Some (Jsonout.Str c), _ -> malformed (Printf.sprintf "unknown command %S" c)
      | Some _, _ -> malformed "cmd must be a string"
      | None, Some (Jsonout.Str "stats") -> Ok Op_stats
      | None, Some (Jsonout.Str "health") -> Ok Op_health
      | None, Some (Jsonout.Str "batch") -> (
          match Jsonout.member "requests" j with
          | Some (Jsonout.List items) -> Ok (Op_batch (List.map batch_item items))
          | Some _ -> malformed "batch field \"requests\" must be a list"
          | None -> malformed "batch without a \"requests\" list")
      | None, Some (Jsonout.Str "dataset") ->
          if datasets then query ~dataset:true j else Error (Metrics.Unknown_op, no_registry)
      | None, Some (Jsonout.Str o) -> Error (Metrics.Unknown_op, Printf.sprintf "unknown op %S" o)
      | None, Some _ -> malformed "op must be a string"
      | None, None -> query ~dataset:false j)

(* One frame body ([cur] covers the tag onward) to an op.  The whole
   frame decodes before anything runs: a frame that passed its checksum
   but whose layout is garbled — a count the body cannot hold, bytes
   missing, bytes left over — is one malformed error, and the connection
   stays usable because the frame boundary is known.  A batch item with a
   bad enum code or fault spec is that item's error.  [parse] wraps the
   decode of a query or batch body (the server times it as the Parse
   phase); stats, health and shutdown frames carry no body to parse. *)
let op_of_frame ~parse cur =
  try
    let tag = Proto.get_u8 cur in
    let op =
      if tag = tag_query || tag = tag_dataset then
        parse (fun () ->
            match decode_query ~dataset:(tag = tag_dataset) cur with
            | Ok q -> Ok (Op_query q)
            | Error msg -> Error (Metrics.Malformed, msg))
      else if tag = tag_batch then
        parse (fun () ->
            let count = Proto.get_varint cur in
            if count > Proto.remaining cur / min_query_bytes then
              Wire_error.errorf_corrupt "batch of %d items cannot fit a %d-byte body" count
                (Proto.remaining cur);
            Ok (Op_batch (List.init count (fun _ -> decode_request_body cur))))
      else if tag = tag_stats then Ok Op_stats
      else if tag = tag_health then Ok Op_health
      else if tag = tag_shutdown then Ok Op_shutdown
      else Error (Metrics.Unknown_op, Printf.sprintf "unknown frame tag %d" tag)
    in
    if Result.is_ok op then Proto.expect_end cur;
    op
  with Wire_error.Wire_error k -> Error (Metrics.Malformed, "bad frame: " ^ Wire_error.message k)

(* The request side of v2: one sealed frame per op. *)
let encode_op_frame b op =
  Proto.begin_frame b;
  (match op with
  | Op_query q ->
      Proto.put_u8 b (match q with Generated _ -> tag_query | Dataset _ -> tag_dataset);
      put_query b q
  | Op_batch reqs ->
      Proto.put_u8 b tag_batch;
      Proto.put_varint b (List.length reqs);
      List.iter (fun r -> put_query b (Generated r)) reqs
  | Op_stats -> Proto.put_u8 b tag_stats
  | Op_health -> Proto.put_u8 b tag_health
  | Op_shutdown -> Proto.put_u8 b tag_shutdown);
  Proto.end_frame b

let op_line op =
  Jsonout.to_line
    (match op with
    | Op_query (Generated r) -> request_to_json r
    | Op_query (Dataset d) -> dataset_request_to_json d
    | Op_batch reqs -> batch_request_to_json reqs
    | Op_stats -> Jsonout.Obj [ ("op", Jsonout.Str "stats") ]
    | Op_health -> Jsonout.Obj [ ("op", Jsonout.Str "health") ]
    | Op_shutdown -> Jsonout.Obj [ ("cmd", Jsonout.Str "shutdown") ])

(* Encoding one served response is the Encode phase when [metrics] is
   given (the server); clients and benchmarks encode untimed. *)
let encoding ?metrics f =
  match metrics with Some metrics -> timed_phase ~metrics Phase.Encode f | None -> f ()

(* One served response or per-item error, in each codec. *)
let json_item ?metrics = function
  | Ok resp -> encoding ?metrics (fun () -> response_to_json resp)
  | Error (category, msg) -> error_obj ~category msg

let put_item ?metrics b = function
  | Ok resp ->
      encoding ?metrics (fun () ->
          Proto.put_u8 b tag_reply;
          put_response b resp)
  | Error (category, msg) ->
      Proto.put_u8 b tag_error;
      Proto.put_u8 b (category_code category);
      Proto.put_string b msg

let reply_to_json ?metrics reply =
  let ok fields = Jsonout.Obj (("ok", Jsonout.Bool true) :: fields) in
  match reply with
  | R_response resp -> json_item ?metrics (Ok resp)
  | R_error e -> json_item (Error e)
  | R_batch items ->
      ok
        [
          ("count", Jsonout.Num (float_of_int (List.length items)));
          ("results", Jsonout.List (List.map (json_item ?metrics) items));
        ]
  | R_stats j -> ok [ ("stats", j) ]
  | R_health j -> ok [ ("health", j) ]
  | R_bye -> ok [ ("bye", Jsonout.Bool true) ]

let encode_reply_frame ?metrics b reply =
  Proto.begin_frame b;
  (match reply with
  | R_response resp -> put_item ?metrics b (Ok resp)
  | R_error e -> put_item b (Error e)
  | R_batch items ->
      Proto.put_u8 b tag_batch_reply;
      Proto.put_varint b (List.length items);
      List.iter (put_item ?metrics b) items
  | R_stats j ->
      Proto.put_u8 b tag_stats_reply;
      Proto.put_string b (Jsonout.to_string j)
  | R_health j ->
      Proto.put_u8 b tag_health_reply;
      Proto.put_string b (Jsonout.to_string j)
  | R_bye -> Proto.put_u8 b tag_bye);
  Proto.end_frame b

let encode_query_frame b r = encode_op_frame b (Op_query (Generated r))
let encode_dataset_frame b d = encode_op_frame b (Op_query (Dataset d))
let encode_batch_frame b reqs = encode_op_frame b (Op_batch reqs)
let encode_response_frame b r = encode_reply_frame b (R_response r)

(* The all-ok batch reply, byte-identical to what the server writes when
   every item serves — the load generator re-encodes expected replies
   with this to account the server's per-version byte gauge exactly. *)
let encode_batch_reply_frame b resps = encode_reply_frame b (R_batch (List.map Result.ok resps))

(* A v2 reply frame back to a reply; a garbled layout raises. *)
let reply_of_frame cur =
  let json what s =
    match Jsonout.parse s with
    | Ok j -> j
    | Error msg -> Wire_error.errorf_corrupt "bad %s JSON in frame: %s" what msg
  in
  let error () =
    let category = category_of_code (Proto.get_u8 cur) in
    (category, Proto.get_string cur)
  in
  let tag = Proto.get_u8 cur in
  let reply =
    if tag = tag_reply then R_response (decode_response_body cur)
    else if tag = tag_error then R_error (error ())
    else if tag = tag_batch_reply then
      R_batch
        (List.init (Proto.get_varint cur) (fun _ ->
             let sub = Proto.get_u8 cur in
             if sub = tag_reply then Ok (decode_response_body cur)
             else if sub = tag_error then Error (error ())
             else Wire_error.errorf_corrupt "unknown batch item tag %d" sub))
    else if tag = tag_stats_reply then R_stats (json "stats" (Proto.get_string cur))
    else if tag = tag_health_reply then R_health (json "health" (Proto.get_string cur))
    else if tag = tag_bye then R_bye
    else Wire_error.errorf_corrupt "unknown reply tag %d" tag
  in
  Proto.expect_end cur;
  reply

(* A v1 reply line (already parsed) back to the reply [op] asked for. *)
let reply_of_json op j =
  let field name wrap =
    match Jsonout.member name j with
    | Some v -> Ok (wrap v)
    | None -> Error (Printf.sprintf "%s reply without %s" name name)
  in
  let item j =
    match Jsonout.member "ok" j with
    | Some (Jsonout.Bool false) -> Error (json_error j)
    | _ ->
        Result.map_error
          (fun msg -> (Metrics.Malformed, "garbled batch item: " ^ msg))
          (response_of_json j)
  in
  match (Jsonout.member "ok" j, op) with
  | Some (Jsonout.Bool false), _ -> Ok (R_error (json_error j))
  | _, Op_query _ -> Result.map (fun r -> R_response r) (response_of_json j)
  | _, Op_batch _ -> (
      match Jsonout.member "results" j with
      | Some (Jsonout.List items) -> Ok (R_batch (List.map item items))
      | _ -> Error "batch reply without results")
  | _, Op_stats -> field "stats" (fun s -> R_stats s)
  | _, Op_health -> field "health" (fun h -> R_health h)
  | _, Op_shutdown -> Ok R_bye

(* ------------------------------------------------------------- dispatch *)

(* The [{"op": "health"}] payload: the registry's O(1) scalars plus the
   instance cache's occupancy — no verdict/dataset table walk, no
   histogram walk, so a prober's poll never contends with serving. *)
let health_payload ?cache metrics =
  let entries, capacity =
    match cache with Some c -> (Lru.length c, Lru.capacity c) | None -> (0, 0)
  in
  match Metrics.health_json metrics with
  | Jsonout.Obj fields ->
      Jsonout.Obj
        (fields
        @ [
            ( "cache",
              Jsonout.Obj
                [
                  ("entries", Jsonout.Num (float_of_int entries));
                  ("capacity", Jsonout.Num (float_of_int capacity));
                ] );
          ])
  | j -> j

(* Fleet delegation hooks: a fleet worker's stats/health ops must
   describe the whole fleet, not one shard, so the dispatcher lets the
   fleet layer substitute those two payloads.  [None] from a hook (the
   parent was unreachable) degrades to the local registry — a stats query
   never errors because the control channel hiccupped. *)
type serve_hooks = {
  hook_stats : unit -> Jsonout.t option;
  hook_health : unit -> Jsonout.t option;
}

(* One decoded request unit to its reply and how many protocol queries it
   served (the unit the [max_requests] budget and the served counter
   measure — 0 or 1 for a plain query, up to the item count for a batch).
   Every failure — a request that failed to decode, a dataset the server
   does not hold, a run that raised — becomes a categorized [R_error]
   recorded under that category; a wire fault surfacing from the run keeps
   its own category (timeout/transport) so an operator can tell chaos from
   bad input.  Inside a batch, failures are per-item: each element is
   exactly the reply the query would have gotten on its own. *)
let dispatch ?cache ?registry ?hooks ~metrics ~stop ~version decoded =
  let reject (category, msg) =
    Metrics.record_error metrics ~category;
    (R_error (category, msg), 0)
  in
  let payload hook local =
    match Option.bind hooks (fun h -> hook h ()) with Some j -> j | None -> local ()
  in
  match decoded with
  | Error e -> reject e
  | Ok (Op_query q) -> (
      match (q, registry) with
      | Dataset _, None -> reject (Metrics.Unknown_op, no_registry)
      | Dataset d, Some reg when Registry.find reg d.ds_name = None ->
          reject (Metrics.Malformed, Printf.sprintf "unknown dataset %S" d.ds_name)
      | _ -> (
          match run_core ?cache ?registry ~metrics ~version q with
          | Ok resp -> (R_response resp, 1)
          | Error e -> (R_error e, 0)))
  | Ok (Op_batch items) ->
      Metrics.record_batch metrics ~items:(List.length items);
      let results =
        List.map
          (function
            | Ok r -> run_core ?cache ~metrics ~version (Generated r)
            | Error msg ->
                Metrics.record_error metrics ~category:Metrics.Malformed;
                Error (Metrics.Malformed, msg))
          items
      in
      (R_batch results, List.length (List.filter Result.is_ok results))
  | Ok Op_stats ->
      (R_stats (payload (fun h -> h.hook_stats) (fun () -> Metrics.to_json metrics)), 0)
  | Ok Op_health ->
      (R_health (payload (fun h -> h.hook_health) (fun () -> health_payload ?cache metrics)), 0)
  | Ok Op_shutdown ->
      stop := true;
      (R_bye, 0)

(* One request line to one reply line; sets [stop] on a shutdown command.
   Decoding the line is the Parse phase. *)
let handle_line ?cache ?registry ?hooks ~metrics ~stop ?(version = 1) line =
  let decoded =
    timed_phase ~metrics Phase.Parse (fun () ->
        op_of_line ~datasets:(Option.is_some registry) line)
  in
  let reply, served = dispatch ?cache ?registry ?hooks ~metrics ~stop ~version decoded in
  (Jsonout.to_line (reply_to_json ~metrics reply), served)

(* One v2 frame body to one sealed reply frame in [b]; the same contract
   as [handle_line]. *)
let handle_frame ?cache ?registry ?hooks ~metrics ~stop ~version b cur =
  let decoded = op_of_frame ~parse:(timed_phase ~metrics Phase.Parse) cur in
  let reply, served = dispatch ?cache ?registry ?hooks ~metrics ~stop ~version decoded in
  encode_reply_frame ~metrics b reply;
  served

(* ------------------------------------------------------- byte transport *)

let write_bytes fd data off len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd data (off + !sent) (len - !sent)
  done

let write_string fd s = write_bytes fd (Bytes.unsafe_of_string s) 0 (String.length s)
let write_line fd s = write_string fd (s ^ "\n")

(* Write the sealed frame currently held by [b]. *)
let write_frame fd b = write_bytes fd (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b)

type line_read =
  | Line of string  (** a complete newline-terminated line *)
  | Eof  (** orderly close with nothing buffered *)
  | Partial of string  (** the peer vanished mid-line; never process this *)
  | Timed_out  (** the deadline expired before the newline arrived *)

(* Read one line byte-by-byte under a wall-clock deadline.  The poll
   before every read keeps a silent or half-dead peer from pinning the
   server; a connection reset surfaces as [Partial]/[Eof] rather than an
   exception so the caller's accounting stays simple.  {!Evpoll.readable}
   rather than [Unix.select]: a select here crashes with EINVAL the
   moment the process holds any fd >= FD_SETSIZE, which a fleet-scale
   process routinely does. *)
let read_line_deadline fd ~deadline =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let finish_eof () = if Buffer.length buf = 0 then Eof else Partial (Buffer.contents buf) in
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then Timed_out
    else if not (Evpoll.readable fd ~timeout_s:remaining) then
      (* timeout or EINTR: re-check the deadline and wait again *)
      loop ()
    else
      match Unix.read fd one 0 1 with
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> finish_eof ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | 0 -> finish_eof ()
      | _ ->
          let c = Bytes.get one 0 in
          if c = '\n' then Line (Buffer.contents buf)
          else (
            Buffer.add_char buf c;
            loop ())
  in
  loop ()

(* An encoded reply ready to write: [len] bytes of [data] from [off].  A
   [Corrupt] fault flips a bit inside [flip_off, flip_end) only — a line's
   body before its newline, a frame's body and checksum after its length
   varint — so the reply stays delimited and the client reads a whole
   unit that fails to parse or to checksum. *)
type outgoing = { data : Bytes.t; off : int; len : int; flip_off : int; flip_end : int }

let line_out s =
  let n = String.length s in
  let data = Bytes.create (n + 1) in
  Bytes.blit_string s 0 data 0 n;
  Bytes.set data n '\n';
  { data; off = 0; len = n + 1; flip_off = 0; flip_end = n }

let frame_out b =
  let off = Proto.frame_off b and len = Proto.frame_len b in
  let flip_off = off + len - Proto.frame_body_len b - 2 in
  { data = Proto.storage b; off; len; flip_off; flip_end = off + len }

(* Reply-level fault injection: the [op]-th reply the server writes (0-based
   across the whole server lifetime) suffers the scheduled fault.  [Drop]
   and [Close] cost the client its connection; [Corrupt] garbles one bit
   (see {!outgoing}); [Truncate] sends a proper prefix and closes, starving
   the client's read until its deadline; [Delay] holds the reply [amount]
   milliseconds; [Partial] splits the write in two (same bytes — the
   client must not notice).  Every firing bumps the injected-fault tally,
   never the error counters: the fault is ours.

   The second component reports whether the reply landed byte-intact
   ([Delay] and [Partial] reorder time, not bytes) — the condition under
   which the exchange's traffic counts toward the per-version byte gauge,
   so the gauge reconciles exactly against what a client's successful
   exchanges measured. *)
let inject_reply ~metrics ~fault ~op fd o =
  let write off len = write_bytes fd o.data off len in
  match Fault.find fault op with
  | None ->
      write o.off o.len;
      (`Keep, true)
  | Some kind -> (
      Metrics.record_injected metrics;
      match kind with
      | Fault.Drop | Fault.Close -> (`Close, false)
      | Fault.Corrupt { bit } ->
          let nbits = 8 * (o.flip_end - o.flip_off) in
          if nbits > 0 then begin
            let i = ((bit mod nbits) + nbits) mod nbits in
            let byte = o.flip_off + (i / 8) in
            Bytes.set o.data byte
              (Char.chr (Char.code (Bytes.get o.data byte) lxor (1 lsl (i mod 8))))
          end;
          write o.off o.len;
          (`Keep, false)
      | Fault.Truncate { keep } ->
          write o.off (min (max keep 0) (max 0 (o.len - 1)));
          (`Close, false)
      | Fault.Delay { amount } ->
          Unix.sleepf (float_of_int (max amount 0) /. 1000.0);
          write o.off o.len;
          (`Keep, true)
      | Fault.Partial { at } ->
          let cut = max 1 (min at (o.len - 1)) in
          write o.off cut;
          write (o.off + cut) (o.len - cut);
          (`Keep, true))

(* One open connection in the event loop: its descriptor, the read buffer
   holding bytes that do not yet form a complete line or frame, the
   preallocated scratch a binary reply is encoded into, the reusable
   cursor binary requests are decoded through, the wire-protocol version
   the connection negotiated (0 until the first byte decides), and the
   wall-clock instant by which the next request unit must arrive.  The
   read buffer shrinks back to a small default once a large request has
   been consumed ({!Proto.rbuf_consume}), so one near-cap line or batch
   does not pin megabytes for the connection's lifetime. *)
type conn = {
  conn_fd : Unix.file_descr;
  rbuf : Proto.rbuf;
  wbuf : Proto.buf;
  rcur : Proto.cursor;
  mutable version : int;
  mutable deadline : float;
  mutable conn_open : bool;
  (* µs timestamp of the first buffered byte of the request unit being
     assembled; nan between units.  Feeds the read-phase histogram. *)
  mutable read_start : float;
}

(* Find '\n' in [data[pos, lim)]; [Bytes.index_from] would scan past the
   buffered region. *)
let find_newline data pos lim =
  let i = ref pos in
  while !i < lim && Bytes.unsafe_get data !i <> '\n' do
    incr i
  done;
  if !i < lim then Some !i else None

(* A connection that streams garbage without newlines must not grow its
   buffer forever; past this it is shed with a malformed error. *)
let max_line_bytes = 8 * 1024 * 1024

(* Bind, listen and unblock one Unix-domain listener, replacing any stale
   socket file at [path]. *)
let bind_listener ~backlog path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock backlog;
     (* poll may report the listener readable for a connection that was
        aborted before we accept; nonblocking turns that race into EAGAIN *)
     Unix.set_nonblock sock
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (try Unix.unlink path with Unix.Unix_error _ -> ());
     raise e);
  sock

(* The event loop proper, over already-bound [listeners]: a poll-based
   ({!Evpoll}, no FD_SETSIZE ceiling) single-threaded loop serving every
   open connection plus any number of accept sources.  The single-process
   server runs it over one listener; a fleet worker runs it over the
   shared public listener plus its own shard listener, with [ctl] adding
   the parent's control descriptor to the poll set ([on_ctl] runs when it
   turns readable) and [hooks] routing stats/health payloads through the
   parent.  [stop] is caller-owned so the control channel can stop the
   loop from outside a connection.  Returns the number of queries served;
   the caller owns listener cleanup. *)
let run_event_loop ~listeners ?ctl ?hooks ~metrics ~stop ~max_clients ?max_requests
    ~line_timeout_s ~fault ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample
    ?trace_out ?metrics_file ~metrics_interval_s ~who () =
  let log level event fields =
    match logger with Some lg -> Logger.log lg level event fields | None -> ()
  in
  let jnum v = Jsonout.Num (float_of_int v) in
  Obs_ctx.slow :=
    (match (logger, slow_us) with Some lg, Some thr -> Some (thr, lg) | _ -> None);
  Obs_ctx.traced_bits := 0;
  let tracer =
    match trace_out with Some _ when trace_sample > 0 -> Some (Trace.create ()) | _ -> None
  in
  let units_seen = ref 0 and units_sampled = ref 0 in
  (* Run the handling of one request unit; every [trace_sample]-th unit
     runs under the sampled collector, so its phases and protocol
     messages land in the request timeline. *)
  let observe_unit f =
    match tracer with
    | Some tr when !units_seen mod max 1 trace_sample = 0 ->
        incr units_seen;
        incr units_sampled;
        Obs_ctx.trace := Some tr;
        Fun.protect
          ~finally:(fun () -> Obs_ctx.trace := None)
          (fun () -> Trace.with_collector tr f)
    | _ ->
        incr units_seen;
        f ()
  in
  let dump_metrics () =
    match metrics_file with
    | None -> ()
    | Some file -> (
        let tmp = file ^ ".tmp" in
        try
          Out_channel.with_open_text tmp (fun oc ->
              Out_channel.output_string oc (Prom.of_stats (Metrics.to_json metrics)));
          Sys.rename tmp file;
          log Logger.Debug "metrics_dump" [ ("file", Jsonout.Str file) ]
        with Sys_error msg -> log Logger.Error "metrics_dump_failed" [ ("error", Jsonout.Str msg) ])
  in
  let next_dump =
    ref
      (match metrics_file with
      | None -> infinity
      | Some _ -> Unix.gettimeofday () +. Float.max 0.1 metrics_interval_s)
  in
  log Logger.Info "start"
    [
      ("path", Jsonout.Str who);
      ("max_clients", jnum max_clients);
      ("cache_capacity", jnum cache_capacity);
    ];
  let cache = if cache_capacity <= 0 then None else Some (create_cache ~capacity:cache_capacity ()) in
  let served = ref 0 and reply_op = ref 0 in
  let budget_left () = match max_requests with None -> true | Some m -> !served < m in
  let conns = ref [] in
  let transport_error () = Metrics.record_error metrics ~category:Metrics.Transport in
  let close_conn c =
    if c.conn_open then begin
      c.conn_open <- false;
      try Unix.close c.conn_fd with Unix.Unix_error _ -> ()
    end
  in
  let prune () =
    let live = List.filter (fun c -> c.conn_open) !conns in
    conns := live;
    Metrics.set_in_flight metrics (List.length live)
  in
  let accept_one lsock =
    match Unix.accept lsock with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | fd, _ ->
        if List.length !conns >= max_clients then begin
          (* shed: a typed refusal, then close — the client sees a reply,
             not a hang, and its retry loop treats overload as transient *)
          Metrics.record_shed metrics;
          Metrics.record_error metrics ~category:Metrics.Overload;
          log Logger.Warn "shed" [ ("max_clients", jnum max_clients) ];
          (try
             write_line fd
               (error_line ~category:Metrics.Overload
                  (Printf.sprintf "server at capacity (%d clients); retry later" max_clients))
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Metrics.record_accept metrics;
          conns :=
            {
              conn_fd = fd;
              rbuf = Proto.rbuf_create ();
              wbuf = Proto.create_buf ();
              rcur = Proto.cursor ();
              version = 0;
              deadline = Unix.gettimeofday () +. line_timeout_s;
              conn_open = true;
              read_start = nan;
            }
            :: !conns;
          Metrics.set_in_flight metrics (List.length !conns);
          log Logger.Debug "accept" [ ("in_flight", jnum (List.length !conns)) ]
        end
  in
  (* Write [c] a categorized error in whatever protocol it negotiated —
     best-effort: the peer may already be gone. *)
  let write_error_conn c ~category msg =
    log Logger.Warn "request_error"
      [
        ("category", Jsonout.Str (Metrics.category_name category)); ("detail", Jsonout.Str msg);
      ];
    try
      if c.version >= 2 then begin
        encode_reply_frame c.wbuf (R_error (category, msg));
        write_frame c.conn_fd c.wbuf
      end
      else write_line c.conn_fd (error_line ~category msg)
    with Unix.Unix_error _ -> ()
  in
  (* One request unit fully assembled out of [c]'s socket: one read-phase
     sample from the first buffered byte to now.  [remaining] > 0 means
     the next unit's bytes are already buffered, so its read began now;
     otherwise the clock re-arms on the next readable event. *)
  let note_unit_read c ~remaining =
    if not (Float.is_nan c.read_start) then begin
      let now = Mono.now_us () in
      Metrics.record_phase metrics ~phase:Phase.Read ~us:(now -. c.read_start);
      Obs_ctx.scratch.(Phase.index Phase.Read) <- now -. c.read_start;
      c.read_start <- (if remaining > 0 then now else nan)
    end
  in
  (* Handle one request unit ([handle] returns how many queries it served
     and its encoded reply), route the reply through the fault schedule,
     tally the served queries, and — when the reply landed byte-intact —
     credit the exchange's request+reply bytes to the connection's
     wire-protocol version, so stats reconcile exactly against what the
     client's successful exchanges measured. *)
  let serve_unit c ~request_bytes handle =
    match handle () with
    | exception e ->
        Metrics.record_error metrics ~category:Metrics.Run_failure;
        write_error_conn c ~category:Metrics.Run_failure (Printexc.to_string e);
        close_conn c
    | nserved, out -> (
        let op = !reply_op in
        incr reply_op;
        match
          timed_phase ~metrics Phase.Write (fun () ->
              inject_reply ~metrics ~fault ~op c.conn_fd out)
        with
        | exception Unix.Unix_error _ ->
            (* the peer closed before the reply landed *)
            transport_error ();
            close_conn c
        | action, clean ->
            served := !served + nserved;
            if clean && nserved > 0 then
              Metrics.record_version_bytes metrics
                ~version:(max 1 c.version)
                ~bytes:(request_bytes + out.len);
            if action = `Close then close_conn c)
  in
  (* Split off and handle every complete line in [c]'s read buffer; keep
     the unterminated tail for the next readable event.  Each complete
     line rolls the deadline forward. *)
  let drain_lines c =
    let scanning = ref true in
    while !scanning && c.conn_open do
      let data = Proto.rbuf_data c.rbuf and start = Proto.rbuf_start c.rbuf in
      match find_newline data start (start + Proto.rbuf_avail c.rbuf) with
      | None -> scanning := false
      | Some nl ->
          let line = Bytes.sub_string data start (nl - start) in
          Proto.rbuf_consume c.rbuf (nl - start + 1);
          note_unit_read c ~remaining:(Proto.rbuf_avail c.rbuf);
          c.deadline <- Unix.gettimeofday () +. line_timeout_s;
          if (not !stop) && budget_left () then
            observe_unit (fun () ->
                serve_unit c ~request_bytes:(String.length line + 1) (fun () ->
                    let reply, nserved =
                      handle_line ?cache ?registry ?hooks ~metrics ~stop ~version:(max 1 c.version)
                        line
                    in
                    (nserved, line_out reply)));
          if !stop then scanning := false
    done;
    if c.conn_open && Proto.rbuf_avail c.rbuf > max_line_bytes then begin
      Metrics.record_error metrics ~category:Metrics.Malformed;
      write_error_conn c ~category:Metrics.Malformed "request line too long";
      close_conn c
    end
  in
  (* Split off and handle every complete frame.  A stream-level framing
     error — garbage or oversized length prefix, checksum mismatch — is
     unrecoverable (a byte stream cannot resync), so it costs a transport
     error and the connection; a frame that passes its checksum but
     decodes badly is answered by [handle_frame] with the connection
     kept. *)
  let drain_frames c =
    let scanning = ref true in
    while !scanning && c.conn_open && not !stop do
      let start = Proto.rbuf_start c.rbuf in
      match
        Proto.try_frame (Proto.rbuf_data c.rbuf) ~pos:start
          ~limit:(start + Proto.rbuf_avail c.rbuf)
          c.rcur
      with
      | exception Wire_error.Wire_error k ->
          transport_error ();
          write_error_conn c ~category:Metrics.Transport
            ("unrecoverable frame stream: " ^ Wire_error.message k);
          close_conn c
      | -1 ->
          if Proto.rbuf_avail c.rbuf > max_line_bytes then begin
            Metrics.record_error metrics ~category:Metrics.Malformed;
            write_error_conn c ~category:Metrics.Malformed "request frame too long";
            close_conn c
          end;
          scanning := false
      | frame_len ->
          note_unit_read c ~remaining:(Proto.rbuf_avail c.rbuf - frame_len);
          c.deadline <- Unix.gettimeofday () +. line_timeout_s;
          if (not !stop) && budget_left () then
            observe_unit (fun () ->
                serve_unit c ~request_bytes:frame_len (fun () ->
                    let nserved =
                      handle_frame ?cache ?registry ?hooks ~metrics ~stop ~version:c.version
                        c.wbuf c.rcur
                    in
                    (nserved, frame_out c.wbuf)));
          if c.conn_open then Proto.rbuf_consume c.rbuf frame_len else scanning := false
    done
  in
  (* The first byte decides the connection's protocol: {!Proto.magic}
     opens the version handshake, anything else is the first byte of a
     JSON line and the connection is v1.  A hello offering version 0 is a
     typed malformed error answered with a version-0 hello; the
     connection then falls back to v1 and stays usable.  Handshake bytes
     are excluded from the per-version byte gauges and from the fault
     schedule's reply numbering, so op indices line up across versions. *)
  let rec drain c =
    if c.conn_open then
      if c.version = 0 then begin
        let avail = Proto.rbuf_avail c.rbuf in
        if avail >= 1 then begin
          let data = Proto.rbuf_data c.rbuf and start = Proto.rbuf_start c.rbuf in
          if Bytes.get data start <> Proto.magic then begin
            c.version <- 1;
            drain c
          end
          else if avail >= 2 then begin
            let requested = Char.code (Bytes.get data (start + 1)) in
            Proto.rbuf_consume c.rbuf 2;
            (* handshake bytes are not a request unit: re-arm the read
               clock without recording *)
            c.read_start <-
              (if Proto.rbuf_avail c.rbuf > 0 then Mono.now_us () else nan);
            c.deadline <- Unix.gettimeofday () +. line_timeout_s;
            let negotiated = if requested < 1 then 0 else min requested max_version in
            if negotiated = 0 then
              Metrics.record_error metrics ~category:Metrics.Malformed;
            (match write_string c.conn_fd (Proto.hello negotiated) with
            | () ->
                c.version <- max 1 negotiated;
                drain c
            | exception Unix.Unix_error _ ->
                transport_error ();
                close_conn c)
          end
          (* else: magic seen, version byte still in flight — wait *)
        end
      end
      else if c.version >= 2 then drain_frames c
      else drain_lines c
  in
  let chunk = Bytes.create 4096 in
  let on_eof c =
    (* the client died mid-line (or mid-frame); a half request is not a
       request *)
    if Proto.rbuf_avail c.rbuf > 0 then transport_error ();
    close_conn c
  in
  let service_conn c =
    match Unix.read c.conn_fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> on_eof c
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ ->
        transport_error ();
        close_conn c
    | 0 -> on_eof c
    | nread ->
        Proto.rbuf_append c.rbuf chunk 0 nread;
        if Float.is_nan c.read_start then c.read_start <- Mono.now_us ();
        drain c
  in
  let expire_deadlines now =
    List.iter
      (fun c ->
        if c.conn_open && c.deadline <= now then begin
          Metrics.record_error metrics ~category:Metrics.Timeout;
          write_error_conn c ~category:Metrics.Timeout "read timed out";
          close_conn c
        end)
      !conns
  in
  while (not !stop) && budget_left () do
    let now = Unix.gettimeofday () in
    expire_deadlines now;
    if now >= !next_dump then begin
      dump_metrics ();
      next_dump := now +. Float.max 0.1 metrics_interval_s
    end;
    prune ();
    let timeout =
      List.fold_left (fun acc c -> Float.min acc (c.deadline -. now)) Float.infinity !conns
    in
    let timeout = Float.min timeout (!next_dump -. now) in
    let timeout = if timeout = Float.infinity then -1.0 else Float.max 0.0 timeout in
    let fds =
      List.rev_append listeners
        ((match ctl with Some (fd, _) -> [ fd ] | None -> [])
        @ List.map (fun c -> c.conn_fd) !conns)
    in
    (* Evpoll absorbs EINTR (empty ready set) and has no FD_SETSIZE cap,
       so a fleet-scale descriptor count cannot EINVAL the loop. *)
    let ready = Evpoll.wait_in fds ~timeout_s:timeout in
    (match ctl with
    | Some (fd, on_ctl) when List.mem fd ready -> on_ctl ()
    | _ -> ());
    List.iter (fun lsock -> if List.mem lsock ready then accept_one lsock) listeners;
    List.iter
      (fun c ->
        if c.conn_open && (not !stop) && budget_left () && List.mem c.conn_fd ready then (
          try service_conn c
          with _ ->
            transport_error ();
            close_conn c))
      !conns;
    prune ()
  done;
  List.iter close_conn !conns;
  prune ();
  dump_metrics ();
  (match (trace_out, tracer) with
  | Some file, Some tr -> (
      let json =
        Trace.to_chrome tr
          ~other:[ ("accounted_bits", Jsonout.Num (float_of_int !Obs_ctx.traced_bits)) ]
      in
      try
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Jsonout.to_string json));
        log Logger.Info "trace_written"
          [ ("file", Jsonout.Str file); ("sampled_units", jnum !units_sampled) ]
      with Sys_error msg -> log Logger.Error "trace_write_failed" [ ("error", Jsonout.Str msg) ])
  | _ -> ());
  log Logger.Info "shutdown" [ ("served", jnum !served) ];
  Obs_ctx.slow := None;
  !served

(* ------------------------------------------------- fleet control channel *)

(* Parent <-> worker control messages over a per-worker socketpair: one
   tag byte, a 4-byte little-endian payload length, the payload bytes.
   Worker to parent: ['q']/['h'] delegate a stats/health op (payload =
   the worker's own {!Metrics.to_wire} snapshot), ['o'] answers a parent
   ping with a fresh snapshot, ['f'] announces exit (one flag byte —
   0 = parent-ordered, 1 = a client asked the fleet to shut down,
   2 = this worker's request budget ran out — then the final snapshot).
   Parent to worker: ['p'] pings for a snapshot, ['r'] carries the merged
   stats/health JSON, ['x'] orders the worker to stop. *)

let ctl_write fd tag payload =
  let n = String.length payload in
  let hdr = Bytes.create 5 in
  Bytes.set hdr 0 tag;
  Bytes.set hdr 1 (Char.chr (n land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 4 (Char.chr ((n lsr 24) land 0xff));
  write_bytes fd hdr 0 5;
  write_string fd payload

(* Largest control payload we accept: a metrics snapshot is a few KB, so
   anything past this is a desynchronized stream, treated like a close. *)
let ctl_max_payload = 16 * 1024 * 1024

let ctl_read fd =
  let rec read_exact b off len =
    if len = 0 then true
    else
      match Unix.read fd b off len with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact b off len
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
      | 0 -> false
      | k -> read_exact b (off + k) (len - k)
  in
  let hdr = Bytes.create 5 in
  if not (read_exact hdr 0 5) then `Eof
  else
    let b i = Char.code (Bytes.get hdr i) in
    let n = b 1 lor (b 2 lsl 8) lor (b 3 lsl 16) lor (b 4 lsl 24) in
    if n < 0 || n > ctl_max_payload then `Eof
    else
      let payload = Bytes.create n in
      if read_exact payload 0 n then `Msg (Bytes.get hdr 0, Bytes.to_string payload) else `Eof

(* ------------------------------------------------------------ fleet mode *)

(* One fleet worker: the event loop over the shared public listener plus
   this worker's shard listener, with stats/health delegated to the
   parent over [ctl].  Runs in the forked child.  While waiting for the
   parent's merged ['r'] reply the worker keeps answering ['p'] pings —
   the parent may be mid-barrier collecting snapshots for *another*
   worker's stats op, and two workers each waiting on the other's
   snapshot must not deadlock.  A dead control channel degrades to local
   payloads and, on EOF, stops the loop: an orphaned worker must not
   outlive its fleet. *)
let worker_main ~ctl ~listeners ~max_clients ?max_requests ~line_timeout_s ~fault
    ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out
    ?metrics_file ~metrics_interval_s ~who () =
  let metrics = Metrics.create () in
  let stop = ref false in
  (* distinguishes a parent-ordered stop from a client shutdown command *)
  let parent_stopped = ref false in
  let send tag payload =
    try
      ctl_write ctl tag payload;
      true
    with Unix.Unix_error _ -> false
  in
  let on_parent_gone () =
    stop := true;
    parent_stopped := true
  in
  let ask tag =
    if not (send tag (Metrics.to_wire metrics)) then None
    else
      let rec await () =
        match ctl_read ctl with
        | `Eof ->
            on_parent_gone ();
            None
        | `Msg ('r', payload) -> (
            match Jsonout.parse payload with Ok j -> Some j | Error _ -> None)
        | `Msg ('p', _) ->
            ignore (send 'o' (Metrics.to_wire metrics));
            await ()
        | `Msg ('x', _) ->
            stop := true;
            parent_stopped := true;
            await ()
        | `Msg _ -> await ()
      in
      await ()
  in
  let hooks = { hook_stats = (fun () -> ask 'q'); hook_health = (fun () -> ask 'h') } in
  let on_ctl () =
    match ctl_read ctl with
    | `Eof -> on_parent_gone ()
    | `Msg ('p', _) -> ignore (send 'o' (Metrics.to_wire metrics))
    | `Msg ('x', _) ->
        stop := true;
        parent_stopped := true
    | `Msg _ -> ()
  in
  let served =
    run_event_loop ~listeners ~ctl:(ctl, on_ctl) ~hooks ~metrics ~stop ~max_clients ?max_requests
      ~line_timeout_s ~fault ~cache_capacity ~max_version ?registry ?logger ?slow_us
      ~trace_sample ?trace_out ?metrics_file ~metrics_interval_s ~who ()
  in
  let flag =
    if !stop && not !parent_stopped then '\001' (* a client asked the fleet to stop *)
    else if not !stop then '\002' (* own max_requests budget ran out *)
    else '\000'
  in
  ignore (send 'f' (String.make 1 flag ^ Metrics.to_wire metrics));
  (try Unix.close ctl with Unix.Unix_error _ -> ());
  served

(* Parent-side bookkeeping for one worker seat.  [slot_last] is the
   latest snapshot this incarnation reported; when the process dies it is
   folded into the fleet graveyard and reset, so merged counters are
   always graveyard + live snapshots — monotone across respawns, never
   double-counted. *)
type fleet_slot = {
  slot_id : int;
  mutable slot_pid : int;
  mutable slot_ctl : Unix.file_descr;
  mutable slot_ctl_open : bool;
  mutable slot_alive : bool;  (* process believed running (until reaped) *)
  mutable slot_restarts : int;
  mutable slot_done : bool;  (* exited on purpose: shutdown or budget *)
  mutable slot_last : Metrics.t;
}

let serve_fleet ~workers ~backlog ~max_clients ?max_requests ~line_timeout_s ~fault
    ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out
    ?metrics_file ~metrics_interval_s ~path () =
  let log level event fields =
    match logger with Some lg -> Logger.log lg level event fields | None -> ()
  in
  let jnum v = Jsonout.Num (float_of_int v) in
  let started_at = Unix.gettimeofday () in
  (* Every listener is bound before the first fork and stays open in the
     parent for the fleet's whole life: a respawned worker re-inherits
     the same descriptors, and while a seat is empty its connections
     queue in the kernel backlog instead of being refused. *)
  let public = bind_listener ~backlog path in
  let privates =
    try Array.init workers (fun i -> bind_listener ~backlog (worker_path ~path i))
    with e ->
      (try Unix.close public with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      for i = 0 to workers - 1 do
        try Unix.unlink (worker_path ~path i) with Unix.Unix_error _ -> ()
      done;
      raise e
  in
  let slots =
    Array.init workers (fun i ->
        {
          slot_id = i;
          slot_pid = 0;
          slot_ctl = Unix.stdin;
          slot_ctl_open = false;
          slot_alive = false;
          slot_restarts = 0;
          slot_done = false;
          slot_last = Metrics.create ();
        })
  in
  let graveyard = Metrics.create ~started_at () in
  let stopping = ref false in
  let close_ctl slot =
    if slot.slot_ctl_open then begin
      slot.slot_ctl_open <- false;
      try Unix.close slot.slot_ctl with Unix.Unix_error _ -> ()
    end
  in
  let spawn slot =
    let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        Array.iter (fun s -> if s.slot_ctl_open then close_ctl s) slots;
        (* this worker accepts on the public socket and its own shard
           socket only *)
        Array.iteri
          (fun j fd ->
            if j <> slot.slot_id then try Unix.close fd with Unix.Unix_error _ -> ())
          privates;
        let suffix file = file ^ ".w" ^ string_of_int slot.slot_id in
        let code =
          try
            ignore
              (worker_main ~ctl:child_fd
                 ~listeners:[ public; privates.(slot.slot_id) ]
                 ~max_clients ?max_requests ~line_timeout_s
                   (* the chaos schedule, when given, belongs to worker 0
                      alone so fault indices stay deterministic *)
                 ~fault:(if slot.slot_id = 0 then fault else [])
                 ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample
                 ?trace_out:(Option.map suffix trace_out)
                 ?metrics_file:(Option.map suffix metrics_file)
                 ~metrics_interval_s
                 ~who:(Printf.sprintf "%s#w%d" path slot.slot_id)
                 ());
            0
          with _ -> 1
        in
        (* _exit: the child must not run the parent's at_exit machinery
           (the logger flushes per line already) *)
        Unix._exit code
    | pid ->
        (try Unix.close child_fd with Unix.Unix_error _ -> ());
        slot.slot_pid <- pid;
        slot.slot_ctl <- parent_fd;
        slot.slot_ctl_open <- true;
        slot.slot_alive <- true;
        slot.slot_last <- Metrics.create ();
        log Logger.Info "worker_start" [ ("worker", jnum slot.slot_id); ("pid", jnum pid) ]
  in
  let broadcast_stop () =
    if not !stopping then begin
      stopping := true;
      Array.iter
        (fun s ->
          if s.slot_ctl_open then
            try ctl_write s.slot_ctl 'x' "" with Unix.Unix_error _ -> close_ctl s)
        slots
    end
  in
  let update_last slot payload =
    match Metrics.of_wire payload with Ok m -> slot.slot_last <- m | Error _ -> ()
  in
  (* a worker's exit announcement: its final snapshot plus why it left *)
  let note_final slot payload =
    if String.length payload >= 1 then begin
      update_last slot (String.sub payload 1 (String.length payload - 1));
      match payload.[0] with
      | '\001' ->
          slot.slot_done <- true;
          broadcast_stop ()
      | '\002' -> slot.slot_done <- true
      | _ -> ()
    end;
    close_ctl slot
  in
  (* Reap exited workers: fold the last snapshot into the graveyard (and
     zero the seat's live snapshot so merged counters never double-count),
     then respawn the seat unless the fleet is stopping or the worker left
     on purpose — the respawned process re-inherits the still-open
     listeners, so the seat's shard keeps its socket. *)
  let reap () =
    let scanning = ref true in
    while !scanning do
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> scanning := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | 0, _ -> scanning := false
      | pid, _ -> (
          match Array.find_opt (fun s -> s.slot_alive && s.slot_pid = pid) slots with
          | None -> ()
          | Some slot ->
              slot.slot_alive <- false;
              (* The worker's exit announcement may still sit unread in
                 the ctl socket: the child writes ['f'] and exits, and
                 this reap can run before the main loop polls the
                 channel.  Drain it before discarding the channel —
                 dropping a flag-1 ['f'] here would lose a client's
                 fleet-stop order and respawn the seat forever.  The
                 child is already reaped, so the drain ends at EOF and
                 cannot block. *)
              let rec drain_ctl () =
                if slot.slot_ctl_open then
                  match ctl_read slot.slot_ctl with
                  | `Eof -> close_ctl slot
                  | `Msg (('o' | 'q' | 'h'), payload) ->
                      update_last slot payload;
                      drain_ctl ()
                  | `Msg ('f', payload) -> note_final slot payload (* closes the ctl *)
                  | `Msg _ -> drain_ctl ()
              in
              drain_ctl ();
              close_ctl slot;
              Metrics.merge graveyard slot.slot_last;
              slot.slot_last <- Metrics.create ();
              if !stopping || slot.slot_done then
                log Logger.Info "worker_exit" [ ("worker", jnum slot.slot_id); ("pid", jnum pid) ]
              else begin
                slot.slot_restarts <- slot.slot_restarts + 1;
                log Logger.Warn "worker_respawn"
                  [ ("worker", jnum slot.slot_id); ("restarts", jnum slot.slot_restarts) ];
                spawn slot
              end)
    done
  in
  (* Fleet-wide merged registry: graveyard + every seat's last snapshot.
     [in_flight] is a gauge, not a counter — summed by hand over live
     seats. *)
  let merged () =
    let m = Metrics.create ~started_at () in
    Metrics.merge m graveyard;
    Array.iter (fun s -> Metrics.merge m s.slot_last) slots;
    Metrics.set_in_flight m
      (Array.fold_left
         (fun acc s -> if s.slot_alive then acc + Metrics.in_flight s.slot_last else acc)
         0 slots);
    m
  in
  let worker_gauges () =
    Jsonout.Obj
      [
        ("count", jnum workers);
        ("restarts", jnum (Array.fold_left (fun acc s -> acc + s.slot_restarts) 0 slots));
        ( "fleet",
          Jsonout.List
            (Array.to_list
               (Array.map
                  (fun s ->
                    Jsonout.Obj
                      [
                        ("worker", jnum s.slot_id);
                        ("pid", jnum s.slot_pid);
                        ("alive", Jsonout.Bool s.slot_alive);
                        ("restarts", jnum s.slot_restarts);
                        ("served", jnum (Metrics.queries_served s.slot_last));
                        ("in_flight", jnum (Metrics.in_flight s.slot_last));
                        ("cache_hits", jnum (Metrics.cache_hits s.slot_last));
                      ])
                  slots)) );
      ]
  in
  let reply_payload kind =
    let m = merged () in
    let body = if kind = 'q' then Metrics.to_json m else Metrics.health_json m in
    let body =
      match body with
      | Jsonout.Obj fields -> Jsonout.Obj (fields @ [ ("workers", worker_gauges ()) ])
      | j -> j
    in
    Jsonout.to_string body
  in
  (* stats/health asks that arrived from other workers while a barrier
     was draining; answered right after the triggering reply, against the
     snapshots that same barrier just refreshed *)
  let queued_asks = Queue.create () in
  (* Barrier-pull every other live seat's snapshot before answering a
     stats/health delegation, so the merged payload is fresh, not
     cache-stale.  A seat that answers with its own ['q']/['h'] instead
     of a pong is itself blocked waiting for a merged reply: its ask is
     queued and it stays pending, because its pong is still on the way
     (the worker's await loop answers pings).  A seat that reports
     ['f'] or EOF mid-barrier is simply dropped from pending; timeout
     falls back to whatever snapshot the seat last sent. *)
  let pull_all ~except =
    let pending = ref [] in
    Array.iter
      (fun s ->
        if s != except && s.slot_alive && s.slot_ctl_open then
          match ctl_write s.slot_ctl 'p' "" with
          | () -> pending := s :: !pending
          | exception Unix.Unix_error _ -> close_ctl s)
      slots;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while !pending <> [] && Unix.gettimeofday () < deadline do
      let fds = List.map (fun s -> s.slot_ctl) !pending in
      let remaining = Float.max 0.01 (deadline -. Unix.gettimeofday ()) in
      let ready = Evpoll.wait_in fds ~timeout_s:remaining in
      List.iter
        (fun s ->
          let drop () = pending := List.filter (fun x -> x != s) !pending in
          match ctl_read s.slot_ctl with
          | `Eof ->
              close_ctl s;
              drop ()
          | `Msg ('o', payload) ->
              update_last s payload;
              drop ()
          | `Msg (('q' | 'h') as k, payload) ->
              update_last s payload;
              Queue.push (s, k) queued_asks
          | `Msg ('f', payload) ->
              note_final s payload;
              drop ()
          | `Msg _ -> ())
        (List.filter (fun s -> List.mem s.slot_ctl ready) !pending)
    done
  in
  let answer slot kind =
    if slot.slot_ctl_open then
      try ctl_write slot.slot_ctl 'r' (reply_payload kind)
      with Unix.Unix_error _ -> close_ctl slot
  in
  let handle_msg slot =
    match ctl_read slot.slot_ctl with
    | `Eof -> close_ctl slot
    | `Msg ('o', payload) -> update_last slot payload
    | `Msg ('f', payload) -> note_final slot payload
    | `Msg (('q' | 'h') as kind, payload) ->
        update_last slot payload;
        pull_all ~except:slot;
        answer slot kind;
        while not (Queue.is_empty queued_asks) do
          let s, k = Queue.pop queued_asks in
          answer s k
        done
    | `Msg _ -> ()
  in
  log Logger.Info "fleet_start" [ ("path", Jsonout.Str path); ("workers", jnum workers) ];
  Array.iter spawn slots;
  let all_reaped () = Array.for_all (fun s -> not s.slot_alive) slots in
  while not (all_reaped ()) do
    reap ();
    if not (all_reaped ()) then begin
      let fds =
        Array.fold_left (fun acc s -> if s.slot_ctl_open then s.slot_ctl :: acc else acc) [] slots
      in
      let ready = Evpoll.wait_in fds ~timeout_s:0.25 in
      Array.iter (fun s -> if s.slot_ctl_open && List.mem s.slot_ctl ready then handle_msg s) slots
    end
  done;
  (try Unix.close public with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Array.iteri
    (fun i fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink (worker_path ~path i) with Unix.Unix_error _ -> ())
    privates;
  let total = Metrics.queries_served graveyard in
  log Logger.Info "fleet_shutdown" [ ("served", jnum total) ];
  total

let serve ?(backlog = 64) ?(max_clients = 64) ?max_requests ?(line_timeout_s = 30.0)
    ?(fault = []) ?(cache_capacity = 32) ?(max_version = Proto.max_version) ?registry ?logger
    ?slow_us ?(trace_sample = 0) ?trace_out ?metrics_file ?(metrics_interval_s = 5.0) ?workers
    ~path () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match workers with
  | Some w when w < 1 -> invalid_arg "serve: workers must be >= 1"
  | Some w ->
      serve_fleet ~workers:w ~backlog ~max_clients ?max_requests ~line_timeout_s ~fault
        ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out
        ?metrics_file ~metrics_interval_s ~path ()
  | None ->
      let sock = bind_listener ~backlog path in
      let metrics = Metrics.create () in
      let stop = ref false in
      let finish () =
        (try Unix.close sock with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally:finish (fun () ->
          run_event_loop ~listeners:[ sock ] ~metrics ~stop ~max_clients ?max_requests
            ~line_timeout_s ~fault ~cache_capacity ~max_version ?registry ?logger ?slow_us
            ~trace_sample ?trace_out ?metrics_file ~metrics_interval_s ~who:path ())

(* ---------------------------------------------------------------- client *)

let with_connection ~path f =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      f sock)

(* Is a structured error reply worth retrying?  Only when its category
   describes the wire or the server's load, not the request: timeout,
   transport and overload pass, everything else is the server telling us
   the request itself is wrong. *)
let classify_category category =
  match category with
  | Metrics.Timeout | Metrics.Transport | Metrics.Overload -> `Transient
  | Metrics.Malformed | Metrics.Unknown_op | Metrics.Run_failure -> `Fatal

(* The exceptions any attempt can surface, classified transient: the
   server may be restarting, shedding load, or mid-fault. *)
let guard_attempt f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (e, fn, _) ->
      Error (`Transient, Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Wire_error.Wire_error k -> Error (`Transient, Wire_error.message k)

(* One byte off the socket under a deadline.  Poll-backed like every
   deadline read: a client library living in a process with >= FD_SETSIZE
   descriptors open must not crash in select. *)
let read_byte_deadline fd ~deadline =
  let one = Bytes.create 1 in
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then `Timeout
    else if not (Evpoll.readable fd ~timeout_s:remaining) then loop ()
    else
      match Unix.read fd one 0 1 with
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | 0 -> `Eof
      | _ -> `Byte (Bytes.get one 0)
  in
  loop ()

(* Accumulate socket bytes until {!Proto.try_frame} finds one complete
   frame; [cur] then covers its body.  Garbage that can never frame
   raises {!Wire_error.Wire_error} (the attempt guard classifies it
   transient). *)
let read_frame_deadline sock ~deadline cur =
  let rb = Proto.rbuf_create () in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let start = Proto.rbuf_start rb in
    match
      Proto.try_frame (Proto.rbuf_data rb) ~pos:start ~limit:(start + Proto.rbuf_avail rb) cur
    with
    | n when n >= 0 -> `Frame
    | _ -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then `Timeout
        else if not (Evpoll.readable sock ~timeout_s:remaining) then loop ()
        else
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Closed
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | 0 -> `Closed
          | nread ->
              Proto.rbuf_append rb chunk 0 nread;
              loop ())
  in
  loop ()

(* Offer the server our best version and classify its answer.  A server
   that does not speak the handshake still answers *something* — most
   usefully the overload-shed JSON error line — so a non-magic first byte
   is read out as a line and interpreted as a v1 reply; its typed
   category keeps the retry classification (an overload shed stays
   transient with the server's own message). *)
let client_hello sock ~deadline =
  write_string sock (Proto.hello Proto.max_version);
  match read_byte_deadline sock ~deadline with
  | `Timeout -> Error (`Transient, "handshake timed out")
  | `Eof -> Error (`Transient, "server closed during handshake")
  | `Byte b when b = Proto.magic -> (
      match read_byte_deadline sock ~deadline with
      | `Timeout -> Error (`Transient, "handshake timed out")
      | `Eof -> Error (`Transient, "server closed during handshake")
      | `Byte v -> (
          match Char.code v with
          | 2 -> Ok 2
          | 1 -> Ok 1
          | 0 -> Error (`Fatal, "server refused the protocol handshake")
          | v -> Error (`Transient, Printf.sprintf "server negotiated unknown version %d" v)))
  | `Byte b -> (
      (* a JSON line, not a handshake: read it out and interpret it *)
      match read_line_deadline sock ~deadline with
      | Timed_out -> Error (`Transient, "handshake timed out")
      | Eof | Partial _ -> Error (`Transient, "server closed during handshake")
      | Line rest -> (
          match Jsonout.parse (String.make 1 b ^ rest) with
          | Ok j when Jsonout.member "ok" j = Some (Jsonout.Bool false) ->
              let category, msg = json_error j in
              Error (classify_category category, msg)
          | Ok _ | Error _ -> Error (`Transient, "garbled handshake reply")))

(* One exchange on a connected socket in the negotiated codec, decoded
   back to a reply. *)
let exchange_reply sock ~deadline ~version op =
  if version >= 2 then begin
    let b = Proto.create_buf () in
    encode_op_frame b op;
    write_frame sock b;
    let cur = Proto.cursor () in
    match read_frame_deadline sock ~deadline cur with
    | `Timeout -> Error (`Transient, "reply timed out")
    | `Closed -> Error (`Transient, "server closed the connection")
    | `Frame -> Ok (reply_of_frame cur)
  end
  else begin
    write_line sock (op_line op);
    match read_line_deadline sock ~deadline with
    | Eof | Partial _ -> Error (`Transient, "server closed the connection")
    | Timed_out -> Error (`Transient, "reply timed out")
    | Line line -> (
        match Jsonout.parse line with
        | Error msg -> Error (`Transient, "bad reply JSON: " ^ msg)
        | Ok j ->
            Result.map_error
              (fun msg -> (`Transient, "garbled reply: " ^ msg))
              (reply_of_json op j))
  end

(* One connect/exchange attempt honouring [protocol]: [V1] is the bare
   JSON line path; [V2]/[Auto] shake hands first and speak binary frames
   when the server agrees, JSON lines on the same connection when it
   answers v1.  [`Transient] failures are worth retrying (the server may
   be restarting or shedding load, the reply may have been garbled by a
   fault), [`Fatal] ones are the server telling us the request itself is
   wrong. *)
let attempt ~protocol ~timeout_s ~path op =
  guard_attempt (fun () ->
      with_connection ~path (fun sock ->
          let deadline = Unix.gettimeofday () +. timeout_s in
          let version =
            match (protocol : Proto.pref) with
            | Proto.V1 -> Ok 1
            | Proto.V2 | Proto.Auto -> client_hello sock ~deadline
          in
          match Result.bind version (fun version -> exchange_reply sock ~deadline ~version op) with
          | Ok (R_error (category, msg)) -> Error (classify_category category, msg)
          | result -> result))

(* The shared retry envelope: transient failures back off exponentially
   ([backoff_s · 2^attempt] plus up to 25% jitter, deterministic in
   [backoff_seed]) and try the whole exchange again, tallying each retry in
   [metrics] when given; fatal ones return immediately.  [interpret] turns
   the reply of a successful exchange into the caller's result. *)
let client_exchange ?(timeout_s = 30.0) ?(retries = 0) ?(backoff_s = 0.05) ?(backoff_seed = 0)
    ?metrics ?(protocol = Proto.Auto) ~path op interpret =
  let rng = Rng.create (0xc11e47 + (31 * backoff_seed)) in
  let rec go n =
    match Result.bind (attempt ~protocol ~timeout_s ~path op) interpret with
    | Ok v -> Ok v
    | Error (`Fatal, msg) -> Error msg
    | Error (`Transient, msg) ->
        if n >= retries then Error msg
        else begin
          (match metrics with Some m -> Metrics.record_retry m | None -> ());
          let base = backoff_s *. (2.0 ** float_of_int n) in
          Unix.sleepf (base +. (base *. 0.25 *. Rng.float rng));
          go (n + 1)
        end
  in
  go 0

let unexpected () = Error (`Transient, "garbled reply: unexpected reply shape")

let client_run ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path q =
  client_exchange ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path (Op_query q)
    (function R_response resp -> Ok resp | _ -> unexpected ())

let client_query ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path r =
  client_run ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path (Generated r)

let client_dataset ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path d =
  client_run ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path (Dataset d)

let client_batch ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path reqs =
  client_exchange ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path
    (Op_batch reqs) (function
    | R_batch items when List.length items = List.length reqs ->
        Ok (List.map (Result.map_error snd) items)
    | R_batch items ->
        Error
          ( `Transient,
            Printf.sprintf "garbled reply: %d results for %d requests" (List.length items)
              (List.length reqs) )
    | _ -> unexpected ())

let client_stats ?timeout_s ?protocol ~path () =
  client_exchange ?timeout_s ?protocol ~path Op_stats (function
    | R_stats stats -> Ok stats
    | _ -> unexpected ())

let client_health ?timeout_s ?protocol ~path () =
  client_exchange ?timeout_s ?protocol ~path Op_health (function
    | R_health health -> Ok health
    | _ -> unexpected ())

let client_shutdown ?protocol ~path () =
  ignore (client_exchange ?protocol ~path Op_shutdown (fun _ -> Ok ()))
