(* A fixed request set for golden serve replies: generated and dataset
   singles, batches with a bad item, bad JSON, an unknown op or frame tag,
   an unknown dataset and a structurally garbled frame, each sent to a
   forked daemon on its own connection over JSON v1 lines or binary v2
   frames.  [capture] returns each case's reply bytes (the v1 line without
   its newline, or the whole v2 frame).  Stats and health depend on time,
   so the set leaves them out.  [serve_replies.golden] holds, one
   [label hex] line per case, the bytes [capture] returned against the
   service before its generated/dataset and JSON/binary paths were folded
   into one. *)

open Tfree_util
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Registry = Tfree_dataset.Registry
module Snapshot = Tfree_dataset.Snapshot

(* cases whose old reply was a bug: they must now answer malformed *)
let mended = [ "v1/batch-op-item"; "v2/batch-overcount" ]

let gen_n = 240
let gen_d = 5.0
let gen_seed = 13

let gen_request =
  { Service.default_request with Service.n = gen_n; d = gen_d; seed = gen_seed }

let frame_of fill =
  let b = Proto.create_buf () in
  fill b;
  Bytes.sub_string (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b)

(* The layout bytes of one query, without frame, tag or checksum. *)
let query_body r =
  let b = Proto.create_buf () in
  Service.encode_query_frame b r;
  let body = Proto.frame_body_len b - 1 in
  Bytes.sub_string (Proto.storage b) (Proto.frame_off b + Proto.frame_len b - 2 - body) body

let raw_frame tag ~count bytes =
  frame_of (fun b ->
      Proto.begin_frame b;
      Proto.put_u8 b tag;
      Option.iter (Proto.put_varint b) count;
      String.iter (fun c -> Proto.put_u8 b (Char.code c)) bytes;
      Proto.end_frame b)

let line j = `Line (Jsonout.to_line j)

let cases =
  let free = { gen_request with Service.family = Service.Free; protocol = Service.Exact } in
  let sim = { gen_request with Service.protocol = Service.Sim; seed = 5 } in
  let ds = { (Service.default_dataset_request ~name:"gen") with Service.ds_seed = gen_seed } in
  let unknown_ds = Service.default_dataset_request ~name:"nope" in
  let body = query_body gen_request in
  let bad_family = "\099" ^ String.sub body 1 (String.length body - 1) in
  [
    ("v1/generated", line (Service.request_to_json gen_request));
    ("v1/generated-free", line (Service.request_to_json free));
    ("v1/dataset", line (Service.dataset_request_to_json ds));
    ( "v1/batch-bad-item",
      line
        (Jsonout.Obj
           [
             ("op", Jsonout.Str "batch");
             ( "requests",
               Jsonout.List
                 [
                   Service.request_to_json gen_request;
                   Jsonout.Obj [ ("family", Jsonout.Str "nope") ];
                   Service.request_to_json sim;
                 ] );
           ]) );
    ("v1/bad-json", `Line "{\"op\": \"batch\", ");
    ("v1/unknown-op", `Line "{\"op\":\"frobnicate\"}");
    ("v1/unknown-dataset", line (Service.dataset_request_to_json unknown_ds));
    ( "v1/batch-op-item",
      `Line "{\"op\":\"batch\",\"requests\":[{\"op\":\"dataset\",\"name\":\"nope\",\"n\":30}]}" );
    ("v2/generated", `Frame (frame_of (fun b -> Service.encode_query_frame b gen_request)));
    ("v2/generated-free", `Frame (frame_of (fun b -> Service.encode_query_frame b free)));
    ("v2/dataset", `Frame (frame_of (fun b -> Service.encode_dataset_frame b ds)));
    ( "v2/batch-bad-item",
      `Frame
        (raw_frame Service.tag_batch ~count:(Some 3)
           (body ^ bad_family ^ query_body sim)) );
    ("v2/unknown-tag", `Frame (raw_frame 200 ~count:None ""));
    ("v2/unknown-dataset", `Frame (frame_of (fun b -> Service.encode_dataset_frame b unknown_ds)));
    ( "v2/garbled-query",
      `Frame (raw_frame Service.tag_query ~count:None (String.sub body 0 9)) );
    ( "v2/batch-overcount",
      `Frame (raw_frame Service.tag_batch ~count:(Some 1_000_000) (body ^ "\000")) );
  ]

let with_registry f =
  let dir = Filename.temp_file "tfree_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let file = Filename.concat dir "g.tfs" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let g =
        Service.build_instance Service.Far (Service.graph_rng gen_seed) ~n:gen_n ~d:gen_d ~eps:0.1
      in
      Snapshot.save g file;
      let reg = Registry.create ~dir () in
      Registry.add reg
        {
          Registry.name = "gen"; path = "g.tfs"; format = Registry.Snapshot;
          n = Tfree_graph.Graph.n g; m = Tfree_graph.Graph.m g;
          gen = Some { Registry.gen_family = "far"; gen_n; gen_d; gen_eps = 0.1; gen_seed };
        };
      f reg)

let read_frame sock =
  let acc = Buffer.create 256 and chunk = Bytes.create 4096 and cur = Proto.cursor () in
  let rec go () =
    let data = Buffer.to_bytes acc in
    match Proto.try_frame data ~pos:0 ~limit:(Bytes.length data) cur with
    | n when n >= 0 -> Bytes.sub_string data 0 n
    | _ ->
        let got = Unix.read sock chunk 0 (Bytes.length chunk) in
        if got = 0 then failwith "golden: server closed before a whole reply frame";
        Buffer.add_subbytes acc chunk 0 got;
        go ()
  in
  go ()

let send sock s = ignore (Unix.write_substring sock s 0 (String.length s))

(* A connection to [path], shaken hands onto v2 when [v2]. *)
let connect ~v2 path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  if v2 then begin
    send sock (Proto.hello 2);
    let hello = Bytes.create 2 in
    if Unix.read sock hello 0 2 <> 2 || Bytes.to_string hello <> Proto.hello 2 then
      failwith "golden: v2 handshake failed"
  end;
  sock

(* Send one request on [sock] and read its whole reply. *)
let ask sock = function
  | `Line l -> (
      send sock (l ^ "\n");
      match Service.read_line_deadline sock ~deadline:(Unix.gettimeofday () +. 20.0) with
      | Service.Line reply -> reply
      | _ -> failwith "golden: no reply line")
  | `Frame f ->
      send sock f;
      read_frame sock

let exchange path request =
  let sock = connect ~v2:(match request with `Frame _ -> true | `Line _ -> false) path in
  Fun.protect ~finally:(fun () -> Unix.close sock) (fun () -> ask sock request)

(* Every case's reply from a forked daemon with the "gen" dataset. *)
let capture () =
  with_registry (fun registry ->
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "tfree-golden-%d.sock" (Unix.getpid ()))
      in
      if Sys.file_exists path then Sys.remove path;
      match Unix.fork () with
      | 0 ->
          ignore (Service.serve ~registry ~line_timeout_s:20.0 ~path ());
          Unix._exit 0
      | server ->
          let rec await tries =
            if (not (Sys.file_exists path)) && tries > 0 then (
              Unix.sleepf 0.05;
              await (tries - 1))
          in
          await 200;
          Fun.protect
            ~finally:(fun () ->
              (try Service.client_shutdown ~protocol:Proto.V1 ~path () with _ -> ());
              ignore (Unix.waitpid [] server))
            (fun () -> List.map (fun (label, req) -> (label, exchange path req)) cases))

let of_hex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let parse text =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with [ label; hex ] -> Some (label, of_hex hex) | _ -> None)
    (String.split_on_char '\n' text)
