open Tfree_graph
module E = Dataset_error

let magic = "TFS1"
let version = 1

(* ------------------------------------------------------------ primitives *)

let put_varint b x =
  let x = ref x in
  let continue = ref true in
  while !continue do
    let byte = !x land 0x7f in
    x := !x lsr 7;
    if !x = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let get_varint s pos limit =
  let x = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !pos >= limit then E.truncated "snapshot ends inside a varint";
    if !shift > 62 then E.corrupt "varint overflow";
    let c = Char.code s.[!pos] in
    incr pos;
    x := !x lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then fin := true
  done;
  (* nine bytes reach the sign bit; the encoder never writes a negative *)
  if !x < 0 then E.corrupt "varint overflow";
  !x

(* ---------------------------------------------------------------- encode *)

let encode g =
  let b = Buffer.create (16 + (2 * Graph.m g)) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  put_varint b (Graph.n g);
  put_varint b (Graph.m g);
  let pu = ref (-1) and pv = ref 0 in
  Graph.iter_edges g (fun u v ->
      let du = u - !pu in
      put_varint b du;
      if du > 0 then put_varint b (v - u - 1) else put_varint b (v - !pv - 1);
      pu := u;
      pv := v);
  let body = Buffer.contents b in
  let ck =
    Tfree_util.Checksum.sum16 (Bytes.unsafe_of_string body) (String.length magic)
      (String.length body - String.length magic)
  in
  Buffer.add_char b (Char.chr (ck land 0xff));
  Buffer.add_char b (Char.chr ((ck lsr 8) land 0xff));
  Buffer.contents b

(* ---------------------------------------------------------------- decode *)

let decode s =
  let len = String.length s in
  let mlen = String.length magic in
  if len < mlen || String.sub s 0 mlen <> magic then E.corrupt "bad magic (not a snapshot)";
  if len < mlen + 1 + 2 + 2 then E.truncated "snapshot shorter than its fixed header";
  let stored = Char.code s.[len - 2] lor (Char.code s.[len - 1] lsl 8) in
  let computed = Tfree_util.Checksum.sum16 (Bytes.unsafe_of_string s) mlen (len - 2 - mlen) in
  if stored <> computed then
    E.corrupt "checksum mismatch (stored %04x, computed %04x)" stored computed;
  let v = Char.code s.[mlen] in
  if v <> version then E.corrupt "unsupported snapshot version %d" v;
  let pos = ref (mlen + 1) in
  let limit = len - 2 in
  let n = get_varint s pos limit in
  let m = get_varint s pos limit in
  (* every edge costs at least two bytes (two varints) *)
  if m > (limit - !pos) / 2 then
    E.corrupt "header declares m=%d but the body holds at most %d edges" m ((limit - !pos) / 2);
  (* Non-negative deltas make the pairs strictly increasing with u < v (the
     first edge's u = -1 + du fails the range check when du = 0), so they
     fill the buffer in the sorted order the build takes without a sort. *)
  let buf = Graph.Edge_buf.create m in
  let pu = ref (-1) and pv = ref 0 in
  for _ = 1 to m do
    let du = get_varint s pos limit in
    let dv = get_varint s pos limit in
    let u = !pu + du in
    let v = if du > 0 then u + 1 + dv else !pv + 1 + dv in
    if u < 0 || v < 0 || u >= n || v >= n then
      E.corrupt "decoded edge (%d,%d) out of range (n=%d)" u v n;
    pu := u;
    pv := v;
    Graph.Edge_buf.add buf u v
  done;
  if !pos <> limit then E.corrupt "%d trailing bytes after the last edge" (limit - !pos);
  let g = Graph.of_sorted_buf ~n buf in
  if Graph.m g <> m then
    E.corrupt "header declares m=%d but %d distinct edges decoded" m (Graph.m g);
  g

(* ------------------------------------------------------------------ file *)

let save g path =
  try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (encode g))
  with Sys_error msg -> E.io "%s" msg

let load path =
  let content =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error msg -> E.io "%s" msg
  in
  decode content
