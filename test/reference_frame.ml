(* The Buffer-based per-message frame encoder from before [Frame] sealed
   through [Proto]'s frame code, kept as the oracle the new encoder must
   match byte for byte. *)

open Tfree_util
open Tfree_comm
module Codec = Tfree_wire.Codec

let encode msg =
  let payload, payload_bits = Codec.encode_payload msg in
  let layout = Codec.layout_to_bytes (Msg.layout msg) in
  let body = Buffer.create (Bytes.length payload + Bytes.length layout + 6) in
  Codec.put_varint body payload_bits;
  Buffer.add_bytes body layout;
  Buffer.add_bytes body payload;
  let ck = Checksum.sum16 (Buffer.to_bytes body) 0 (Buffer.length body) in
  Buffer.add_char body (Char.chr (ck land 0xff));
  Buffer.add_char body (Char.chr (ck lsr 8));
  let frame = Buffer.create (Buffer.length body + 2) in
  Codec.put_varint frame (Buffer.length body);
  Buffer.add_buffer frame body;
  Buffer.to_bytes frame
