(** Length-prefixed message framing.

    Frame format — the one {!Proto} frame, whose body here is a message:

    {v
    varint  L              length in bytes of everything after this varint
    varint  payload_bits   exact payload length in bits
    layout  descriptor     self-delimiting (Codec.layout_to_bytes)
    payload bytes          ceil(payload_bits / 8), right-padded
    2 bytes checksum       sum mod 2^16 of every body byte before it
    v}

    The payload occupies exactly [Msg.bits] bits ({!Codec.encode_payload}
    asserts it); everything else — length prefix, bit count, descriptor,
    final padding, checksum — is framing overhead.  Per frame,
    [8 * total_bytes - payload_bits] is that overhead, so over a run
    [wire_bytes * 8 - framing_overhead_bits = accounted_bits] holds exactly
    when the ledger and the transport agree.

    Sealing and verifying go through {!Proto}'s frame code: its length cap
    ({!Proto.max_frame_bytes}) raises [Oversized], a body the buffer
    cannot supply raises [Truncated], and a checksum mismatch, impossible
    length combination or undecodable payload raises [Corrupt] — all typed
    {!Wire_error.Wire_error}s, so a fault injected below this layer can
    abort a run but never smuggle a wrong message past it. *)

open Tfree_comm

(** The whole frame for [msg]. *)
let encode msg =
  let payload, payload_bits = Codec.encode_payload msg in
  let layout = Codec.layout_to_bytes (Msg.layout msg) in
  let b = Proto.create_buf ~capacity:(Bytes.length payload + Bytes.length layout + 24) () in
  Proto.begin_frame b;
  Proto.put_varint b payload_bits;
  Proto.put_bytes b layout;
  Proto.put_bytes b payload;
  Proto.end_frame b;
  Bytes.sub (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b)

(** Parse one frame from [data] at [!pos]; advances [pos] past it.  The
    checksum is verified before any length arithmetic or payload decode. *)
let decode data pos =
  let start = !pos and cur = Proto.cursor () in
  match Proto.try_frame ~who:"Frame" data ~pos:start ~limit:(Bytes.length data) cur with
  | -1 ->
      (* a whole length prefix promising more than the buffer holds (a
         cut-off prefix raises from the varint read itself) *)
      let p = ref start in
      let body_len = Codec.get_varint data p in
      Wire_error.errorf_truncated "Frame.decode: length field %d larger than the %d-byte buffer"
        body_len
        (Bytes.length data - !p)
  | frame_len ->
      (* [cur] covers the body without its checksum *)
      let body_len = Proto.remaining cur in
      let ck_off = start + frame_len - 2 in
      if body_len < 2 then
        Wire_error.errorf_corrupt "Frame: body of %d bytes is shorter than any frame"
          (body_len + 2);
      let p = ref (ck_off - body_len) in
      let payload_bits = Codec.get_varint data p in
      let layout = Codec.get_layout data p in
      if !p + ((payload_bits + 7) / 8) <> ck_off then
        Wire_error.errorf_corrupt
          "Frame: inconsistent frame lengths (%d-bit payload in a %d-byte body)" payload_bits
          (body_len + 2);
      let msg = Codec.decode_payload layout ~off:!p ~bits:payload_bits data in
      pos := start + frame_len;
      msg

(** Overhead of the frame [bytes] carrying a [payload_bits]-bit payload. *)
let overhead_bits ~frame_bytes ~payload_bits = (8 * frame_bytes) - payload_bits

(** Loopback round trip: the frame crosses the transport and comes back
    decoded.  Returns the delivered message and the frame size. *)
let exchange tr msg =
  let frame = encode msg in
  let back = Transport.exchange tr frame in
  let pos = ref 0 in
  let msg' = decode back pos in
  if !pos <> Bytes.length back then
    Wire_error.errorf_corrupt "Frame.exchange: %d trailing bytes after the frame"
      (Bytes.length back - !pos);
  (msg', Bytes.length frame)
