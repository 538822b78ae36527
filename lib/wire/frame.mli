(** Length-prefixed framing of one protocol message: varint length,
    varint payload bit count, layout descriptor, a payload of exactly
    [Msg.bits] bits, and a 2-byte mod-2^16 checksum that detects every
    single bit-flip in the body — the one {!Proto} frame, sealed and
    verified through {!Proto}'s code.  Everything except the payload bits
    is framing overhead, so [8 * frame_bytes - payload_bits] per frame
    reconciles wire bytes against the cost ledger.  Parsing fails closed
    with typed {!Wire_error.Wire_error}s ([Oversized] / [Truncated] /
    [Corrupt]) — never out-of-bounds reads, unbounded allocation, or
    string-matched exceptions. *)

open Tfree_comm

(** The whole frame for a message. *)
val encode : Msg.t -> Bytes.t

(** Parse one frame from a buffer at [!pos]; advances [pos] past it.
    @raise Wire_error.Wire_error on truncation, an oversized or inconsistent
    length, a checksum mismatch, or an undecodable payload. *)
val decode : Bytes.t -> int ref -> Msg.t

val overhead_bits : frame_bytes:int -> payload_bits:int -> int

(** Loopback round trip: write the frame, read it back from the same
    stream, decode.  Returns the delivered message and the frame size.
    @raise Wire_error.Wire_error as for {!decode}, plus whatever the
    transport raises ([Truncated] / [Peer_closed]). *)
val exchange : Transport.t -> Msg.t -> Msg.t * int
