(** The byte-sum checksum shared by the v2 wire frames, the per-message
    wire frames and the TFS1 graph snapshots. *)

(** [sum16 data off len] is the sum of the bytes [data[off, off+len)] mod
    2^16.  It catches every single bit flip: a flip moves one byte by ±2^k
    with k ≤ 7, which cannot vanish mod 2^16.
    @raise Invalid_argument when the range is not inside [data]. *)
val sum16 : Bytes.t -> int -> int -> int
