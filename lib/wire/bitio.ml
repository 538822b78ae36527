(** Bit-granular I/O over byte buffers.

    The cost model charges messages in bits, not bytes ({!Tfree_util.Bits}),
    so the wire codec must be able to emit a 1-bit boolean as one bit.  The
    writer packs bits MSB-first into bytes; the reader walks the same stream.
    Padding to the byte boundary happens only once per frame, at
    {!to_bytes}, and is accounted as framing overhead by the caller — never
    folded into the payload. *)

type writer = {
  buf : Buffer.t;
  mutable acc : int;  (* pending bits, left-aligned as they arrive *)
  mutable pending : int;  (* number of pending bits in [acc], < 8 *)
  mutable written : int;  (* total bits written *)
}

let writer () = { buf = Buffer.create 64; acc = 0; pending = 0; written = 0 }

let bits_written w = w.written

let put_bit w b =
  w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
  w.pending <- w.pending + 1;
  w.written <- w.written + 1;
  if w.pending = 8 then begin
    Buffer.add_char w.buf (Char.chr w.acc);
    w.acc <- 0;
    w.pending <- 0
  end

(* Append [width <= 48] bits: with at most 7 pending, the accumulator
   stays within 55 bits, and every whole byte is emitted from the top. *)
let put_chunk w ~width v =
  let acc = (w.acc lsl width) lor v in
  let left = ref (w.pending + width) in
  while !left >= 8 do
    left := !left - 8;
    Buffer.add_char w.buf (Char.unsafe_chr ((acc lsr !left) land 0xff))
  done;
  w.acc <- acc land ((1 lsl !left) - 1);
  w.pending <- !left;
  w.written <- w.written + width

(** Write [v] in exactly [width] bits, most significant first.
    @raise Invalid_argument if [v] needs more than [width] bits. *)
let put_bits w ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitio.put_bits: width out of range";
  if v < 0 || (width < 62 && v lsr width <> 0) then
    invalid_arg "Bitio.put_bits: value does not fit width";
  if width <= 48 then put_chunk w ~width v
  else begin
    put_chunk w ~width:(width - 24) (v lsr 24);
    put_chunk w ~width:24 (v land 0xffffff)
  end

(** Elias-gamma code for a nonnegative integer: exactly
    {!Tfree_util.Bits.elias_gamma}[ v] bits — [nb] zeros, then [v + 1] in
    [nb + 1] bits, which is [v + 1] in [2nb + 1] bits. *)
let put_gamma w v =
  if v < 0 then invalid_arg "Bitio.put_gamma: negative";
  let x = v + 1 in
  let rec log2floor acc y = if y <= 1 then acc else log2floor (acc + 1) (y lsr 1) in
  let nb = log2floor 0 x in
  if (2 * nb) + 1 <= 62 then put_bits w ~width:((2 * nb) + 1) x
  else begin
    put_bits w ~width:nb 0;
    put_bits w ~width:(nb + 1) x
  end

(** Flush to bytes, zero-padding the last partial byte on the right.  The
    pad is [8*|bytes| - bits_written] bits of framing overhead. *)
let to_bytes w =
  if w.pending > 0 then begin
    Buffer.add_char w.buf (Char.chr (w.acc lsl (8 - w.pending)));
    w.acc <- 0;
    w.pending <- 0
  end;
  Buffer.to_bytes w.buf

type reader = { data : Bytes.t; off : int; mutable pos : int; limit : int }

(** Read bits from [len] bytes of [data] starting at byte [off]. *)
let reader ?(off = 0) ?len data =
  let len = match len with Some l -> l | None -> Bytes.length data - off in
  { data; off; pos = 0; limit = len * 8 }

let bits_read r = r.pos

let get_bit r =
  if r.pos >= r.limit then invalid_arg "Bitio.get_bit: past end of stream";
  let byte = Char.code (Bytes.get r.data (r.off + (r.pos lsr 3))) in
  let b = (byte lsr (7 - (r.pos land 7))) land 1 in
  r.pos <- r.pos + 1;
  b = 1

(* Up to a whole byte's worth of bits per step; a read that would run past
   the end fails before consuming anything. *)
let get_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitio.get_bits: width out of range";
  if r.pos + width > r.limit then invalid_arg "Bitio.get_bit: past end of stream";
  let v = ref 0 and need = ref width in
  while !need > 0 do
    let byte = Char.code (Bytes.get r.data (r.off + (r.pos lsr 3))) in
    let avail = 8 - (r.pos land 7) in
    let take = if !need < avail then !need else avail in
    v := (!v lsl take) lor ((byte lsr (avail - take)) land ((1 lsl take) - 1));
    r.pos <- r.pos + take;
    need := !need - take
  done;
  !v

let get_gamma r =
  let nb = ref 0 in
  while not (get_bit r) do
    incr nb
  done;
  (* the 1 bit just consumed is the MSB of x *)
  let rest = get_bits r ~width:!nb in
  ((1 lsl !nb) lor rest) - 1
