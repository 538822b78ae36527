(** Splittable pseudo-random number generator.

    The paper's protocols rely on {e shared randomness}: all players and the
    coordinator interpret the same public random bits, e.g. to agree on a
    random priority order over vertices (Algorithm 1) or on a sampled vertex
    set (Algorithms 7--10) without communicating.  We realize this with a
    SplitMix64 generator: a stream is identified by a 64-bit state, and
    [split] derives a statistically independent child stream from a parent
    stream and an integer key.  Two parties holding the same root seed derive
    identical streams for identical key paths, which is exactly the shared-
    randomness abstraction.

    In addition to stateful streams we expose {e stateless keyed hashing}
    ([hash_float], [hash_bool], ...): a pure function of (stream, key) used to
    implement shared random priorities and shared Bernoulli marks over huge
    index spaces without materializing them. *)

(* State at byte 0, salt at byte 8.  The 64-bit words are read and written
   through the unboxed bytes primitives, so a draw allocates nothing: the
   int64 arithmetic stays in registers from load to result. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] state t = get64 t 0
let[@inline] salt t = get64 t 8

let make ~state ~salt =
  let t = Bytes.create 16 in
  set64 t 0 state;
  set64 t 8 salt;
  t

let golden = 0x9E3779B97F4A7C15L

(* 2^53: a 53-bit draw m maps to the float m / 2^53 in [0, 1), exactly. *)
let two53 = 9007199254740992.0

(* SplitMix64 finalizer: a strong 64-bit mixing permutation. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = make ~state:(mix64 (Int64.of_int seed)) ~salt:(mix64 (Int64.add (Int64.of_int seed) golden))

let copy t = Bytes.copy t

let[@inline] next t =
  let s = Int64.add (state t) golden in
  set64 t 0 s;
  mix64 (Int64.logxor s (salt t))

let next_int64 t = next t

(** [split t key] derives an independent child stream.  The child depends
    only on the {e current} state of [t] and [key]; it does not advance [t],
    so parties that agree on [t]'s state and the key derive the same child. *)
let split t key =
  let k = mix64 (Int64.logxor (salt t) (Int64.of_int key)) in
  make ~state:(mix64 (Int64.logxor (state t) k)) ~salt:(mix64 (Int64.add k golden))

(* The top 53 bits of a 64-bit output, as an exact float in [0, 2^53).
   They fit an [int], whose conversion is one instruction; [Int64.to_float]
   is a C call. *)
let[@inline] mantissa h = Float.of_int (Int64.to_int (Int64.shift_right_logical h 11))

let[@inline] hash_key t key = mix64 (Int64.logxor (Int64.add (state t) (Int64.of_int key)) (salt t))

(** Stateless keyed hash in [0, 1). *)
let hash_float t key = mantissa (hash_key t key) /. two53

(** Stateless keyed hash over a pair of keys, in [0, 1). *)
let hash_float2 t key1 key2 = mantissa (mix64 (Int64.add (hash_key t key1) (Int64.of_int key2))) /. two53

(* m / 2^53 < p  iff  m < p * 2^53: both divisions by a power of two are
   exact, so the comparison agrees with the float one bit for bit. *)
let hash_bool t key ~p = mantissa (hash_key t key) < p *. two53

(* One pass with the stream words and the threshold held in registers: the
   per-key cost is the mix alone, where a [hash_bool] call per key would
   also pay the call and the reloads. *)
let hash_bool_bits t ~p marks ~bit =
  let st = state t and sa = salt t and threshold = p *. two53 in
  let b = 1 lsl bit in
  for v = 0 to Bytes.length marks - 1 do
    let c = Char.code (Bytes.get marks v) land lnot b in
    let h = mix64 (Int64.logxor (Int64.add st (Int64.of_int v)) sa) in
    Bytes.set marks v (Char.unsafe_chr (if mantissa h < threshold then c lor b else c))
  done

(** Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let float t = mantissa (next t) /. two53

let bool t ~p = mantissa (next t) < p *. two53

(** Geometric number of failures before first success with parameter [p];
    used for fast Bernoulli-subset sampling by skipping.  A quotient past
    the int range (tiny [p]) saturates at [max_int]: [Float.to_int] of it
    is unspecified. *)
let geometric t ~p =
  if p >= 1.0 then 0
  else if p <= 0.0 then max_int
  else begin
    let u = float t in
    let u = if u <= 0.0 then 1e-300 else u in
    let q = Float.floor (Float.log u /. Float.log1p (-.p)) in
    if not (Float.is_finite q && q < float_of_int max_int) then max_int
    else begin
      let g = Float.to_int q in
      if g < 0 then 0 else g
    end
  end
