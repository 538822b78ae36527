(** Byte transports.

    A transport is a duplex byte stream.  Two in-process loopback
    implementations back the wire runtime — an in-memory {!pipe} for
    deterministic tests and a real Unix-domain {!socketpair}.

    Loopback transports support {!exchange}: write a buffer and read the
    same number of bytes back from the stream.  On the socketpair this is a
    [select]-interleaved loop, so a frame larger than the kernel socket
    buffer cannot deadlock the single-process sender/receiver pair.

    All failure modes raise the typed {!Wire_error.Wire_error} — underruns
    as [Truncated], a gone peer as [Peer_closed] — never a bare
    [Invalid_argument]/[Failure] callers would have to string-match.

    {!faulty} wraps any transport with a deterministic {!Fault.schedule}:
    the [op]-th write through the wrapper suffers the scheduled fault
    (drop, bit-flip, truncation, delay, split write, peer close), and the
    wrapper's read side refuses to block on bytes an injected fault made
    unavailable — so chaos runs can crash with a typed error but can never
    hang. *)

type t = {
  kind : string;
  send : Bytes.t -> unit;  (** write the whole buffer *)
  recv : int -> Bytes.t;  (** read exactly this many bytes *)
  exchange : Bytes.t -> Bytes.t;  (** loopback: write all, read back the same length *)
  close : unit -> unit;
}

let kind t = t.kind
let send t b = t.send b
let exchange t b = t.exchange b
let close t = t.close ()

(* ----------------------------------------------------------------- pipe *)

(** In-memory FIFO of bytes: writes append, reads consume in order.
    Deterministic, allocation-only — the default for tests and experiments. *)
let pipe () =
  let buf = Buffer.create 256 in
  let pos = ref 0 in
  let send b = Buffer.add_bytes buf b in
  let recv n =
    if Buffer.length buf - !pos < n then
      Wire_error.errorf_truncated "Transport.pipe: read of %d bytes but only %d buffered" n
        (Buffer.length buf - !pos);
    let out = Bytes.create n in
    Buffer.blit buf !pos out 0 n;
    pos := !pos + n;
    (* Reclaim consumed space once everything in flight has been read. *)
    if !pos = Buffer.length buf then begin
      Buffer.clear buf;
      pos := 0
    end;
    out
  in
  {
    kind = "pipe";
    send;
    recv;
    exchange = (fun b -> send b; recv (Bytes.length b));
    close = (fun () -> ());
  }

(* ------------------------------------------------------------- unix fds *)

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let read_exact fd n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let r = Unix.read fd out !off (n - !off) in
    if r = 0 then
      Wire_error.error
        (Wire_error.Peer_closed
           (Printf.sprintf "Transport: peer closed with %d of %d bytes read" !off n));
    off := !off + r
  done;
  out

(* Write [b] while draining the read side, so a buffer larger than the
   kernel's socket buffer cannot wedge a single-process loopback. *)
let exchange_fds ~wr ~rd b =
  let len = Bytes.length b in
  let out = Bytes.create len in
  let w = ref 0 and r = ref 0 in
  while !w < len || !r < len do
    let ws = if !w < len then [ wr ] else [] in
    let rs = if !r < len then [ rd ] else [] in
    let readable, writable, _ = Unix.select rs ws [] (-1.0) in
    if writable <> [] then w := !w + Unix.write wr b !w (min 65536 (len - !w));
    if readable <> [] then begin
      let got = Unix.read rd out !r (len - !r) in
      if got = 0 then
        Wire_error.error (Wire_error.Peer_closed "Transport: peer closed mid-exchange");
      r := !r + got
    end
  done;
  out

(** A connected [AF_UNIX]/[SOCK_STREAM] pair in one process: writes enter
    one end, reads drain the other — real kernel-crossing bytes. *)
let socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let closed = ref false in
  {
    kind = "socketpair";
    send = (fun buf -> write_all a buf);
    recv = (fun n -> read_exact b n);
    exchange = (fun buf -> exchange_fds ~wr:a ~rd:b buf);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ()
        end);
  }

(* --------------------------------------------------------------- faulty *)

(* The fault-injecting wrapper.  Every wrapper [send] (and every fast-path
   [exchange]) consumes one op of the shared [counter]; the schedule names
   ops to sabotage.  The wrapper tracks delivered-minus-consumed bytes for
   loopback transports, so a read that an injected drop/truncate starved
   raises [Truncated] instead of blocking forever — the no-hang half of the
   chaos contract lives here, the no-wrong-verdict half in the frame
   checksum and the wire tap's echo check. *)
let faulty ?(counter = ref 0) ~schedule inner =
  let closed = ref false in
  let pending = Queue.create () in
  (* delayed sends: (release_op, bytes) — release once the op counter passes *)
  let delivered = ref 0 and consumed = ref 0 in
  let loopback = inner.kind = "pipe" || inner.kind = "socketpair" in
  let deliver b =
    inner.send b;
    delivered := !delivered + Bytes.length b
  in
  let flush_due () =
    let rec go () =
      match Queue.peek_opt pending with
      | Some (due, b) when due <= !counter ->
          ignore (Queue.pop pending);
          deliver b;
          go ()
      | _ -> ()
    in
    go ()
  in
  let flush_all () =
    while not (Queue.is_empty pending) do
      deliver (snd (Queue.pop pending))
    done
  in
  let guard () =
    if !closed then Wire_error.error (Wire_error.Peer_closed "injected peer-close")
  in
  let send b =
    guard ();
    let op = !counter in
    incr counter;
    flush_due ();
    match Fault.find schedule op with
    | None -> deliver b
    | Some Fault.Drop -> ()
    | Some (Fault.Corrupt { bit }) ->
        let c = Bytes.copy b in
        let len = Bytes.length c in
        if len > 0 then begin
          let bi = bit mod (8 * len) in
          Bytes.set c (bi / 8)
            (Char.chr (Char.code (Bytes.get c (bi / 8)) lxor (1 lsl (bi mod 8))))
        end;
        deliver c
    | Some (Fault.Truncate { keep }) ->
        let len = Bytes.length b in
        deliver (Bytes.sub b 0 (min keep (max 0 (len - 1))))
    | Some (Fault.Delay { amount }) -> Queue.push (op + max 1 amount, Bytes.copy b) pending
    | Some (Fault.Partial { at }) ->
        let len = Bytes.length b in
        let cut = min (max 1 at) (max 0 (len - 1)) in
        deliver (Bytes.sub b 0 cut);
        deliver (Bytes.sub b cut (len - cut))
    | Some Fault.Close ->
        closed := true;
        inner.close ()
  in
  let recv n =
    guard ();
    flush_all ();
    if loopback && !delivered - !consumed < n then
      Wire_error.errorf_truncated
        "Transport.faulty: read of %d bytes but an injected fault left only %d in flight" n
        (!delivered - !consumed)
    else begin
      let out = inner.recv n in
      consumed := !consumed + n;
      out
    end
  in
  let exchange b =
    guard ();
    let len = Bytes.length b in
    if Fault.find schedule !counter = None && Queue.is_empty pending then begin
      (* fault-free op on a clean stream: delegate to the deadlock-free
         underlying exchange (matters for frames beyond the kernel buffer) *)
      incr counter;
      delivered := !delivered + len;
      let out = inner.exchange b in
      consumed := !consumed + len;
      out
    end
    else begin
      send b;
      recv len
    end
  in
  {
    kind = inner.kind ^ "+faulty";
    send;
    recv;
    exchange;
    close = (fun () -> inner.close ());
  }
