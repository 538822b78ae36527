(** Byte transports: duplex byte streams.  {!pipe} is an in-memory FIFO
    (deterministic tests/experiments); {!socketpair} moves real bytes
    through a Unix-domain socket pair; {!faulty} wraps either of them with a deterministic fault-injection schedule.  All failure
    modes raise the typed {!Wire_error.Wire_error}. *)

type t

(** "pipe", "socketpair", or the wrapped form "<kind>+faulty". *)
val kind : t -> string

(** Write the whole buffer. *)
val send : t -> Bytes.t -> unit

(** Loopback round trip: write the buffer, read the same number of bytes
    back.  Deadlock-free on the socketpair even for buffers larger than the
    kernel socket buffer ([select]-interleaved). *)
val exchange : t -> Bytes.t -> Bytes.t

val close : t -> unit

val pipe : unit -> t
val socketpair : unit -> t

(** [faulty ~schedule tr] injects the scheduled faults into [tr]: the
    [op]-th write through the wrapper (0-based; [counter] shares the op
    numbering across several wrapped transports, e.g. one per channel of a
    wire network) suffers the fault named for it — [Drop] swallows the
    buffer, [Corrupt] flips one bit, [Truncate] delivers a proper prefix,
    [Delay] holds the buffer until the op counter passes (benign), [Partial]
    splits the write in two (benign), [Close] closes the stream.  On
    loopback transports the wrapper's read side raises a typed [Truncated]
    instead of blocking when injected faults starved the stream, so a chaos
    run can fail closed but never hang.  Deterministic: same
    schedule, same traffic, same faults. *)
val faulty : ?counter:int ref -> schedule:Fault.schedule -> t -> t
