(** The compact binary snapshot format: a parsed corpus serialized once so
    the daemon loads it in milliseconds instead of re-parsing text or
    regenerating instances per query.

    Layout (all integers unsigned LEB128 varints, as in the wire [Proto]):

    {v
    "TFS1"                         4-byte magic
    version                        1 byte, currently 1
    n  m                           varints
    per edge, lexicographic:       du = u - prev_u        (first prev_u = -1)
                                   then  v - u - 1        if du > 0 (row changed)
                                   or    v - prev_v - 1   if du = 0 (same row)
    checksum                       2 bytes LE: sum16 of everything after the
                                   magic, before these bytes
    v}

    Because the edge list is sorted and deduplicated, every delta is
    non-negative and small, so a million-edge graph costs a handful of
    bits per edge.  {!decode} fails closed with a typed
    {!Dataset_error.Dataset_error}: bad magic, unsupported version, any
    truncation, a checksum mismatch (catches every single bit flip), a
    varint reaching the sign bit, a declared edge count the body is too
    short to hold (rejected before allocating), out-of-range endpoints,
    trailing bytes, or a decoded edge count that disagrees with the
    header.  The deltas decode straight into sorted adjacency rows, with
    no sort pass. *)

open Tfree_graph

val magic : string

val encode : Graph.t -> string

(** @raise Dataset_error.Dataset_error on any malformed image. *)
val decode : string -> Graph.t

val save : Graph.t -> string -> unit

(** @raise Dataset_error.Dataset_error on unreadable or malformed input. *)
val load : string -> Graph.t
