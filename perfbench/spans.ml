(* In-memory span recorder for the traced replay.  A span is a name, a
   start, an end, the span that caused it and the query it belongs to;
   nothing is written until [write] at the end of the run.  Spans are
   recorded from the benchmark's own code around calls into each layer's
   public functions — the program under test carries no tracing.

   An [aggregate] span stands for many disjoint sub-intervals of its
   parent summed into one duration (the per-message wire-tap calls, tens
   of thousands per query); it is stored as [start, start + total). *)

type t = {
  mutable name : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable query : int array;
  mutable aggregate : bool array;
  mutable len : int;
  mutable current : int;  (** innermost open span, -1 at top level *)
  mutable query_id : int;
}

let create () =
  let cap = 1024 in
  {
    name = Array.make cap "";
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    query = Array.make cap 0;
    aggregate = Array.make cap false;
    len = 0;
    current = -1;
    query_id = 0;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.name <- extend t.name "";
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0;
  t.parent <- extend t.parent (-1);
  t.query <- extend t.query 0;
  t.aggregate <- extend t.aggregate false

let push t ~name ~start ~stop ~aggregate =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- t.current;
  t.query.(i) <- t.query_id;
  t.aggregate.(i) <- aggregate;
  t.len <- i + 1;
  i

let now = Unix.gettimeofday

(* [span t name f] records [f ()] as a child of the innermost open span;
   [None] records nothing, which is the untraced replay. *)
let span t name f =
  match t with
  | None -> f ()
  | Some t ->
      let i = push t ~name ~start:(now ()) ~stop:nan ~aggregate:false in
      let saved = t.current in
      t.current <- i;
      Fun.protect
        ~finally:(fun () ->
          t.stop.(i) <- now ();
          t.current <- saved)
        f

let add_aggregate t name ~start ~total =
  match t with
  | None -> ()
  | Some t -> ignore (push t ~name ~start ~stop:(start +. total) ~aggregate:true)

let next_query t = match t with None -> () | Some t -> t.query_id <- t.query_id + 1
let duration t i = t.stop.(i) -. t.start.(i)

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed by name.  Children of one span never
   overlap (the replay is sequential), so "covered" is their sum. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl t.name.(i)) in
    Hashtbl.replace tbl t.name.(i) (prev +. duration t i -. child.(i))
  done;
  tbl

(* Summed duration of the top-level spans. *)
let root_total t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then s := !s +. duration t i
  done;
  !s

(* One JSON object per span, times in microseconds from the first span. *)
let write t path =
  let t0 = if t.len > 0 then t.start.(0) else 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"query\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"aggregate\":%b}\n"
          i t.name.(i) t.query.(i) t.parent.(i)
          ((t.start.(i) -. t0) *. 1e6)
          ((t.stop.(i) -. t0) *. 1e6)
          t.aggregate.(i)
      done)
