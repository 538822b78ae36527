(** Shared random vertex samples and the edges they select (see the
    interface). *)

open Tfree_graph

let create ~n = Bytes.make n '\000'

(* Is (u, v) selected, given u's mark byte [cu] (which carries a [mask]
   bit)? *)
let[@inline] selected marks ~mask ~need cu v =
  let cv = Char.code (Bytes.get marks v) in
  cv land mask <> 0 && (cu lor cv) land need = need

(* One pass over the rows of the [mask]-marked vertices, in lexicographic
   order, prepending each selected edge; only when the cap binds is the
   list cut to its first [cap] cells.  Plain loops over local refs: no
   closure, no write barrier per edge. *)
let edges input marks ~mask ~need ~cap =
  let off = Graph.off input and nbr = Graph.nbr input in
  let total = ref 0 and acc = ref [] in
  for u = 0 to Graph.n input - 1 do
    let cu = Char.code (Bytes.get marks u) in
    if cu land mask <> 0 then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        if v > u && selected marks ~mask ~need cu v then begin
          acc := (u, v) :: !acc;
          incr total
        end
      done
  done;
  if !total <= cap then !acc else List.filteri (fun i _ -> i < cap) !acc
