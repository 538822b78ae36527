(* The end-to-end run: a real [tfree serve] daemon (default settings, one
   process, cache 32, v2 negotiation) driven by this one process in a
   closed loop over {!connections} client connections.  Each exchange
   opens its own connection through the library client, exactly as
   [tfree client] does, and the connection sends its next exchange only
   after the previous reply arrived. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Wire = Tfree_wire.Wire_runtime
module Jsonout = Tfree_util.Jsonout

(* Closed-loop client connections: one per core of the machine this was
   tuned on, which has two. *)
let connections = 2

let fail fmt = Printf.ksprintf (fun msg -> failwith msg) fmt
let now = Unix.gettimeofday

(* ------------------------------------------------------------- daemon *)

type daemon = { pid : int; path : string }

(* Daemons still running, stopped on any exit path. *)
let live : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

let spawn ~tfree ~path ~log ~manifest =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let args =
    [ tfree; "serve"; "--socket"; path ]
    @ match manifest with Some m -> [ "--datasets"; m; "--preload" ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process tfree (Array.of_list args) null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  { pid; path }

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (( <> ) d.pid) !live;
      false
  | exception Unix.Unix_error _ -> false

(* Poll [health] until the daemon answers (it binds after loading any
   preloaded dataset). *)
let wait_healthy d =
  let deadline = now () +. 60.0 in
  let rec loop () =
    match Service.client_health ~timeout_s:5.0 ~protocol:Proto.V2 ~path:d.path () with
    | Ok _ -> ()
    | Error msg ->
        if not (alive d) then fail "daemon exited before answering health (%s)" msg;
        if now () > deadline then fail "daemon never answered health: %s" msg;
        Unix.sleepf 0.001;
        loop ()
  in
  loop ()

let stop d =
  Service.client_shutdown ~protocol:Proto.V2 ~path:d.path ();
  let deadline = now () +. 10.0 in
  while alive d && now () < deadline do
    Unix.sleepf 0.005
  done;
  if List.mem d.pid !live then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    live := List.filter (( <> ) d.pid) !live
  end;
  try Unix.unlink d.path with Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of [pid], in clock ticks (/proc/<pid>/stat fields 14, 15). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string f.(11) + int_of_string f.(12)

(* CPU time the hypervisor ran other guests while this machine's CPUs
   wanted to run ("steal" in /proc/stat), summed over CPUs, in ticks. *)
let steal_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  int_of_string (List.nth (List.filter (( <> ) "") (String.split_on_char ' ' line)) 8)

(* Peak resident set (VmHWM) of [pid], in KiB. *)
let peak_rss_kib pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* ---------------------------------------------------------- exchanges *)

let exchange ~path (ex : Workload.exchange) =
  try
    match ex.Workload.query with
    | Workload.Gen r -> Service.client_query ~protocol:ex.Workload.proto ~path r
    | Workload.Ds d -> Service.client_dataset ~protocol:ex.Workload.proto ~path d
  with e -> Error (Printexc.to_string e)

type sample = {
  ex : Workload.exchange;
  t0 : float;
  t1 : float;
  result : (Service.response, string) result;
}

let ok s = Result.is_ok s.result

type setup = { seconds : float; stolen : int; warm : sample list }

(* Set-up: spawn to first health reply, then the warm-up pass. *)
let setup ~tfree ~path ~log ~manifest (w : Workload.t) =
  let steal0 = steal_ticks () and t0 = now () in
  let d = spawn ~tfree ~path ~log ~manifest in
  wait_healthy d;
  let warm =
    List.map
      (fun ex ->
        let t = now () in
        let result = exchange ~path ex in
        { ex; t0 = t; t1 = now (); result })
      w.Workload.warmup
  in
  (d, { seconds = now () -. t0; stolen = steal_ticks () - steal0; warm })

(* One stretch of the closed loop: {!connections} threads, each sending
   its next exchange only after the previous reply, drawing workload
   indices from [next], while [go ()] holds. *)
let closed_loop ~path ~next ~go (w : Workload.t) =
  let results = Array.make connections [] in
  let loop c =
    let acc = ref [] in
    while go () do
      let i = Atomic.fetch_and_add next 1 in
      let ex = w.Workload.item i in
      let t0 = now () in
      let result = exchange ~path ex in
      acc := { ex; t0; t1 = now (); result } :: !acc
    done;
    results.(c) <- !acc
  in
  let threads = List.init connections (fun c -> Thread.create loop c) in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* ------------------------------------------------------- verification *)

(* The in-process reference for every distinct query, run off the clock
   without a cache. *)
let reference ~registry =
  let tbl = Hashtbl.create 64 in
  fun (q : Workload.query) ->
    match Hashtbl.find_opt tbl q with
    | Some r -> r
    | None ->
        let r =
          match q with
          | Workload.Gen req -> Service.run_request req
          | Workload.Ds dreq -> (
              match registry with
              | Some registry -> Service.run_dataset_request ~registry dreq
              | None -> fail "dataset query without a registry")
        in
        Hashtbl.add tbl q r;
        r

let same (a : Service.response) (b : Service.response) =
  compare a.Service.verdict b.Service.verdict = 0
  && a.Service.bits = b.Service.bits
  && a.Service.rounds = b.Service.rounds
  && a.Service.max_message = b.Service.max_message
  && compare a.Service.wire b.Service.wire = 0

(* Every OK reply must reconcile, never claim a triangle in a free
   instance, and equal the in-process reference.  Returns the problems. *)
let verify ~reference samples =
  List.filter_map
    (fun s ->
      match s.result with
      | Error _ -> None
      | Ok resp ->
          let q = s.ex.Workload.query in
          let what = Workload.describe q in
          if not (Wire.reconciles resp.Service.wire) then
            Some (Printf.sprintf "%s: wire report does not reconcile" what)
          else if
            Workload.is_free q
            && match resp.Service.verdict with Tfree.Tester.Triangle _ -> true | _ -> false
          then Some (Printf.sprintf "%s: TRIANGLE on a triangle-free instance" what)
          else if not (same resp (reference q)) then
            Some (Printf.sprintf "%s: reply differs from the in-process run" what)
          else None)
    samples

(* ---------------------------------------------------------- telemetry *)

let num path j =
  let rec go j = function
    | [] -> Jsonout.to_float j
    | k :: rest -> Option.bind (Jsonout.member k j) (fun j -> go j rest)
  in
  match go j path with Some v -> v | None -> fail "stats: no %s" (String.concat "." path)

let phases = [ "read"; "parse"; "cache_lookup"; "run"; "encode"; "write" ]

(* The daemon's own counters against the generator's tallies.  Every
   served query is one parse, lookup, run and encode sample; read and
   write also count the one health exchange of set-up, and the stats
   request being answered has been read but not yet written. *)
let cross_check stats ~served ~distinct_keys =
  let problems = ref [] in
  let expect what got want =
    if got <> want then
      problems := Printf.sprintf "daemon %s = %d, expected %d" what got want :: !problems
  in
  let count p = int_of_float (num [ "phases"; p; "count" ] stats) in
  expect "queries_served" (int_of_float (num [ "queries_served" ] stats)) served;
  expect "cache misses" (int_of_float (num [ "cache"; "misses" ] stats)) distinct_keys;
  expect "cache hits" (int_of_float (num [ "cache"; "hits" ] stats)) (served - distinct_keys);
  List.iter (fun p -> expect (p ^ " count") (count p) served) [ "parse"; "cache_lookup"; "run"; "encode" ];
  expect "read count" (count "read") (served + 2);
  expect "write count" (count "write") (served + 1);
  List.rev !problems

(* ------------------------------------------------------ steal monitor *)

(* What a monitor thread reads every [period] seconds during a slice: the
   time, the machine's steal counter and the daemon's CPU ticks. *)
type mark = { at : float; steal : int; cpu : int }

(* Starts the monitor; the returned function stops it and gives the marks
   in time order, the first taken before and the last after every
   exchange of the slice. *)
let monitor ~pid ~period =
  let marks = ref [] and running = Atomic.make true in
  let take () = marks := { at = now (); steal = steal_ticks (); cpu = cpu_ticks pid } :: !marks in
  take ();
  let th =
    Thread.create
      (fun () ->
        while Atomic.get running do
          Thread.delay period;
          take ()
        done)
      ()
  in
  fun () ->
    Atomic.set running false;
    Thread.join th;
    take ();
    Array.of_list (List.rev !marks)

(* The intervals between consecutive marks that are clean: neither they
   nor the next one saw the steal counter move.  The next one counts
   because the kernel books stolen time at its next tick on that CPU,
   which may fall in the next interval.  Steal is host interference, not
   work of the program: a stolen stretch stalls the daemon and the
   clients at random, so figures taken over it say more about the
   neighbours than about tfree. *)
let clean_intervals marks =
  let n = Array.length marks - 1 in
  let dirty i = i >= 0 && i < n && marks.(i + 1).steal > marks.(i).steal in
  Array.init (max 0 n) (fun i -> not (dirty i || dirty (i + 1)))

(* The interval holding time [t]. *)
let interval_of marks t =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if marks.(mid).at <= t then go mid hi else go lo mid
  in
  min (go 0 (Array.length marks - 1)) (Array.length marks - 2)

(* ------------------------------------------------------------ summary *)

type slice = {
  samples : sample list;  (** every exchange of the slice *)
  clean : sample list;  (** the OK exchanges that lay wholly in clean intervals *)
  seconds : float;
  clean_s : float;  (** time in clean intervals *)
  replies : int;  (** OK replies that ended in clean intervals *)
  cpu_ticks : int;  (** daemon CPU over clean intervals *)
  stolen_ticks : int;
}

let clean_share s = s.clean_s /. s.seconds

type result = {
  setup_s : float;  (** median of the quiet set-ups *)
  setups : (float * int * bool) list;  (** every set-up: seconds, steal ticks, quiet *)
  attempted : int;
  ok : int;
  failed : int;
  window_s : float;
  slices : slice list;
  qps : float;  (** OK replies per second over the clean intervals *)
  latencies_ms : float array;  (** sorted, the clean exchanges *)
  cpu_ms_per_query : float;  (** daemon CPU per OK reply over the same intervals *)
  steal_share : float;  (** share of the window's CPU time the hypervisor stole *)
  by_proto : (Proto.pref * float array) list;  (** the same, per wire protocol *)
  peak_rss_kib : int;
  stats : Jsonout.t;
  handshake_us : float list;  (** connect + v2 handshake probes, when asked *)
  problems : string list;
  first_error : string option;
}

(* Nearest-rank percentile of a sorted array and the samples beyond it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    (sorted.(rank - 1), n - rank)

let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  fst (percentile a q)

let median l = quantile l 0.5

(* Sorted latencies in ms of the OK samples that pass [keep]. *)
let latencies ?(keep = fun _ -> true) samples =
  let a =
    Array.of_list
      (List.filter_map (fun s -> if ok s && keep s then Some ((s.t1 -. s.t0) *. 1e3) else None) samples)
  in
  Array.sort compare a;
  a

(* One slice's clean sums from its exchanges and its monitor marks. *)
let summarize samples marks =
  let clean_iv = clean_intervals marks in
  let len i = marks.(i + 1).at -. marks.(i).at in
  let clean_s = ref 0.0 and cpu = ref 0 in
  Array.iteri
    (fun i c ->
      if c then begin
        clean_s := !clean_s +. len i;
        cpu := !cpu + marks.(i + 1).cpu - marks.(i).cpu
      end)
    clean_iv;
  let last = Array.length marks - 1 in
  let seconds = marks.(last).at -. marks.(0).at in
  let ends_clean s = ok s && clean_iv.(interval_of marks s.t1) in
  let wholly_clean s =
    let rec all i j = i > j || (clean_iv.(i) && all (i + 1) j) in
    ok s && all (interval_of marks s.t0) (interval_of marks s.t1)
  in
  {
    samples;
    clean = List.filter wholly_clean samples;
    seconds;
    clean_s = !clean_s;
    replies = List.length (List.filter ends_clean samples);
    cpu_ticks = !cpu;
    stolen_ticks = marks.(last).steal - marks.(0).steal;
  }

(* Set-ups that ran while the hypervisor stole at most 2% of the
   machine's CPU time, or the least-stolen half when fewer than half
   qualify.  A set-up is short enough to be judged whole. *)
let quiet_setups ~nproc ~clk_tck (setups : setup list) =
  let calm =
    List.filter (fun st -> float_of_int st.stolen <= 0.02 *. float_of_int nproc *. st.seconds *. clk_tck) setups
  in
  let half = (List.length setups + 1) / 2 in
  if List.length calm >= half then calm
  else List.filteri (fun i _ -> i < half) (List.stable_sort (fun a b -> compare a.stolen b.stolen) setups)

(* Connect, send the v2 hello, read the 2-byte answer, close: the per-
   exchange cost every client pays before its first request byte. *)
let handshake_probe ~path count =
  let hello = Bytes.of_string (Proto.hello Proto.max_version) in
  let answer = Bytes.create 2 in
  List.init count (fun _ ->
      let t0 = now () in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sock)
        (fun () ->
          Unix.connect sock (Unix.ADDR_UNIX path);
          ignore (Unix.write sock hello 0 2);
          let got = ref 0 in
          while !got < 2 do
            let n = Unix.read sock answer !got (2 - !got) in
            if n = 0 then fail "handshake probe: daemon closed";
            got := !got + n
          done;
          if Bytes.get answer 0 <> Proto.magic then fail "handshake probe: bad answer");
      (now () -. t0) *. 1e6)

(* A run: set-up, then the timed window in [slices] equal slices, each
   watched by a {!monitor} every 20 ms.  After each slice but the last,
   one more set-up repetition (spawn, health, warm-up, stop) runs while
   the measured daemon idles, so the set-up times sample the whole run,
   as the slices do, rather than one moment of a machine whose speed
   drifts.  Figures are pooled over the clean intervals of all slices,
   and over the quiet set-ups.  The window goes on past [seconds], one
   slice at a time and up to twice as long again, only while the slices
   hold fewer than [min_ok] clean OK exchanges; a run that still falls
   short has a p99 with fewer than ten samples beyond it and is not
   correct. *)
let run ~tfree ~out ~nproc ~seconds ~slices ~min_ok ~manifest ~probe ~clk_tck ~reference
    (w : Workload.t) =
  let log = Filename.concat out "serve.log" in
  let path i = Filename.concat out (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) i) in
  let d, first_setup = setup ~tfree ~path:(path 0) ~log ~manifest w in
  let next = Atomic.make 0 in
  let slice_s = seconds /. float_of_int slices in
  let slice j =
    let stop_monitor = monitor ~pid:d.pid ~period:0.02 in
    let t_end = now () +. slice_s in
    let samples = closed_loop ~path:d.path ~next ~go:(fun () -> now () < t_end) w in
    let s = summarize samples (stop_monitor ()) in
    let extra =
      if j >= slices - 1 then []
      else
        let d', st = setup ~tfree ~path:(path (j + 1)) ~log ~manifest w in
        stop d';
        [ st ]
    in
    (s, extra)
  in
  let clean_ok l = List.fold_left (fun acc (s, _) -> acc + List.length s.clean) 0 l in
  let t_start = now () in
  let rec grow per_slice =
    if clean_ok per_slice >= min_ok || now () -. t_start > 3.0 *. seconds then per_slice
    else grow (per_slice @ [ slice (List.length per_slice) ])
  in
  let per_slice = grow (List.init slices slice) in
  let all_slices = List.map fst per_slice in
  let setups = first_setup :: List.concat_map snd per_slice in
  let quiet = quiet_setups ~nproc ~clk_tck setups in
  let rss = peak_rss_kib d.pid in
  let stats =
    match Service.client_stats ~protocol:Proto.V2 ~path:d.path () with
    | Ok s -> s
    | Error msg -> fail "stats: %s" msg
  in
  let handshake_us = if probe then handshake_probe ~path:d.path 400 else [] in
  stop d;
  let samples = List.concat_map (fun s -> s.samples) all_slices in
  let warm_all = List.concat_map (fun st -> st.warm) setups in
  let served = List.length (List.filter ok (first_setup.warm @ samples)) in
  let keys = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.replace keys (Workload.key s.ex.Workload.query) ())
    (first_setup.warm @ samples);
  let bad_warm = List.filter (fun s -> not (ok s)) warm_all in
  let clean_n = clean_ok per_slice in
  let problems =
    (if bad_warm = [] then [] else [ Printf.sprintf "%d warm-up exchange(s) failed" (List.length bad_warm) ])
    @ (if clean_n >= min_ok then []
       else [ Printf.sprintf "p99 undersampled: %d clean OK exchanges, %d needed" clean_n min_ok ])
    @ cross_check stats ~served ~distinct_keys:(Hashtbl.length keys)
    @ verify ~reference (warm_all @ samples)
  in
  let pooled = List.concat_map (fun s -> s.clean) all_slices in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 all_slices in
  let replies = float_of_int (max 1 (sum (fun s -> s.replies))) in
  let ok_n = List.length (List.filter ok samples) in
  let window_s = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 all_slices in
  let stolen = List.fold_left (fun acc s -> acc + s.stolen_ticks) 0 all_slices in
  {
    setup_s = median (List.map (fun (st : setup) -> st.seconds) quiet);
    setups = List.map (fun (st : setup) -> (st.seconds, st.stolen, List.memq st quiet)) setups;
    attempted = List.length samples;
    ok = ok_n;
    failed = List.length samples - ok_n;
    window_s;
    slices = all_slices;
    qps = replies /. List.fold_left (fun acc s -> acc +. s.clean_s) 0.0 all_slices;
    latencies_ms = latencies pooled;
    cpu_ms_per_query = float_of_int (sum (fun s -> s.cpu_ticks)) *. 1000.0 /. clk_tck /. replies;
    steal_share = float_of_int stolen /. (float_of_int nproc *. window_s *. clk_tck);
    by_proto =
      List.filter_map
        (fun p ->
          let a = latencies ~keep:(fun s -> s.ex.Workload.proto = p) pooled in
          if Array.length a = 0 then None else Some (p, a))
        [ Proto.V2; Proto.V1 ];
    peak_rss_kib = rss;
    stats;
    handshake_us;
    problems;
    first_error =
      List.find_map (fun s -> match s.result with Error e -> Some e | Ok _ -> None) (bad_warm @ samples);
  }
