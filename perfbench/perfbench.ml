(* Served-query benchmark for tfree-serve.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--nproc P] [--clk-tck T] [--rev REV]

   Runs one workload (chatty-hot, build-churn or tiny-mixed, see
   workload.ml) against a live [tfree serve] daemon for S seconds and
   prints every metric as "name value unit" lines, then one JSON result
   line last.  With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the same run is followed by the traced in-process replay and
   the metrics are the per-layer ones.  Every reply is checked; a wrong
   reply or a daemon counter that disagrees with the generator's tallies
   makes the result [correct: false].  Each run's record (metrics plus
   rev, nproc, seed, counts, sample counts, run length) is appended to
   perfbench/out/results.jsonl for compare.py.  Run it from the repository
   root after building bin/main.exe; perfbench/run.py does both. *)

module Service = Tfree_wire.Service
module Jsonout = Tfree_util.Jsonout

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tfree = "_build/default/bin/main.exe" and out = "perfbench/out" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let clk_tck = ref 100.0 and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  chatty-hot | build-churn | tiny-mixed");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or per-layer metrics from the replay");
      ("--nproc", Arg.Set_int nproc, "P  usable cores; more connections than this are refused");
      ("--clk-tck", Arg.Set_float clk_tck, "T  kernel clock ticks per second (/proc CPU times)");
      ("--rev", Arg.Set_string rev, "REV  source revision recorded with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt in
  let w =
    match Workload.of_name !workload !seed with
    | Some w -> w
    | None -> die "unknown workload %S (one of %s)" !workload (String.concat ", " Workload.all)
  in
  if !nproc < E2e.connections then
    die "refusing %d connections: the generator opens at most nproc = %d" E2e.connections !nproc;
  if not (Sys.file_exists tfree) then die "no tfree binary at %s" tfree;
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let manifest =
    Option.map
      (fun (ds : Workload.dataset) ->
        let dir = Filename.concat out "datasets" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let manifest = Filename.concat dir "datasets.json" in
        (try Sys.remove manifest with Sys_error _ -> ());
        let args =
          [| tfree; "dataset"; "gen"; "--manifest"; manifest; ds.Workload.ds_name; "--instance";
             Service.family_to_string ds.Workload.ds_family; "-n"; string_of_int ds.Workload.ds_n;
             "-d"; Printf.sprintf "%g" ds.Workload.ds_d; "--seed"; string_of_int ds.Workload.ds_seed |]
        in
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid = Unix.create_process tfree args null null Unix.stderr in
        Unix.close null;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> die "tfree dataset gen failed");
        manifest)
      w.Workload.dataset
  in
  let registry = Option.map Tfree_dataset.Registry.load manifest in
  let reference = E2e.reference ~registry in
  let traced = !trace = 1 in
  let e =
    E2e.run ~tfree ~out ~nproc:!nproc ~seconds:!seconds ~slices:10 ~min_ok:1000
      ~manifest ~probe:traced ~clk_tck:!clk_tck ~reference w
  in
  let replay_problems = ref [] in
  let check q resp =
    if not (E2e.same resp (reference q)) then
      replay_problems := ("replay: reply differs for " ^ Workload.describe q) :: !replay_problems
  in
  let replay =
    if traced then Some (Replay.run_all ~out ~registry ~manifest ~check ~reference w) else None
  in
  let problems = e.E2e.problems @ List.rev !replay_problems in
  let p50, _ = E2e.percentile e.E2e.latencies_ms 0.5 in
  let p99, beyond_p99 = E2e.percentile e.E2e.latencies_ms 0.99 in
  let ok = float_of_int e.E2e.ok in
  let phase_mean p = E2e.num [ "phases"; p; "mean" ] e.E2e.stats in
  let cpu_per_query = e.E2e.cpu_ms_per_query in
  let end_to_end =
    [
      ("qps", e.E2e.qps, "queries/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_p99_ms", p99, "ms");
      ("server_cpu_ms_per_query", cpu_per_query, "ms");
      ("server_peak_rss_mb", float_of_int e.E2e.peak_rss_kib /. 1024.0, "MiB");
      ("ok_ratio", ok /. float_of_int e.E2e.attempted, "ratio");
      ("setup_s", e.E2e.setup_s, "s");
    ]
  in
  let failed_ratio = float_of_int e.E2e.failed /. float_of_int e.E2e.attempted in
  let per_layer =
    match replay with
    | None -> []
    | Some r ->
        r.Replay.metrics
        @ [ ("client.connect_handshake_us", E2e.median e.E2e.handshake_us, "us") ]
        @ List.map (fun p -> (Printf.sprintf "serve.%s_mean_us" p, phase_mean p, "us")) E2e.phases
        @ [
            ( "exchange.front_share",
              1.0 -. ((phase_mean "run" +. phase_mean "cache_lookup") /. 1000.0 /. cpu_per_query),
              "ratio" );
          ]
  in
  (* human-readable report *)
  Printf.printf "workload %s (%s)\n" w.Workload.name w.Workload.why;
  Printf.printf "record: rev=%s nproc=%d seed=%d connections=%d window=%.3fs host steal=%.1f%%\n" !rev
    !nproc !seed E2e.connections e.E2e.window_s (100.0 *. e.E2e.steal_share);
  (* "*" marks the set-ups the figure comes from *)
  let mark q = if q then "*" else "" in
  Printf.printf "set-ups (s, steal ticks):%s\n"
    (String.concat "" (List.map (fun (t, st, q) -> Printf.sprintf " %.4f/%d%s" t st (mark q)) e.E2e.setups));
  Printf.printf "slices (clean qps, daemon cpu ms/query, clean share, steal ticks):%s\n"
    (String.concat ""
       (List.map
          (fun (s : E2e.slice) ->
            let replies = float_of_int (max 1 s.E2e.replies) in
            Printf.sprintf " %.1f/%.3f/%.2f/%d" (replies /. s.E2e.clean_s)
              (float_of_int s.E2e.cpu_ticks *. 1000.0 /. !clk_tck /. replies)
              (E2e.clean_share s) s.E2e.stolen_ticks)
          e.E2e.slices));
  Printf.printf "queries: attempted=%d ok=%d failed=%d failed_ratio=%g%s\n" e.E2e.attempted e.E2e.ok
    e.E2e.failed failed_ratio
    (match e.E2e.first_error with Some m -> " first error: " ^ m | None -> "");
  Printf.printf "latency samples (clean exchanges): %d, %d beyond p99\n"
    (Array.length e.E2e.latencies_ms) beyond_p99;
  List.iter
    (fun (proto, a) ->
      let q x = fst (E2e.percentile a x) in
      Printf.printf "  %s exchanges: %d, latency ms p5 %.4f p50 %.4f p95 %.4f p99 %.4f\n"
        (Tfree_wire.Proto.pref_to_string proto) (Array.length a) (q 0.05) (q 0.5) (q 0.95) (q 0.99))
    e.E2e.by_proto;
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.6f %s\n" n v u) end_to_end;
  Printf.printf "  %-32s %14.6f %s\n" "failed_ratio" failed_ratio "ratio";
  (match replay with
  | None -> ()
  | Some r ->
      Printf.printf "traced replay: %d queries, %d spans\n" w.Workload.replay_queries r.Replay.spans.Spans.len;
      List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.6f %s\n" n v u) per_layer;
      Printf.printf "layer shares (self time / replayed query time):";
      List.iter (fun (l, s) -> Printf.printf " %s=%.3f" l s) r.Replay.layer_shares;
      print_newline ();
      let share l = List.assoc l r.Replay.layer_shares in
      let claim, met =
        match w.Workload.name with
        | "chatty-hot" ->
            ( "run (core+wire) is the largest share and the wire tap is over half of it",
              share "core" +. share "wire" > 0.5 && share "wire" > share "core" )
        | "build-churn" ->
            ( "graph build+partition is the largest share",
              List.for_all (fun (l, s) -> l = "graph" || s <= share "graph") r.Replay.layer_shares )
        | _ ->
            ( "daemon CPU outside lookup+run (connect, handshake, codecs, I/O) is at least a third",
              List.assoc "exchange.front_share" (List.map (fun (n, v, _) -> (n, v)) per_layer) >= 1.0 /. 3.0 )
      in
      Printf.printf "design claim: %s: %s\n" claim (if met then "met" else "NOT met");
      let spans_path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" w.Workload.name !seed) in
      Spans.write r.Replay.spans spans_path;
      Printf.printf "spans written to %s\n" spans_path);
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) problems;
  let metrics = if traced then per_layer else end_to_end in
  let metric_json (n, v, u) = (n, Jsonout.Obj [ ("value", Jsonout.Num v); ("unit", Jsonout.Str u) ]) in
  let num i = Jsonout.Num (float_of_int i) in
  let record =
    Jsonout.Obj
      [
        ("rev", Jsonout.Str !rev); ("nproc", num !nproc); ("workload", Jsonout.Str w.Workload.name);
        ("seed", num !seed); ("trace", num !trace); ("connections", num E2e.connections);
        ("seconds", Jsonout.Num !seconds); ("window_s", Jsonout.Num e.E2e.window_s);
        ("attempted", num e.E2e.attempted); ("ok", num e.E2e.ok); ("failed", num e.E2e.failed);
        ("latency_samples", num (Array.length e.E2e.latencies_ms)); ("beyond_p99", num beyond_p99);
        ("steal_share", Jsonout.Num e.E2e.steal_share);
        ("handshake_samples", num (List.length e.E2e.handshake_us));
        ("correct", Jsonout.Bool (problems = []));
        ("metrics", Jsonout.Obj (List.map metric_json metrics));
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out "results.jsonl") in
  output_string oc (Jsonout.to_line record ^ "\n");
  close_out oc;
  print_endline
    (Jsonout.to_line
       (Jsonout.Obj
          [
            ("correct", Jsonout.Bool (problems = []));
            ("attempted", num e.E2e.attempted);
            ("failed", num e.E2e.failed);
            ("metrics", Jsonout.Obj (List.map metric_json metrics));
          ]))
