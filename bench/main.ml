(* Benchmark harness.

   Running with no arguments regenerates every table and figure of the
   paper over one pipeline instance (the trace-driven experiments of
   Sections 4 and 7) and then times the computational kernels behind each
   table with Bechamel (one Test.make cluster per table).

   Arguments:
     table1 | figure2 | reuse | table2 | figure3 | table3 | table4
       | ablation | fetch | stream | fused | store | layout | micro
       — run a single part
     --quick                   — reduced kernel and scale factor
     --scale SF                — override the TPC-D scale factor
     --seed N                  — master seed (Pipeline.seeded derivation)
     --jobs N                  — domains for the simulation grid; with
                                 N > 1 the grid is also timed serially
                                 and the speedup reported
     --naive                   — fetch part: replay through the
                                 pre-packed (View-per-cell) engine path
                                 only, instead of packed + naive baseline
     --metrics FILE            — export run metrics as JSONL to FILE
     --trace FILE              — record per-domain timeline events and
                                 write Chrome trace_event JSON to FILE
                                 (Perfetto / tools/trace_report)
     --progress                — rate/ETA progress lines on stderr
     --store DIR               — artifact store for the pipeline and the
                                 simulation grids (see Stc_store)

   The [fetch] part is the fetch-replay microbench: it times the same
   simulation cells through Engine.run_packed (a one-slot Engine.Bank)
   and Engine.run_naive,
   checks the results are identical, prints blocks/sec and the packed
   speedup (plus a --jobs N parallel replay), and writes the numbers to
   BENCH_fetch.json. Both BENCH_*.json artifacts carry a "provenance"
   record (Meta.provenance: git commit, OCaml version, hostname, jobs)
   so perf numbers stay attributable.

   The [stream] part is the segment-pipeline macrobench: it replays the
   same cell slice through Engine.run_stream (a one-slot bank over
   bounded off-heap segments,
   Source -> Stream -> engine), serially and on a --jobs domain pool,
   asserts the results identical to the materialized packed replay, and
   appends a provenance-stamped record to BENCH_fetch.json (one JSON
   object per line).

   The [fused] part is the fused-replay macrobench: it rebuilds the full
   Table 3/4 grid shape, compiles each layout's packed image once, and
   times the replay per-cell (one Engine.run_packed sweep per cell, i.e.
   a one-slot Engine.Bank) against the fused path (one Engine.Bank sweep per layout, serially
   and with whole groups on a --jobs pool), asserts all result arrays
   identical and the better fused configuration >= 2x the per-cell
   baseline, and appends a provenance-stamped record to
   BENCH_fetch.json.

   The [store] part is the artifact-store macrobench: it runs the full
   pipeline + Table 3/4 grid twice against the same store — once cold,
   once warm — checks the rows are identical, prints the cold/warm wall
   times and writes them to BENCH_store.json. Without --store it uses a
   fresh temporary store (removed afterwards) so the cold pass really is
   cold.

   The [layout] part times plan construction for every algorithm in the
   Stc_layout.Algo registry (cold and warm, at the 16KB/4KB check
   geometry) and writes one provenance-stamped record per algorithm to
   BENCH_layout.json. *)

module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module L = Stc_layout
module F = Stc_fetch
module P = Stc_profile

let parse_args () =
  let quick = ref false
  and scale = ref None
  and seed = ref None
  and jobs = ref (max 1 (Domain.recommended_domain_count () - 1))
  and metrics = ref None
  and trace = ref None
  and progress = ref false
  and naive = ref false
  and store = ref None
  and parts = ref [] in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--naive" :: rest ->
      naive := true;
      go rest
    | "--scale" :: v :: rest ->
      scale := Some (float_of_string v);
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_of_string v);
      go rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      go rest
    | "--metrics" :: v :: rest ->
      metrics := Some v;
      go rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      go rest
    | "--progress" :: rest ->
      progress := true;
      go rest
    | "--store" :: v :: rest ->
      store := Some v;
      go rest
    | part :: rest ->
      parts := part :: !parts;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  ( !quick,
    !scale,
    !seed,
    !jobs,
    !metrics,
    !trace,
    !progress,
    !naive,
    !store,
    List.rev !parts )

let ( quick,
      scale,
      seed,
      jobs,
      metrics_file,
      trace_file,
      progress,
      naive,
      store,
      parts ) =
  parse_args ()

(* Fail on unwritable --metrics/--trace paths before the run. *)
let () =
  List.iter
    (fun (what, file) ->
      match file with
      | None -> ()
      | Some path -> (
        try close_out (open_out path)
        with Sys_error e ->
          Printf.eprintf "bench: cannot write %s file: %s\n" what e;
          exit 1))
    [ ("metrics", metrics_file); ("trace", trace_file) ]

let wants part = parts = [] || List.mem part parts

let registry = Stc_obs.Registry.create ()

(* Only built when --trace was given: an absent tracer is one branch per
   instrumentation site, so untraced bench numbers stay untouched. *)
let tracer =
  match trace_file with Some _ -> Some (Stc_obs.Trace.create ()) | None -> None

module Run = Stc_core.Run

let ctx =
  let c =
    Run.default |> Run.with_metrics registry |> Run.with_progress progress
    |> Run.with_jobs jobs
  in
  let c = match seed with Some s -> Run.with_seed s c | None -> c in
  let c = match store with Some dir -> Run.with_store dir c | None -> c in
  match tracer with Some t -> Run.with_trace t c | None -> c

let pipeline =
  lazy
    (let config =
       if quick then Pipeline.quick_config else Pipeline.default_config
     in
     let config =
       match scale with Some sf -> { config with Pipeline.sf } | None -> config
     in
     Printf.printf "[setup] building kernel and traces (sf=%.4g)...\n%!"
       config.Pipeline.sf;
     let t0 = Unix.gettimeofday () in
     let pl = Pipeline.run ~ctx ~config () in
     Printf.printf "[setup] done in %.1fs (test trace: %d blocks)\n\n%!"
       (Unix.gettimeofday () -. t0)
       (Stc_trace.Recorder.length pl.Pipeline.test);
     pl)

let section title = Printf.printf "==== %s ====\n%!" title

(* ---------- Figure 3: the trace-building worked example ---------- *)

let print_figure3 () =
  section "Figure 3 (trace building example)";
  let prog, profile, seeds = Stc_core.Figure3.graph () in
  ignore prog;
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.4 }
      ~seeds
  in
  List.iteri
    (fun i seq ->
      Printf.printf "  %s trace: %s\n"
        (if i = 0 then "Main     " else "Secondary")
        (String.concat " -> " (List.map (Stc_core.Figure3.label) seq)))
    seqs

(* ---------- table reproductions ---------- *)

let run_tables () =
  let pl = lazy (Lazy.force pipeline) in
  let pl () = Lazy.force pl in
  if wants "table1" then begin
    section "Table 1";
    E.print_table1 (E.table1 (pl ()));
    print_newline ()
  end;
  if wants "figure2" then begin
    section "Figure 2";
    E.print_figure2 (pl ());
    print_newline ()
  end;
  if wants "reuse" then begin
    section "Reuse (Section 4.1)";
    E.print_reuse (E.reuse (pl ()));
    print_newline ()
  end;
  if wants "table2" then begin
    section "Table 2";
    E.print_table2 (E.table2 (pl ()));
    print_newline ()
  end;
  if wants "figure3" then begin
    print_figure3 ();
    print_newline ()
  end;
  if wants "table3" || wants "table4" then begin
    section "Tables 3 and 4 (trace-driven simulation)";
    let p = pl () in
    let rows =
      if ctx.Run.jobs <= 1 then begin
        let t0 = Unix.gettimeofday () in
        let rows = E.simulate ~ctx p in
        Printf.printf "(%d simulations in %.1fs, 1 job)\n\n%!"
          (List.length rows)
          (Unix.gettimeofday () -. t0);
        rows
      end
      else begin
        (* serial baseline without metrics, then the recorded parallel run:
           same cells, so the wall-clock ratio is the pool speedup *)
        let t0 = Unix.gettimeofday () in
        let baseline = E.simulate ~ctx:{ ctx with Run.metrics = None; jobs = 1 } p in
        let t_serial = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let rows = E.simulate ~ctx p in
        let t_par = Unix.gettimeofday () -. t1 in
        Printf.printf
          "(%d simulations: %.1fs serial, %.1fs on %d jobs -> %.2fx speedup; \
           rows %s)\n\n%!"
          (List.length rows) t_serial t_par ctx.Run.jobs (t_serial /. t_par)
          (if rows = baseline then "identical" else "DIFFER (BUG)");
        rows
      end
    in
    if wants "table3" then begin
      E.print_table3 rows;
      print_newline ()
    end;
    if wants "table4" then begin
      E.print_table4 rows;
      print_newline ();
      E.print_sequentiality rows;
      print_newline ()
    end
  end;
  if wants "ablation" && parts <> [] then begin
    section "Ablation";
    E.print_ablation (E.ablation ~ctx (pl ()));
    print_newline ()
  end;
  if wants "extensions" then begin
    section "Extensions (Section 8 future work)";
    let p = pl () in
    Stc_core.Extensions.print_inlining (Stc_core.Extensions.inlining ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_oltp (Stc_core.Extensions.oltp ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_prediction
      (Stc_core.Extensions.prediction ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_tuning ~ctx p;
    print_newline ();
    Stc_core.Extensions.print_per_query (Stc_core.Extensions.per_query ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_fetch_units
      (Stc_core.Extensions.fetch_units ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_associativity
      (Stc_core.Extensions.associativity ~ctx p);
    print_newline ()
  end

(* ---------- fetch-replay microbench (packed vs naive engine) ---------- *)

module J = Stc_obs.Json

(* Replays the test trace through a representative slice of the Table 3/4
   grid (two layouts x {ideal, direct 16KB, direct 16KB + trace cache})
   with both engine paths, asserts the results are identical, and records
   the throughput in BENCH_fetch.json. With [--naive] only the pre-packed
   path runs (with metrics), so @equiv-smoke can diff the two exports. *)
(* The representative Table 3/4 slice the [fetch] and [stream] parts
   replay: two layouts x {ideal, direct 16KB, direct 16KB + TC}. *)
let bench_slice pl =
  let prog = pl.Pipeline.program in
  let profile = pl.Pipeline.profile in
  let params =
    L.Stc.params ~exec_threshold:20 ~branch_threshold:0.3 ~cache_bytes:16384
      ~cfa_bytes:4096 ()
  in
  let layouts =
    [
      ("orig", L.Original.layout prog);
      ( "ops",
        L.Stc.layout profile ~name:"ops" ~params
          ~seeds:(L.Stc.ops_seeds profile) );
    ]
  in
  let variants =
    [
      ("ideal", fun () -> (None, None));
      ( "direct-16k",
        fun () -> (Some (Stc_cachesim.Icache.create ~size_bytes:16384 ()), None)
      );
      ( "tc-16k",
        fun () ->
          ( Some (Stc_cachesim.Icache.create ~size_bytes:16384 ()),
            Some (F.Tracecache.create ()) ) );
    ]
  in
  let cells =
    List.concat_map
      (fun (_lname, layout) -> List.map (fun (_v, mk) -> (layout, mk)) variants)
      layouts
  in
  (prog, layouts, variants, cells)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fetch_bench () =
  section
    (if naive then "Fetch replay (naive engine path)"
     else "Fetch replay (packed vs naive engine)");
  let pl = Lazy.force pipeline in
  let trace = pl.Pipeline.test in
  let blocks = Stc_trace.Recorder.length trace in
  let prog, layouts, variants, cells = bench_slice pl in
  let n_cells = List.length cells in
  let total_blocks = n_cells * blocks in
  let bps wall = float_of_int total_blocks /. wall in
  let run_all_naive ?ctx () =
    List.map
      (fun (layout, mk) ->
        let icache, tc = mk () in
        let view =
          F.View.create prog layout (Stc_trace.Source.of_recorder trace)
        in
        F.Engine.run_naive ?ctx ?icache ?trace_cache:tc view)
      cells
  in
  let run_all_packed ?ctx compiled =
    List.map
      (fun (layout, mk) ->
        let icache, tc = mk () in
        F.Engine.run_packed ?ctx ?icache ?trace_cache:tc
          (List.assq layout compiled))
      cells
  in
  Printf.printf "  %d cells (%d layouts x %d variants), %d blocks each\n%!"
    n_cells (List.length layouts) (List.length variants) blocks;
  let fields =
    if naive then begin
      let _rs, wall = time (fun () -> run_all_naive ~ctx ()) in
      Printf.printf "  naive : %6.2fs  %11.0f blocks/s\n%!" wall (bps wall);
      [
        ("mode", J.Str "naive");
        ("blocks_per_sec", J.Float (bps wall));
        ("jobs", J.Int 1);
        ("cells", J.Int n_cells);
        ("wall_s", J.Float wall);
        ("blocks", J.Int total_blocks);
      ]
    end
    else begin
      let naive_rs, naive_wall = time (fun () -> run_all_naive ()) in
      (* the packed wall clock includes compiling both layouts: the honest
         end-to-end cost of the fast path *)
      let (compiled, packed_rs), packed_wall =
        time (fun () ->
            let compiled =
              List.map
                (fun (_n, layout) ->
                  ( layout,
                    F.Packed.compile prog layout
                      (Stc_trace.Source.of_recorder trace) ))
                layouts
            in
            (compiled, run_all_packed ~ctx compiled))
      in
      let identical = naive_rs = packed_rs in
      let speedup = naive_wall /. packed_wall in
      Printf.printf "  naive : %6.2fs  %11.0f blocks/s\n%!" naive_wall
        (bps naive_wall);
      Printf.printf "  packed: %6.2fs  %11.0f blocks/s  (%.2fx, results %s)\n%!"
        packed_wall (bps packed_wall) speedup
        (if identical then "identical" else "DIFFER (BUG)");
      if not identical then begin
        Printf.eprintf "bench fetch: packed results differ from naive\n";
        exit 1
      end;
      let base =
        [
          ("mode", J.Str "packed");
          ("cells", J.Int n_cells);
          ("blocks", J.Int total_blocks);
          ("naive_blocks_per_sec", J.Float (bps naive_wall));
          ("naive_wall_s", J.Float naive_wall);
          ("speedup", J.Float speedup);
        ]
      in
      if jobs > 1 then begin
        let par_rs, par_wall =
          time (fun () ->
              Stc_par.Pool.with_pool ~domains:jobs ?trace:tracer
              @@ fun pool ->
              Array.to_list
                (Stc_par.Pool.map ~chunk:1 pool
                   (fun (layout, mk) ->
                     let icache, tc = mk () in
                     F.Engine.run_packed ?icache ?trace_cache:tc
                       (List.assq layout compiled))
                   (Array.of_list cells)))
        in
        Printf.printf
          "  packed --jobs %d: %6.2fs  %11.0f blocks/s  (results %s)\n%!" jobs
          par_wall (bps par_wall)
          (if par_rs = packed_rs then "identical" else "DIFFER (BUG)");
        if par_rs <> packed_rs then begin
          Printf.eprintf "bench fetch: parallel results differ from serial\n";
          exit 1
        end;
        base
        @ [
            ("blocks_per_sec", J.Float (bps par_wall));
            ("jobs", J.Int jobs);
            ("wall_s", J.Float par_wall);
            ("serial_blocks_per_sec", J.Float (bps packed_wall));
            ("serial_wall_s", J.Float packed_wall);
          ]
      end
      else
        base
        @ [
            ("blocks_per_sec", J.Float (bps packed_wall));
            ("jobs", J.Int 1);
            ("wall_s", J.Float packed_wall);
          ]
    end
  in
  let oc = open_out "BENCH_fetch.json" in
  output_string oc
    (J.to_string (J.Obj (fields @ [ ("provenance", Meta.provenance ~jobs) ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [fetch] BENCH_fetch.json written\n\n%!"

(* ---------- streamed-replay macrobench (segment pipeline) ---------- *)

(* Replays the bench slice through the segment pipeline
   (Source -> Stream -> Engine.run_stream): once serially as the
   materialized packed baseline, once streamed serially, and once
   streamed on a --jobs domain pool. All three result lists must be
   identical — streaming is an evaluation strategy, not an
   approximation. Appends one provenance-stamped JSON object to
   BENCH_fetch.json (the [fetch] part writes the first line). *)
let stream_bench () =
  section "Streamed replay (segment pipeline vs packed)";
  let pl = Lazy.force pipeline in
  let trace = pl.Pipeline.test in
  let blocks = Stc_trace.Recorder.length trace in
  let prog, layouts, variants, cells = bench_slice pl in
  let n_cells = List.length cells in
  let total_blocks = n_cells * blocks in
  let bps wall = float_of_int total_blocks /. wall in
  Printf.printf "  %d cells (%d layouts x %d variants), %d blocks each\n%!"
    n_cells (List.length layouts) (List.length variants) blocks;
  (* single-domain materialized baseline: compile once per layout, then
     replay every cell from the resident packed image *)
  let (packed_rs : F.Engine.result list), packed_wall =
    time (fun () ->
        let compiled =
          List.map
            (fun (_n, layout) ->
              ( layout,
                F.Packed.compile prog layout
                  (Stc_trace.Source.of_recorder trace) ))
            layouts
        in
        List.map
          (fun (layout, mk) ->
            let icache, tc = mk () in
            F.Engine.run_packed ?icache ?trace_cache:tc
              (List.assq layout compiled))
          cells)
  in
  let tables =
    List.map (fun (_n, layout) -> (layout, F.Packed.tables prog layout)) layouts
  in
  let run_streamed_cell (layout, mk) =
    let icache, tc = mk () in
    let stream =
      F.Stream.create (List.assq layout tables)
        (Stc_trace.Source.of_recorder trace)
    in
    F.Engine.run_stream ?icache ?trace_cache:tc stream
  in
  let stream_rs, stream_wall =
    time (fun () -> List.map run_streamed_cell cells)
  in
  let par_rs, par_wall =
    time (fun () ->
        Stc_par.Pool.with_pool ~domains:jobs ?trace:tracer @@ fun pool ->
        Array.to_list
          (Stc_par.Pool.map ~chunk:1 pool run_streamed_cell
             (Array.of_list cells)))
  in
  Printf.printf "  packed (1 domain) : %6.2fs  %11.0f blocks/s\n%!" packed_wall
    (bps packed_wall);
  Printf.printf "  stream (1 domain) : %6.2fs  %11.0f blocks/s  (results %s)\n%!"
    stream_wall (bps stream_wall)
    (if stream_rs = packed_rs then "identical" else "DIFFER (BUG)");
  Printf.printf
    "  stream --jobs %-3d : %6.2fs  %11.0f blocks/s  (%.2fx packed, results \
     %s)\n%!"
    jobs par_wall (bps par_wall)
    (bps par_wall /. bps packed_wall)
    (if par_rs = packed_rs then "identical" else "DIFFER (BUG)");
  if stream_rs <> packed_rs || par_rs <> packed_rs then begin
    Printf.eprintf "bench stream: streamed results differ from packed\n";
    exit 1
  end;
  let speedup = bps par_wall /. bps packed_wall in
  if jobs >= 4 && speedup < 2.0 then begin
    Printf.eprintf
      "bench stream: pooled streamed replay only %.2fx the packed baseline \
       on %d jobs (expected >= 2)\n"
      speedup jobs;
    exit 1
  end
  else if speedup < 2.0 then
    Printf.eprintf
      "bench stream: warning: %.2fx packed baseline on %d jobs (assertion \
       needs --jobs >= 4)\n"
      speedup jobs;
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
      "BENCH_fetch.json"
  in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("mode", J.Str "stream");
            ("cells", J.Int n_cells);
            ("blocks", J.Int total_blocks);
            ("packed_blocks_per_sec", J.Float (bps packed_wall));
            ("packed_wall_s", J.Float packed_wall);
            ("stream_blocks_per_sec", J.Float (bps stream_wall));
            ("stream_wall_s", J.Float stream_wall);
            ("blocks_per_sec", J.Float (bps par_wall));
            ("jobs", J.Int jobs);
            ("wall_s", J.Float par_wall);
            ("pool_speedup_vs_packed", J.Float speedup);
            ("provenance", Meta.provenance ~jobs);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [stream] appended to BENCH_fetch.json\n\n%!"

(* ---------- fused-replay macrobench (per-cell vs Engine.Bank) ---------- *)

(* The full Table 3/4 grid shape (the same cells Experiments.simulate
   plans on the default grid), rebuilt through the public layout API so
   the bench can time the replay alone: each distinct layout's packed
   image is compiled once, outside both timed regions — compilation is
   identical work on both paths (once per layout). Per-cell replays
   every cell through its own Engine.run_packed sweep (a one-slot
   Engine.Bank); fused replays each layout's cells as one
   Engine.Bank sweep, serially and then with whole groups
   self-scheduled on a --jobs pool (the Experiments.simulate default
   configuration). All result arrays must be identical — fusing is a
   scheduling strategy, not an approximation. *)
let grid_cells pl =
  let sc = E.default_sim_config in
  let profile = pl.Pipeline.profile in
  let mk_icache ?assoc ?victim_lines kb () =
    Stc_cachesim.Icache.create ?assoc ?victim_lines ~size_bytes:(kb * 1024) ()
  in
  let mk_tc () = F.Tracecache.create ~entries:sc.E.tc_entries () in
  let ideal () = (None, None) in
  let direct kb () = (Some (mk_icache kb ()), None) in
  let two_way kb () = (Some (mk_icache ~assoc:2 kb ()), None) in
  let victim kb () = (Some (mk_icache ~victim_lines:16 kb ()), None) in
  let tc kb () = (Some (mk_icache kb ()), Some (mk_tc ())) in
  let tc_ideal () = (None, Some (mk_tc ())) in
  let algo name =
    match L.Algo.find name with Ok a -> a | Error msg -> invalid_arg msg
  in
  let baseline_params = L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 () in
  let orig = L.Algo.layout (algo "orig") profile baseline_params in
  let ph = L.Algo.layout (algo "P&H") profile baseline_params in
  let cells = ref [] in
  let add layout mk = cells := (layout, mk) :: !cells in
  add orig ideal;
  add ph ideal;
  add orig tc_ideal;
  List.iter
    (fun (kb, cfas) ->
      add orig (direct kb);
      add orig (two_way kb);
      add orig (victim kb);
      add orig (tc kb);
      add ph (direct kb);
      List.iter
        (fun cfa ->
          let params =
            L.Algo.params ~exec_threshold:sc.E.exec_threshold
              ~branch_threshold:sc.E.branch_threshold
              ~cache_bytes:(kb * 1024) ~cfa_bytes:(cfa * 1024) ()
          in
          let torr = L.Algo.layout (algo "Torr") profile params in
          let auto = L.Algo.layout (algo "auto") profile params in
          let ops = L.Algo.layout (algo "ops") profile params in
          List.iter
            (fun l ->
              add l (direct kb);
              add l ideal)
            [ torr; auto; ops ];
          add ops (tc kb);
          add ops tc_ideal)
        cfas)
    sc.E.grid;
  let cells = Array.of_list (List.rev !cells) in
  (* fused groups: cells sharing a physical layout, first appearance
     order — the same plan Experiments.simulate executes *)
  let groups = ref [] in
  Array.iteri
    (fun i (l, _) ->
      match List.assq_opt l !groups with
      | Some r -> r := i :: !r
      | None -> groups := !groups @ [ (l, ref [ i ]) ])
    cells;
  (cells, List.map (fun (l, r) -> (l, Array.of_list (List.rev !r))) !groups)

let fused_bench () =
  section "Fused replay (per-cell vs Engine.Bank)";
  let pl = Lazy.force pipeline in
  let blocks = Stc_trace.Recorder.length pl.Pipeline.test in
  let sc = E.default_sim_config in
  let cfg =
    F.Engine.Config.make ~line_bytes:sc.E.line_bytes
      ~miss_penalty:sc.E.miss_penalty ()
  in
  let cells, groups = grid_cells pl in
  let n_cells = Array.length cells in
  let n_groups = List.length groups in
  let total_blocks = n_cells * blocks in
  let bps wall = float_of_int total_blocks /. wall in
  Printf.printf "  %d cells in %d fused groups (%.1f cells/sweep), %d blocks each\n%!"
    n_cells n_groups
    (float_of_int n_cells /. float_of_int n_groups)
    blocks;
  let compiled =
    List.map
      (fun (l, _) ->
        (l, F.Packed.compile pl.Pipeline.program l (Pipeline.test_source pl)))
      groups
  in
  let solo_rs, solo_wall =
    time (fun () ->
        Array.map
          (fun (l, mk) ->
            let icache, tc = mk () in
            F.Engine.run_packed ~config:cfg ?icache ?trace_cache:tc
              (List.assq l compiled))
          cells)
  in
  let run_group (l, idxs) =
    let specs =
      Array.map
        (fun i ->
          let _, mk = cells.(i) in
          let icache, tc = mk () in
          F.Engine.Bank.spec ~config:cfg ?icache ?trace_cache:tc ())
        idxs
    in
    (idxs, F.Engine.Bank.run_packed specs (List.assq l compiled))
  in
  let scatter per_group =
    let out = Array.make n_cells None in
    List.iter
      (fun (idxs, rs) -> Array.iteri (fun k i -> out.(i) <- Some rs.(k)) idxs)
      per_group;
    Array.map Option.get out
  in
  let fused_rs, fused_wall =
    time (fun () -> scatter (List.map run_group groups))
  in
  let par_rs, par_wall =
    time (fun () ->
        scatter
          (Stc_par.Pool.with_pool ~domains:jobs ?trace:tracer @@ fun pool ->
           Array.to_list
             (Stc_par.Pool.map ~chunk:1 pool run_group (Array.of_list groups))))
  in
  let fused_speedup = solo_wall /. fused_wall in
  let pool_speedup = solo_wall /. par_wall in
  Printf.printf "  per-cell          : %6.2fs  %11.0f blocks/s\n%!" solo_wall
    (bps solo_wall);
  Printf.printf
    "  fused (1 domain)  : %6.2fs  %11.0f blocks/s  (%.2fx, results %s)\n%!"
    fused_wall (bps fused_wall) fused_speedup
    (if fused_rs = solo_rs then "identical" else "DIFFER (BUG)");
  Printf.printf
    "  fused --jobs %-4d : %6.2fs  %11.0f blocks/s  (%.2fx per-cell, results \
     %s)\n%!"
    jobs par_wall (bps par_wall) pool_speedup
    (if par_rs = solo_rs then "identical" else "DIFFER (BUG)");
  if fused_rs <> solo_rs || par_rs <> solo_rs then begin
    Printf.eprintf "bench fused: fused results differ from per-cell\n";
    exit 1
  end;
  (* the serial sweep already halves the grid's replay time; a pool can
     only widen the gap, so the better of the two must clear 2x on any
     machine — single-core included *)
  let best = max fused_speedup pool_speedup in
  if best < 2.0 then begin
    Printf.eprintf
      "bench fused: fused replay only %.2fx the per-cell baseline \
       (expected >= 2)\n"
      best;
    exit 1
  end;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
      "BENCH_fetch.json"
  in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("mode", J.Str "fused");
            ("cells", J.Int n_cells);
            ("groups", J.Int n_groups);
            ("blocks", J.Int total_blocks);
            ("percell_blocks_per_sec", J.Float (bps solo_wall));
            ("percell_wall_s", J.Float solo_wall);
            ("fused_blocks_per_sec", J.Float (bps fused_wall));
            ("fused_wall_s", J.Float fused_wall);
            ("fused_speedup", J.Float fused_speedup);
            ("blocks_per_sec", J.Float (bps par_wall));
            ("jobs", J.Int jobs);
            ("wall_s", J.Float par_wall);
            ("pool_speedup_vs_percell", J.Float pool_speedup);
            ("provenance", Meta.provenance ~jobs);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [fused] appended to BENCH_fetch.json\n\n%!"

(* ---------- artifact-store macrobench (cold vs warm) ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Runs the whole pipeline + Table 3/4 grid twice against one store
   directory and reports the warm/cold wall-clock ratio. The rows must be
   identical — the store is a cache, not an approximation. Without
   --store the pass uses (and then removes) a private temporary store, so
   the first run is guaranteed cold and the ratio is asserted >= 2. *)
let store_bench () =
  section "Artifact store (cold vs warm)";
  let dir, fresh =
    match store with
    | Some d -> (d, false)
    | None -> (Printf.sprintf "_bench_store.%d" (Unix.getpid ()), true)
  in
  let config =
    let c = if quick then Pipeline.quick_config else Pipeline.default_config in
    match scale with Some sf -> { c with Pipeline.sf } | None -> c
  in
  (* each pass gets its own metrics-free ctx so the global registry (and
     any --metrics export) is not polluted with a duplicate run *)
  let run_once () =
    let c =
      Run.default |> Run.with_progress progress |> Run.with_jobs jobs
      |> Run.with_store dir
    in
    let c = match seed with Some s -> Run.with_seed s c | None -> c in
    let t0 = Unix.gettimeofday () in
    let pl = Pipeline.run ~ctx:c ~config () in
    let rows = E.simulate ~ctx:c pl in
    (rows, Unix.gettimeofday () -. t0)
  in
  let cold_rows, cold_wall = run_once () in
  let warm_rows, warm_wall = run_once () in
  let identical = cold_rows = warm_rows in
  let speedup = cold_wall /. warm_wall in
  Printf.printf "  cold: %6.2fs\n%!" cold_wall;
  Printf.printf "  warm: %6.2fs  (%.1fx, rows %s)\n%!" warm_wall speedup
    (if identical then "identical" else "DIFFER (BUG)");
  if not identical then begin
    Printf.eprintf "bench store: warm rows differ from cold rows\n";
    exit 1
  end;
  if fresh && speedup < 2.0 then begin
    Printf.eprintf "bench store: warm run only %.2fx faster (expected >= 2)\n"
      speedup;
    exit 1
  end;
  let oc = open_out "BENCH_store.json" in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("cold_wall_s", J.Float cold_wall);
            ("warm_wall_s", J.Float warm_wall);
            ("speedup", J.Float speedup);
            ("rows", J.Int (List.length cold_rows));
            ("jobs", J.Int jobs);
            ("fresh_store", J.Bool fresh);
            ("provenance", Meta.provenance ~jobs);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [store] BENCH_store.json written\n\n%!";
  if fresh then rm_rf dir

(* ---------- layout-algorithm plan construction ---------- *)

(* Times Algo.plan for every registered algorithm at the check-bundle
   geometry (16KB cache / 4KB CFA, grid thresholds) and writes one
   provenance-stamped record per algorithm to BENCH_layout.json. The
   cold time is what the simulation grid's serial prefix actually pays;
   a warm repeat is reported too so memoizing algorithms (codestitcher,
   exttsp cache their chains per profile) are visible as such. *)
let layout_bench () =
  section "Layout algorithms (plan construction)";
  let pl = Lazy.force pipeline in
  let profile = pl.Pipeline.profile in
  let params =
    L.Algo.params ~exec_threshold:50 ~branch_threshold:0.3
      ~cache_bytes:(16 * 1024) ~cfa_bytes:(4 * 1024) ()
  in
  let rows =
    List.map
      (fun algo ->
        let t0 = Unix.gettimeofday () in
        let plan = L.Algo.plan algo profile params in
        let cold = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let plan' = L.Algo.plan algo profile params in
        let warm = Unix.gettimeofday () -. t1 in
        ignore plan';
        let seqs = List.length plan.L.Mapping.cfa_seqs
        and others = List.length plan.L.Mapping.other_seqs in
        Printf.printf
          "  %-14s cold %8.3f ms  warm %8.3f ms  (%d CFA seqs, %d others)\n%!"
          algo.L.Algo.name (cold *. 1e3) (warm *. 1e3) seqs others;
        J.Obj
          [
            ("algo", J.Str algo.L.Algo.name);
            ("slug", J.Str algo.L.Algo.slug);
            ("uses_cfa", J.Bool algo.L.Algo.uses_cfa);
            ("cold_plan_s", J.Float cold);
            ("warm_plan_s", J.Float warm);
            ("cfa_seqs", J.Int seqs);
            ("other_seqs", J.Int others);
          ])
      (L.Algo.all ())
  in
  let oc = open_out "BENCH_layout.json" in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("part", J.Str "layout");
            ("rows", J.List rows);
            ("provenance", Meta.provenance ~jobs);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [layout] BENCH_layout.json written\n\n%!"

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  section "Bechamel micro-benchmarks (kernels behind each table)";
  let open Bechamel in
  let open Toolkit in
  (* small fixed inputs so each run is a few milliseconds at most *)
  let config = { Pipeline.quick_config with Pipeline.sf = 0.0003 } in
  let pl = Pipeline.run ~config () in
  let prog = pl.Pipeline.program in
  let profile = pl.Pipeline.profile in
  let params =
    L.Stc.params ~exec_threshold:20 ~branch_threshold:0.3 ~cache_bytes:16384
      ~cfa_bytes:4096 ()
  in
  let ops_layout =
    L.Stc.layout profile ~name:"ops" ~params ~seeds:(L.Stc.ops_seeds profile)
  in
  let view = F.View.create prog ops_layout (Pipeline.test_source pl) in
  let tests =
    [
      (* Table 1 / Figure 2 / Table 2: profiling throughput *)
      Test.make ~name:"table1-2/profile-trace"
        (Staged.stage (fun () ->
             let p = P.Profile.create prog in
             Pipeline.replay_training pl (P.Profile.sink p)));
      Test.make ~name:"table2/determinism"
        (Staged.stage (fun () -> ignore (P.Determinism.compute profile)));
      (* Figure 3 / Tables 3-4 layout side: sequence building + mapping *)
      Test.make ~name:"fig3/seqbuild"
        (Staged.stage (fun () ->
             ignore
               (L.Seqbuild.build profile ~params:params.L.Stc.seq
                  ~seeds:(L.Stc.ops_seeds profile))));
      Test.make ~name:"table3-4/stc-layout"
        (Staged.stage (fun () ->
             ignore
               (L.Stc.layout profile ~name:"ops" ~params
                  ~seeds:(L.Stc.ops_seeds profile))));
      Test.make ~name:"table3-4/pettis-hansen"
        (Staged.stage (fun () ->
             match L.Algo.find "P&H" with
             | Ok a ->
               ignore
                 (L.Algo.layout a profile
                    (L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()))
             | Error msg -> invalid_arg msg));
      (* Table 3: cache simulation throughput *)
      Test.make ~name:"table3/icache-sim"
        (Staged.stage (fun () ->
             let c = Stc_cachesim.Icache.create ~size_bytes:16384 () in
             let r = F.Engine.run ~icache:c view in
             ignore r.F.Engine.icache_misses));
      (* Table 4: fetch + trace cache simulation throughput *)
      Test.make ~name:"table4/fetch-tc-sim"
        (Staged.stage (fun () ->
             let c = Stc_cachesim.Icache.create ~size_bytes:16384 () in
             let tc = F.Tracecache.create () in
             let r = F.Engine.run ~icache:c ~trace_cache:tc view in
             ignore r.F.Engine.tc_hits));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  let grouped = Test.make_grouped ~name:"stc" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.0f ns/run" t
        | Some [] | None -> "(no estimate)"
      in
      Printf.printf "  %-28s %s\n%!" name est)
    (List.sort compare rows)

let () =
  run_tables ();
  if wants "fetch" && parts <> [] then fetch_bench ();
  if wants "stream" && parts <> [] then stream_bench ();
  if wants "fused" && parts <> [] then fused_bench ();
  if wants "store" && parts <> [] then store_bench ();
  if wants "layout" && parts <> [] then layout_bench ();
  if wants "micro" then micro ();
  (match metrics_file with
  | Some path ->
    Stc_obs.Export.write_file registry path;
    Printf.printf "[metrics] written to %s\n%!" path
  | None -> ());
  match (tracer, trace_file) with
  | Some t, Some path ->
    Stc_obs.Trace.write_file t path;
    Printf.printf "[trace] %d events written to %s%s\n%!"
      (Stc_obs.Trace.events t) path
      (match Stc_obs.Trace.dropped t with
      | 0 -> ""
      | d -> Printf.sprintf " (%d dropped: ring full)" d)
  | _ -> ()
