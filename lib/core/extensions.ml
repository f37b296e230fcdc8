module L = Stc_layout
module F = Stc_fetch
module P = Stc_profile
module Tbl = Stc_util.Tbl

(* Every extension study funnels its engine runs through here: one
   (program, layout, trace) replay against a fresh [cache_kb] i-cache of
   [assoc] ways. With [ctx.store], a prediction-free run consults the
   artifact store for its whole engine result first. Prediction runs
   always replay (a stored result cannot reconstruct the predictor's
   accuracy state); their packed image is compiled fresh, which is
   faster than reading a stored one back. *)
let fetch_run ~ctx ?(assoc = 1) ?config program layout trace ~cache_kb
    ?prediction () =
  let config =
    match config with Some c -> c | None -> F.Engine.Config.default
  in
  let replay () =
    let icache =
      Stc_cachesim.Icache.create ~assoc ~size_bytes:(cache_kb * 1024) ()
    in
    F.Engine.run_packed ~ctx ~config ~icache ?prediction
      (F.Packed.compile program layout (Stc_trace.Source.of_recorder trace))
  in
  match (Stc_store.of_ctx ctx, prediction) with
  | None, _ | Some _, Some _ -> replay ()
  | Some st, None -> (
    let key =
      Stc_store.Key.of_parts
        [
          "engine-result";
          Stc_store.Fp.program program;
          Stc_store.Fp.layout layout;
          Stc_store.Fp.trace trace;
          Stc_store.Fp.engine_config config;
          string_of_int assoc;
          string_of_int cache_kb;
        ]
    in
    match Stc_store.Result.load st ~key with
    | Some r ->
      (match ctx.Run.metrics with
      | Some reg -> F.Engine.publish reg r
      | None -> ());
      r
    | None ->
      let r = replay () in
      Stc_store.Result.save st ~key r;
      r)

(* ---------- inlining ---------- *)

type inline_row = {
  i_variant : string;
  i_layout : string;
  i_miss : float;
  i_ipc : float;
  i_ibt : float;
}

type inline_report = {
  inl_sites : int;
  inl_growth_pct : float;
  inl_rows : inline_row list;
}

let stc_layout profile ~cache_kb ~cfa_kb ~name ~seeds =
  let params =
    L.Stc.params ~exec_threshold:50 ~branch_threshold:0.3
      ~cache_bytes:(cache_kb * 1024) ~cfa_bytes:(cfa_kb * 1024) ()
  in
  L.Stc.layout profile ~name ~params ~seeds

let inlining ?(ctx = Run.default) ?config ?(cache_kb = 32) ?(cfa_kb = 8)
    (pl : Pipeline.t) =
  Run.span ctx "ext-inlining" @@ fun () ->
  let base_prog = pl.Pipeline.program in
  let tr = L.Inline.transform ?config pl.Pipeline.profile in
  let inl_prog = L.Inline.program tr in
  let inl_profile = L.Inline.remap_profile tr pl.Pipeline.training in
  let inl_test = L.Inline.remap_trace tr pl.Pipeline.test in
  let run variant program layout trace =
    let r = fetch_run ~ctx program layout trace ~cache_kb () in
    {
      i_variant = variant;
      i_layout = layout.L.Layout.name;
      i_miss = F.Engine.miss_rate_pct r;
      i_ipc = F.Engine.bandwidth r;
      i_ibt = r.F.Engine.instrs_between_taken;
    }
  in
  let rows =
    [
      run "base" base_prog (L.Original.layout base_prog) pl.Pipeline.test;
      run "base" base_prog
        (stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb ~name:"ops"
           ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile))
        pl.Pipeline.test;
      run "inlined" inl_prog (L.Original.layout inl_prog) inl_test;
      run "inlined" inl_prog
        (stc_layout inl_profile ~cache_kb ~cfa_kb ~name:"ops"
           ~seeds:(L.Stc.ops_seeds inl_profile))
        inl_test;
    ]
  in
  {
    inl_sites = L.Inline.inlined_sites tr;
    inl_growth_pct = L.Inline.code_growth_pct tr;
    inl_rows = rows;
  }

let print_inlining r =
  Printf.printf
    "Function inlining (Section 8 future work): %d call sites inlined,\n\
     +%.1f%% static code.\n"
    r.inl_sites r.inl_growth_pct;
  let t =
    Tbl.create
      ~headers:
        [
          ("program", Tbl.Left);
          ("layout", Tbl.Left);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
          ("instrs between taken", Tbl.Right);
        ]
  in
  List.iter
    (fun row ->
      Tbl.add_row t
        [
          row.i_variant;
          row.i_layout;
          Tbl.fmiss row.i_miss;
          Tbl.f2 row.i_ipc;
          Tbl.fpct row.i_ibt;
        ])
    r.inl_rows;
  Tbl.print t

(* ---------- OLTP ---------- *)

type oltp_row = { o_layout : string; o_miss : float; o_ipc : float; o_ibt : float }

type oltp_report = { oltp_trace_blocks : int; oltp_rows : oltp_row list }

let oltp ?(ctx = Run.default) ?(train_txns = 300) ?(test_txns = 600)
    ?(cache_kb = 16) (pl : Pipeline.t) =
  Run.span ctx "ext-oltp" @@ fun () ->
  let kernel = pl.Pipeline.kernel in
  let db = pl.Pipeline.db_btree in
  let train_mix = Stc_workload.Oltp.mix db ~seed:0xB0B1L ~n:train_txns in
  let test_mix = Stc_workload.Oltp.mix db ~seed:0xB0B2L ~n:test_txns in
  let train =
    Stc_workload.Oltp.record ~kernel ~walker_seed:0x01AFL ~db ~txns:train_mix
  in
  let test =
    Stc_workload.Oltp.record ~kernel ~walker_seed:0x02AFL ~db ~txns:test_mix
  in
  let profile = P.Profile.create pl.Pipeline.program in
  Stc_trace.Source.iter
    (Stc_trace.Source.of_recorder train)
    (P.Profile.sink profile);
  let run layout =
    let r = fetch_run ~ctx pl.Pipeline.program layout test ~cache_kb () in
    {
      o_layout = layout.L.Layout.name;
      o_miss = F.Engine.miss_rate_pct r;
      o_ipc = F.Engine.bandwidth r;
      o_ibt = r.F.Engine.instrs_between_taken;
    }
  in
  let ph =
    match L.Algo.find "P&H" with Ok a -> a | Error msg -> invalid_arg msg
  in
  let rows =
    [
      run (L.Original.layout pl.Pipeline.program);
      run
        (L.Algo.layout ph profile
           (L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()));
      run
        (stc_layout profile ~cache_kb ~cfa_kb:4 ~name:"auto"
           ~seeds:(L.Stc.auto_seeds profile));
      run
        (stc_layout profile ~cache_kb ~cfa_kb:4 ~name:"ops"
           ~seeds:(L.Stc.ops_seeds profile));
    ]
  in
  { oltp_trace_blocks = Stc_trace.Recorder.length test; oltp_rows = rows }

let print_oltp r =
  Printf.printf
    "OLTP transaction mix (Section 8 future work), %d traced blocks,\n\
     16KB i-cache; layouts trained on a disjoint mix:\n"
    r.oltp_trace_blocks;
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
          ("instrs between taken", Tbl.Right);
        ]
  in
  List.iter
    (fun row ->
      Tbl.add_row t
        [ row.o_layout; Tbl.fmiss row.o_miss; Tbl.f2 row.o_ipc; Tbl.fpct row.o_ibt ])
    r.oltp_rows;
  Tbl.print t

(* ---------- branch prediction sensitivity ---------- *)

type prediction_row = {
  p_layout : string;
  p_predictor : string;
  p_accuracy : float;
  p_ipc : float;
}

let prediction ?(ctx = Run.default) ?(cache_kb = 32) ?(cfa_kb = 8)
    (pl : Pipeline.t) =
  Run.span ctx "ext-prediction" @@ fun () ->
  let layouts =
    [
      L.Original.layout pl.Pipeline.program;
      stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb ~name:"ops"
        ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile);
    ]
  in
  let predictors =
    [
      ("perfect", None);
      ("always-taken", Some (F.Predictor.Always_taken));
      ("bimodal-2K", Some (F.Predictor.Bimodal 2048));
      ("gshare-4K/8", Some (F.Predictor.Gshare (4096, 8)));
    ]
  in
  List.concat_map
    (fun layout ->
      List.map
        (fun (pname, kind) ->
          let prediction =
            Option.map
              (fun k ->
                { F.Engine.pred = F.Predictor.create k; redirect_penalty = 3 })
              kind
          in
          let r =
            fetch_run ~ctx pl.Pipeline.program layout pl.Pipeline.test
              ~cache_kb ?prediction ()
          in
          let accuracy =
            match prediction with
            | None -> 100.0
            | Some { F.Engine.pred; _ } -> F.Predictor.accuracy_pct pred
          in
          {
            p_layout = layout.L.Layout.name;
            p_predictor = pname;
            p_accuracy = accuracy;
            p_ipc = F.Engine.bandwidth r;
          })
        predictors)
    layouts

let print_prediction rows =
  print_endline
    "Branch prediction sensitivity (the paper isolates I-fetch with\n\
     perfect prediction; 3-cycle redirect penalty here):";
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("predictor", Tbl.Left);
          ("direction accuracy", Tbl.Right);
          ("IPC", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.p_layout; r.p_predictor; Tbl.fpct r.p_accuracy ^ "%"; Tbl.f2 r.p_ipc ])
    rows;
  Tbl.print t

(* ---------- per-query breakdown ---------- *)

type query_row = {
  q_name : string;
  q_blocks : int;
  q_miss_orig : float;
  q_miss_ops : float;
}

let per_query ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  Run.span ctx "ext-per-query" @@ fun () ->
  let prog = pl.Pipeline.program in
  let orig = L.Original.layout prog in
  let ops =
    stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb:4 ~name:"ops"
      ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile)
  in
  let marks = Stc_trace.Recorder.marks pl.Pipeline.test in
  let total = Stc_trace.Recorder.length pl.Pipeline.test in
  let ranges =
    List.mapi
      (fun i (name, lo) ->
        let hi =
          match List.nth_opt marks (i + 1) with
          | Some (_, next) -> next
          | None -> total
        in
        (name, lo, hi))
      marks
  in
  List.map
    (fun (name, lo, hi) ->
      let miss layout =
        let section = Stc_trace.Recorder.create () in
        Stc_trace.Source.iter
          (Stc_trace.Source.of_recorder ~lo ~hi pl.Pipeline.test)
          (Stc_trace.Recorder.sink section);
        F.Engine.miss_rate_pct
          (fetch_run ~ctx prog layout section ~cache_kb ())
      in
      { q_name = name; q_blocks = hi - lo; q_miss_orig = miss orig; q_miss_ops = miss ops })
    ranges

let print_per_query rows =
  print_endline "Per-query i-cache miss rates (16KB, cold start per query):";
  let t =
    Tbl.create
      ~headers:
        [
          ("query", Tbl.Left);
          ("blocks", Tbl.Right);
          ("orig miss %", Tbl.Right);
          ("ops miss %", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.q_name;
          string_of_int r.q_blocks;
          Tbl.fmiss r.q_miss_orig;
          Tbl.fmiss r.q_miss_ops;
        ])
    rows;
  Tbl.print t

(* ---------- fetch unit family ---------- *)

type seqn_row = { s_layout : string; s_max_branches : int; s_ipc : float }

let fetch_units ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  Run.span ctx "ext-fetch-units" @@ fun () ->
  let prog = pl.Pipeline.program in
  let layouts =
    [
      L.Original.layout prog;
      stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb:4 ~name:"ops"
        ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile);
    ]
  in
  List.concat_map
    (fun layout ->
      List.map
        (fun s_max_branches ->
          let config = F.Engine.Config.make ~max_branches:s_max_branches () in
          let r =
            fetch_run ~ctx ~config prog layout pl.Pipeline.test ~cache_kb ()
          in
          { s_layout = layout.L.Layout.name; s_max_branches; s_ipc = F.Engine.bandwidth r })
        [ 1; 2; 3 ])
    layouts

let print_fetch_units rows =
  print_endline
    "Sequential fetch-engine family (SEQ.n = up to n branches per fetch):";
  let t =
    Tbl.create
      ~headers:
        [ ("layout", Tbl.Left); ("SEQ.1", Tbl.Right); ("SEQ.2", Tbl.Right); ("SEQ.3", Tbl.Right) ]
  in
  List.iter
    (fun layout ->
      let get n =
        match
          List.find_opt
            (fun r -> r.s_layout = layout && r.s_max_branches = n)
            rows
        with
        | Some r -> Tbl.f2 r.s_ipc
        | None -> "-"
      in
      Tbl.add_row t [ layout; get 1; get 2; get 3 ])
    [ "orig"; "ops" ];
  Tbl.print t

(* ---------- associativity interaction ---------- *)

type assoc_row = { a_layout : string; a_assoc : int; a_miss : float; a_ipc : float }

let associativity ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  Run.span ctx "ext-associativity" @@ fun () ->
  let prog = pl.Pipeline.program in
  let layouts =
    [
      L.Original.layout prog;
      stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb:4 ~name:"ops"
        ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile);
    ]
  in
  List.concat_map
    (fun layout ->
      List.map
        (fun a_assoc ->
          let r =
            fetch_run ~ctx ~assoc:a_assoc prog layout pl.Pipeline.test
              ~cache_kb ()
          in
          {
            a_layout = layout.L.Layout.name;
            a_assoc;
            a_miss = F.Engine.miss_rate_pct r;
            a_ipc = F.Engine.bandwidth r;
          })
        [ 1; 2; 4 ])
    layouts

let print_associativity rows =
  print_endline
    "Layout x associativity (16KB): how much of the software layout's\n\
     benefit survives a set-associative cache:";
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("assoc", Tbl.Right);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.a_layout; string_of_int r.a_assoc; Tbl.fmiss r.a_miss; Tbl.f2 r.a_ipc ])
    rows;
  Tbl.print t

(* ---------- tuning ---------- *)

let print_tuning ?(ctx = Run.default) ?(cache_kb = 32) (pl : Pipeline.t) =
  Run.span ctx "ext-tuning" @@ fun () ->
  let outcome = Tuner.tune ~ctx ~cache_kb pl in
  let c = outcome.Tuner.chosen in
  Printf.printf
    "Automatic threshold selection (%d candidates, scored on Training):\n\
     chosen: seeds=%s ExecThresh=%d BranchThresh=%.2f CFA=%dKB\n\
     (training bandwidth %.2f IPC)\n"
    outcome.Tuner.evaluated
    (match c.Tuner.t_seeds with `Auto -> "auto" | `Ops -> "ops")
    c.Tuner.t_exec c.Tuner.t_branch c.Tuner.t_cfa_kb
    outcome.Tuner.train_bandwidth;
  (* held-out evaluation *)
  let eval name layout =
    let r =
      fetch_run ~ctx pl.Pipeline.program layout pl.Pipeline.test ~cache_kb ()
    in
    Printf.printf "  %-24s %5.2f IPC, %5.2f miss%% on Test\n" name
      (F.Engine.bandwidth r) (F.Engine.miss_rate_pct r)
  in
  eval "tuned" (Tuner.layout_of pl ~cache_kb c);
  eval "hand-picked (ops 50/0.3)"
    (stc_layout pl.Pipeline.profile ~cache_kb ~cfa_kb:8 ~name:"ops"
       ~seeds:(L.Stc.ops_seeds pl.Pipeline.profile));
  eval "original" (L.Original.layout pl.Pipeline.program)
