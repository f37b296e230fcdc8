(* The layer-by-layer pass of a traced run: the grid the end-to-end call
   just ran is run again, one public layer function at a time, each call
   inside a span of the benchmark's own tracer —

     Stc_layout.Algo.layout (plan + Mapping.map_plan), per registered
     algorithm at every (cache, CFA) point of the workload's grid;
     Stc_cachesim.Temperature.of_blocks, per planned layout;
     Stc_fetch.Packed.compile and Engine.Bank.run_packed, per fused group;
     Stc_store save/load of every layout and result, and Stc_store.Fp.

   The groups come from the rows Experiments returned (rows of one
   planned layout share a sweep), never from a grid of the benchmark's
   own, and every recomputed row must equal the end-to-end one. *)

module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module L = Stc_layout
module F = Stc_fetch
module Icache = Stc_cachesim.Icache
module Tr = Stc_obs.Trace

(* A planned layout's identity: algorithm slug plus the (cache KB,
   CFA KB) point it was planned for; baselines have no point. *)
type key = string * (int * int) option

type group = { g_key : key; g_cells : int list (* row indices *) }

let algo_of name =
  match L.Algo.find name with
  | Ok a -> a
  | Error e -> failwith ("row names an unknown layout: " ^ e)

(* Ideal and tc-ideal rows report cache 0, but their layout was planned
   for the cache size of the cell just before them in plan order (the
   direct or trace-cache cell of the same layout and CFA size). *)
let groups (rows : E.row array) =
  let last_cache = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iteri
    (fun i (r : E.row) ->
      let a = algo_of r.E.layout in
      let point =
        if not a.L.Algo.uses_cfa then None
        else
          let cfa = Option.get r.E.cfa_kb in
          match r.E.variant with
          | E.Ideal | E.Tc_ideal ->
            Some (Hashtbl.find last_cache (r.E.layout, cfa), cfa)
          | _ ->
            Hashtbl.replace last_cache (r.E.layout, cfa) r.E.cache_kb;
            Some (r.E.cache_kb, cfa)
      in
      let key = (a.L.Algo.slug, point) in
      match List.assoc_opt key !acc with
      | Some cells -> cells := i :: !cells
      | None -> acc := (key, ref [ i ]) :: !acc)
    rows;
  List.rev_map (fun (k, cells) -> { g_key = k; g_cells = List.rev !cells }) !acc

let params (c : E.sim_config) = function
  | None -> L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()
  | Some (cache_kb, cfa_kb) ->
    L.Algo.params ~exec_threshold:c.E.exec_threshold
      ~branch_threshold:c.E.branch_threshold ~cache_bytes:(cache_kb * 1024)
      ~cfa_bytes:(cfa_kb * 1024) ()

(* A cell's machine, from its row: the variant fixes the cache kind, the
   extended columns its associativity, policy and prefetcher. *)
let spec (c : E.sim_config) ~temps (r : E.row) =
  let size_bytes = r.E.cache_kb * 1024 in
  let policy =
    match r.E.policy with
    | "srrip" -> Icache.Srrip
    | "trrip" -> Icache.Trrip (Lazy.force temps)
    | _ -> Icache.Lru
  in
  let icache =
    match r.E.variant with
    | E.Ideal | E.Tc_ideal -> None
    | E.Direct | E.Trace_cache ->
      Some (Icache.create ~assoc:r.E.assoc ~policy ~size_bytes ())
    | E.Two_way -> Some (Icache.create ~assoc:2 ~size_bytes ())
    | E.Victim -> Some (Icache.create ~victim_lines:16 ~size_bytes ())
  in
  let trace_cache =
    match r.E.variant with
    | E.Trace_cache | E.Tc_ideal ->
      Some (F.Tracecache.create ~entries:c.E.tc_entries ())
    | _ -> None
  in
  let config =
    F.Engine.Config.make ~line_bytes:c.E.line_bytes
      ~miss_penalty:c.E.miss_penalty
      ?fdip:(if r.E.prefetch then Some F.Fdip.default else None)
      ()
  in
  F.Engine.Bank.spec ~config ?icache ?trace_cache ()

(* The row a result yields, keeping the cell's identity columns. *)
let row_of (r : E.row) (x : F.Engine.result) =
  {
    r with
    E.miss_pct = F.Engine.miss_rate_pct x;
    bandwidth = F.Engine.bandwidth x;
    instrs_between_taken = x.F.Engine.instrs_between_taken;
    tc_hit_pct =
      (if x.F.Engine.tc_lookups = 0 then 0.0
       else
         100.0
         *. float_of_int x.F.Engine.tc_hits
         /. float_of_int x.F.Engine.tc_lookups);
    evictions = x.F.Engine.icache_evictions;
    pf_issued = x.F.Engine.prefetch_issued;
    pf_useful = x.F.Engine.prefetch_useful;
    pf_late = x.F.Engine.prefetch_late;
  }

type out = {
  rows : E.row array;  (* recomputed, in input order *)
  results : F.Engine.result array;
  sweeps : int;
  plans : int;
  words : int;  (* packed words compiled, all groups *)
  image_words : int;  (* largest packed image *)
  store_read_bytes : int;
  store_write_bytes : int;
  store_bad_layouts : int;  (* planned layouts the store changed *)
  store_bad_cells : int list;  (* rows whose result the store changed *)
}

let run ~tracer:tr ~store_dir (c : E.sim_config) (pl : Pipeline.t) rows =
  let rows = Array.of_list rows in
  let gs = groups rows in
  let profile = pl.Pipeline.profile and program = pl.Pipeline.program in
  ignore (Tr.span tr "fp.program" (fun () -> Stc_store.Fp.program program));
  ignore
    (Tr.span tr "fp.trace" (fun () ->
         ( Stc_store.Fp.trace pl.Pipeline.training,
           Stc_store.Fp.trace pl.Pipeline.test )));
  (* plan every registered algorithm: baselines once, the CFA family at
     every grid point the rows use, in the order Experiments plans them *)
  let points =
    List.fold_left
      (fun acc g ->
        match snd g.g_key with
        | Some p when not (List.mem p acc) -> acc @ [ p ]
        | _ -> acc)
      [] gs
  in
  let algos = L.Algo.all () in
  let wanted =
    List.filter_map
      (fun a -> if a.L.Algo.uses_cfa then None else Some (a, None))
      algos
    @ List.concat_map
        (fun p ->
          List.filter_map
            (fun a -> if a.L.Algo.uses_cfa then Some (a, Some p) else None)
            algos)
        points
  in
  let layouts =
    List.map
      (fun (a, point) ->
        let layout =
          Tr.span tr ("plan:" ^ a.L.Algo.slug) (fun () ->
              L.Algo.layout a profile (params c point))
        in
        ((a.L.Algo.slug, point), layout))
      wanted
  in
  let sizes =
    Array.map Stc_cfg.Block.byte_size program.Stc_cfg.Program.blocks
  in
  let counts = Stc_profile.Profile.counts profile in
  let temps =
    List.map
      (fun (k, (layout : L.Layout.t)) ->
        ( k,
          Tr.span tr "temperature" (fun () ->
              Stc_cachesim.Temperature.of_blocks ~line_bytes:c.E.line_bytes
                ~addrs:layout.L.Layout.addr ~sizes ~counts) ))
      layouts
  in
  let results = Array.make (Array.length rows) None in
  let words = ref 0 and image_words = ref 0 in
  List.iter
    (fun g ->
      let layout = List.assoc g.g_key layouts in
      let temps = lazy (List.assoc g.g_key temps) in
      let packed =
        Tr.span tr "compile" (fun () ->
            F.Packed.compile program layout (Pipeline.test_source pl))
      in
      words := !words + F.Packed.length packed;
      image_words := max !image_words (F.Packed.memory_words packed);
      let cells = Array.of_list g.g_cells in
      let specs = Array.map (fun i -> spec c ~temps rows.(i)) cells in
      let rs =
        Tr.span tr "bank" (fun () ->
            F.Engine.Bank.run_packed specs packed)
      in
      Array.iteri (fun j i -> results.(i) <- Some rs.(j)) cells)
    gs;
  let results = Array.map Option.get results in
  (* round trip every planned layout and every cell result through a
     fresh store, comparing what comes back *)
  let reg = Stc_obs.Registry.create () in
  let st = Stc_store.open_ ~metrics:reg store_dir in
  let lkey (slug, point) =
    Stc_store.Key.of_parts
      [
        "perfbench-layout";
        slug;
        (match point with
        | Some (a, b) -> Printf.sprintf "%d/%d" a b
        | None -> "-");
      ]
  in
  let rkey i = Stc_store.Key.of_parts [ "perfbench-cell"; string_of_int i ] in
  Tr.span tr "store.save" (fun () ->
      List.iter
        (fun (k, l) -> Stc_store.Layout.save st ~key:(lkey k) l)
        layouts;
      Array.iteri
        (fun i r -> Stc_store.Result.save st ~key:(rkey i) r)
        results);
  let loaded_layouts, loaded_results =
    Tr.span tr "store.load" (fun () ->
        ( List.map
            (fun (k, _) -> Stc_store.Layout.load st ~key:(lkey k))
            layouts,
          Array.mapi
            (fun i _ -> Stc_store.Result.load st ~key:(rkey i))
            results ))
  in
  let store_bad_layouts =
    List.fold_left2
      (fun n (_, l) -> function
        | Some l' when l'.L.Layout.addr = l.L.Layout.addr -> n
        | _ -> n + 1)
      0 layouts loaded_layouts
  in
  let store_bad_cells =
    List.filter
      (fun i ->
        match loaded_results.(i) with
        | Some r ->
          F.Engine.result_fields r <> F.Engine.result_fields results.(i)
        | None -> true)
      (List.init (Array.length results) Fun.id)
  in
  let s = Stc_store.stats st in
  {
    rows = Array.mapi (fun i r -> row_of r results.(i)) rows;
    results;
    sweeps = List.length gs;
    plans = List.length layouts;
    words = !words;
    image_words = !image_words;
    store_read_bytes = s.Stc_store.bytes_read;
    store_write_bytes = s.Stc_store.bytes_written;
    store_bad_layouts;
    store_bad_cells;
  }
