module Icache = Stc_cachesim.Icache

module Config = struct
  type t = {
    max_branches : int;
    line_bytes : int;
    miss_penalty : int;
    fdip : Fdip.config option;
  }

  let default =
    { max_branches = 3; line_bytes = 32; miss_penalty = 5; fdip = None }

  let make ?(max_branches = 3) ?(line_bytes = 32) ?(miss_penalty = 5) ?fdip ()
      =
    if max_branches < 1 then
      invalid_arg "Engine.Config.make: max_branches must be at least 1";
    if
      line_bytes < Stc_cfg.Block.instr_bytes
      || line_bytes land (line_bytes - 1) <> 0
    then
      invalid_arg
        "Engine.Config.make: line_bytes must be a power of two no smaller \
         than an instruction";
    if miss_penalty < 0 then
      invalid_arg "Engine.Config.make: miss_penalty must be non-negative";
    { max_branches; line_bytes; miss_penalty; fdip }
end

type config = Config.t = {
  max_branches : int;
  line_bytes : int;
  miss_penalty : int;
  fdip : Fdip.config option;
}

type prediction = { pred : Predictor.t; redirect_penalty : int }

type result = {
  instrs : int;
  cycles : int;
  fetch_cycles : int;
  seq_cycles : int;
  tc_cycles : int;
  icache_accesses : int;
  icache_misses : int;
  icache_victim_hits : int;
  tc_lookups : int;
  tc_hits : int;
  taken_branches : int;
  instrs_between_taken : float;
  cond_branches : int;
  mispredictions : int;
  icache_evictions : int;
  prefetch_issued : int;
  prefetch_completed : int;
  prefetch_late : int;
  prefetch_useful : int;
}

let bandwidth r =
  if r.cycles = 0 then 0.0 else float_of_int r.instrs /. float_of_int r.cycles

let miss_rate_pct r =
  if r.instrs = 0 then 0.0
  else 100.0 *. float_of_int r.icache_misses /. float_of_int r.instrs

let result_fields r =
  [
    ("instrs", float_of_int r.instrs);
    ("cycles", float_of_int r.cycles);
    ("fetch_cycles", float_of_int r.fetch_cycles);
    ("seq_cycles", float_of_int r.seq_cycles);
    ("tc_cycles", float_of_int r.tc_cycles);
    ("icache_accesses", float_of_int r.icache_accesses);
    ("icache_misses", float_of_int r.icache_misses);
    ("icache_victim_hits", float_of_int r.icache_victim_hits);
    ("tc_lookups", float_of_int r.tc_lookups);
    ("tc_hits", float_of_int r.tc_hits);
    ("taken_branches", float_of_int r.taken_branches);
    ("instrs_between_taken", r.instrs_between_taken);
    ("cond_branches", float_of_int r.cond_branches);
    ("mispredictions", float_of_int r.mispredictions);
    ("icache_evictions", float_of_int r.icache_evictions);
    ("prefetch_issued", float_of_int r.prefetch_issued);
    ("prefetch_completed", float_of_int r.prefetch_completed);
    ("prefetch_late", float_of_int r.prefetch_late);
    ("prefetch_useful", float_of_int r.prefetch_useful);
  ]

let publish reg r =
  let module Reg = Stc_obs.Registry in
  let module C = Stc_obs.Metric.Counter in
  let add name v = C.add (Reg.counter reg ("engine." ^ name)) v in
  add "instrs" r.instrs;
  add "cycles" r.cycles;
  add "fetch_cycles" r.fetch_cycles;
  add "seq_cycles" r.seq_cycles;
  add "tc_cycles" r.tc_cycles;
  add "icache_accesses" r.icache_accesses;
  add "icache_misses" r.icache_misses;
  add "icache_victim_hits" r.icache_victim_hits;
  add "tc_lookups" r.tc_lookups;
  add "tc_hits" r.tc_hits;
  add "cond_branches" r.cond_branches;
  add "mispredictions" r.mispredictions;
  (* the prefetch/replacement family is published only when live, so an
     export containing only pre-PR configurations stays byte-identical;
     results are deterministic, hence so is the condition *)
  let addnz name v = if v <> 0 then add name v in
  addnz "icache.replacement.evictions" r.icache_evictions;
  addnz "prefetch.issued" r.prefetch_issued;
  addnz "prefetch.completed" r.prefetch_completed;
  addnz "prefetch.late" r.prefetch_late;
  addnz "prefetch.useful" r.prefetch_useful;
  C.incr (Reg.counter reg "engine.runs")

(* One span per replay, never per block: at millions of blocks per second
   even a no-op emission call in the inner loop would dominate the
   engine. *)
let traced ctx name f =
  match Option.bind ctx (fun c -> c.Stc_obs.Run.trace) with
  | None -> f ()
  | Some tr -> Stc_obs.Trace.span tr name f

(* The one optimised SEQ.3 core. One sweep over the trace drives a bank
   of independent per-config engine states, so N cells over the same
   layout decode and pull each packed word once instead of N times; the
   single-config entry points below are one-slot banks. Cycle accounting is
   line-for-line the model of [run_naive]; the two must stay
   result-identical (property-tested, and diffed end to end by the
   packed-vs-naive bench run).

   The key structural fact (asserted bit-identical by Stc_check, the
   QCheck fused properties and the golden harness): without direction
   prediction, SEQ.3 cycle boundaries depend only on the block stream,
   [line_bytes], [max_branches] and the trace-cache contents — never on
   i-cache outcomes, which contribute penalties but cannot change what
   the cycle fetches. And two empty trace caches of equal geometry
   evolve identical contents over the same cycle sequence. So slots
   sharing (line_bytes, max_branches, trace-cache geometry) form a
   *cohort* advancing one shared walk; per slot, each sequential cycle
   costs only the two i-cache probes plus penalty accrual, and the
   cohort's lead trace cache stands in for every member's (their
   statistics are batched in cohort locals and flushed to each member,
   so counter values match a one-slot replay; member trace-cache
   *contents* are not materialized — nothing observes them).

   Slots with prediction still join a cohort (prediction adds redirect
   penalties per slot without touching the walk). Every cohort indexes
   the caller's packed image directly — it is borrowed, never copied —
   and cohorts advance round-robin, each bounded to at most
   [stride_words] past the laggard, so the words being re-walked stay
   cache-resident. Cohorts share no state, so the interleaving affects
   wall clock only, never results. *)
module Bank = struct
  type spec = {
    config : Config.t;
    icache : Icache.t option;
    trace_cache : Tracecache.t option;
    prediction : prediction option;
  }

  let spec ?(config = Config.default) ?icache ?trace_cache ?prediction () =
    { config; icache; trace_cache; prediction }

  (* the i-cache probe strategy is picked once per slot *)
  type probe = No_cache | Direct of Icache.t | Generic of Icache.t

  type slot = {
    sp : spec;
    ix : int; (* input index, for result placement *)
    probe : probe;
    penalty : int;
    s_fdip : Fdip.t option; (* per-slot decoupled frontend, if any *)
    mutable s_penalties : int;
    mutable s_acc : int;
    mutable s_miss : int;
    mutable s_vhit : int;
  }

  (* slots whose cycle structure is identical share one walk *)
  type cohort = {
    line : int;
    cmax_branches : int;
    tc : Tracecache.t option; (* the lead: drives lookups and fills *)
    members : slot array;
    actives : slot array; (* members with an i-cache to probe *)
    preds : slot array; (* members with direction prediction *)
    fdips : slot array; (* members with a live FDIP frontend *)
    mutable pos : int; (* block index into the image *)
    mutable coff : int; (* intra-block offset *)
    mutable ccycles : int;
    mutable cseq : int;
    mutable ctc : int;
    mutable cinstrs : int;
    mutable ccond : int;
    mutable clookups : int;
    mutable chits : int;
  }

  let default_stride_words = 16384

  let run_packed ?ctx ?(stride_words = default_stride_words) specs packed =
    let n = Array.length specs in
    if n = 0 then [||]
    else
      traced ctx "engine.fused_packed" @@ fun () ->
      let metrics = Option.bind ctx (fun c -> c.Stc_obs.Run.metrics) in
      let tracer = Option.bind ctx (fun c -> c.Stc_obs.Run.trace) in
      let fused_id =
        match tracer with
        | Some tr -> Stc_obs.Trace.intern tr "engine.fused"
        | None -> 0
      in
      let t0 =
        match tracer with Some tr -> Stc_obs.Trace.now tr | None -> 0.0
      in
      let instr_bytes = Stc_cfg.Block.instr_bytes in
      let stride = max 1 stride_words in
      let slots =
        Array.mapi
          (fun ix sp ->
            let s_fdip =
              match (sp.config.fdip, sp.icache) with
              | Some fc, Some c -> Some (Fdip.create fc c)
              | _ -> None
            in
            let probe =
              match sp.icache with
              | None -> No_cache
              | Some c when Icache.plain_direct c && Option.is_none s_fdip ->
                Direct c
              | Some c -> Generic c
            in
            {
              sp;
              ix;
              probe;
              penalty = sp.config.miss_penalty;
              s_fdip;
              s_penalties = 0;
              s_acc = 0;
              s_miss = 0;
              s_vhit = 0;
            })
          specs
      in
      let cohorts =
        let key s =
          ( s.sp.config.line_bytes,
            s.sp.config.max_branches,
            Option.map Tracecache.geometry s.sp.trace_cache )
        in
        let acc = ref [] in
        (* first-appearance order, so walks are deterministic *)
        Array.iter
          (fun s ->
            let k = key s in
            match List.assoc_opt k !acc with
            | Some r -> r := s :: !r
            | None -> acc := !acc @ [ (k, ref [ s ]) ])
          slots;
        Array.of_list
          (List.map
             (fun ((line, mb, _), r) ->
               let members = Array.of_list (List.rev !r) in
               let tc = members.(0).sp.trace_cache in
               let actives =
                 Array.of_list
                   (List.filter
                      (fun s ->
                        match s.probe with No_cache -> false | _ -> true)
                      (Array.to_list members))
               in
               let preds =
                 Array.of_list
                   (List.filter
                      (fun s -> Option.is_some s.sp.prediction)
                      (Array.to_list members))
               in
               let fdips =
                 Array.of_list
                   (List.filter
                      (fun s -> Option.is_some s.s_fdip)
                      (Array.to_list members))
               in
               {
                 line;
                 cmax_branches = mb;
                 tc;
                 members;
                 actives;
                 preds;
                 fdips;
                 pos = 0;
                 coff = 0;
                 ccycles = 0;
                 cseq = 0;
                 ctc = 0;
                 cinstrs = 0;
                 ccond = 0;
                 clookups = 0;
                 chits = 0;
               })
             !acc)
      in
      let words = Packed.raw packed and len = Packed.length packed in
      let probe_slot s ~now a1 a2 =
        match s.s_fdip with
        | Some f ->
          (* demand pair through the slot's frontend; the cycle pays the
             larger charge, as in [run_naive] *)
          s.s_acc <- s.s_acc + 2;
          let count (o : Icache.outcome) =
            match o with
            | Icache.Hit -> ()
            | Icache.Victim_hit -> s.s_vhit <- s.s_vhit + 1
            | Icache.Miss -> s.s_miss <- s.s_miss + 1
          in
          let o1, c1 = Fdip.demand f ~now ~miss_penalty:s.penalty a1 in
          count o1;
          let o2, c2 = Fdip.demand f ~now ~miss_penalty:s.penalty a2 in
          count o2;
          s.s_penalties <- s.s_penalties + (if c1 > c2 then c1 else c2)
        | None -> (
          match s.probe with
          | No_cache -> ()
          | Direct c ->
          s.s_acc <- s.s_acc + 2;
          let h1 = Icache.probe_direct c a1 in
          let h2 = Icache.probe_direct c a2 in
          if not (h1 && h2) then begin
            s.s_miss <- s.s_miss + (if h1 then 0 else 1)
                        + (if h2 then 0 else 1);
            s.s_penalties <- s.s_penalties + s.penalty
          end
        | Generic c ->
          s.s_acc <- s.s_acc + 2;
          let probe a =
            match Icache.access_uncounted c a with
            | Icache.Hit -> true
            | Icache.Victim_hit ->
              s.s_vhit <- s.s_vhit + 1;
              true
            | Icache.Miss ->
              s.s_miss <- s.s_miss + 1;
              false
          in
          let h1 = probe a1 in
          let h2 = probe a2 in
          if not (h1 && h2) then s.s_penalties <- s.s_penalties + s.penalty)
      in
      (* per conditional branch (callers test [w_cond] first, so the
         common all-sequential block costs no call): count it once for
         the cohort, then charge each predicting member its own
         redirects *)
      let cond_block h w =
        h.ccond <- h.ccond + 1;
        let preds = h.preds in
        for i = 0 to Array.length preds - 1 do
          let s = Array.unsafe_get preds i in
          match s.sp.prediction with
          | Some { pred; redirect_penalty } ->
            let pc = Packed.w_addr w + ((Packed.w_size w - 1) * 4) in
            if
              not
                (Predictor.predict_and_update pred ~pc
                   ~taken:(Packed.w_taken w))
            then s.s_penalties <- s.s_penalties + redirect_penalty
          | None -> ()
        done
      in
      (* one fetch cycle for cohort [h] — the [run_naive] cycle body, on
         packed words *)
      let step_cohort h =
        let start_idx = h.pos and start_off = h.coff in
        (* FDIP steps 1 and 3 bracket the cycle for every frontend-bearing
           member, exactly as in [run_naive]: land elapsed prefetches
           first, walk the FTQ from the cycle-start index last *)
        let fnow = h.ccycles + 1 in
        let fdips = h.fdips in
        for i = 0 to Array.length fdips - 1 do
          match (Array.unsafe_get fdips i).s_fdip with
          | Some f -> Fdip.begin_cycle f ~now:fnow
          | None -> ()
        done;
        let fdip_advance () =
          for i = 0 to Array.length fdips - 1 do
            match (Array.unsafe_get fdips i).s_fdip with
            | Some f ->
              Fdip.advance f ~now:fnow ~nth:(fun k ->
                  let i = start_idx + k in
                  if i < len then
                    Some (Packed.w_addr (Array.unsafe_get words i))
                  else None)
            | None -> ()
          done
        in
        let tc_hit =
          match h.tc with
          | None -> None
          | Some tc ->
            h.clookups <- h.clookups + 1;
            let r =
              Tracecache.lookup_uncounted tc packed ~idx:start_idx
                ~off:start_off
            in
            (match r with Some _ -> h.chits <- h.chits + 1 | None -> ());
            r
        in
        match tc_hit with
        | Some info when info.Tracecache.n_instrs > 0 ->
          h.ccycles <- h.ccycles + 1;
          h.ctc <- h.ctc + 1;
          h.cinstrs <- h.cinstrs + info.Tracecache.n_instrs;
          let stop = info.Tracecache.end_pos.View.idx in
          for i = start_idx to stop - 1 do
            let w = Array.unsafe_get words i in
            if Packed.w_cond w then cond_block h w
          done;
          h.pos <- stop;
          h.coff <- info.Tracecache.end_pos.View.off;
          fdip_advance ()
        | Some _ | None ->
          h.ccycles <- h.ccycles + 1;
          h.cseq <- h.cseq + 1;
          let a =
            Packed.w_addr (Array.unsafe_get words start_idx)
            + (start_off * instr_bytes)
          in
          let line_no = a / h.line in
          let a1 = line_no * h.line and a2 = (line_no + 1) * h.line in
          let actives = h.actives in
          for i = 0 to Array.length actives - 1 do
            probe_slot (Array.unsafe_get actives i) ~now:fnow a1 a2
          done;
          let window_end = (line_no + 2) * h.line in
          let idx = ref start_idx and off = ref start_off in
          let branches = ref 0 in
          let stop = ref false in
          while not !stop do
            let w = Array.unsafe_get words !idx in
            let size = Packed.w_size w in
            let cur_addr = Packed.w_addr w + (!off * instr_bytes) in
            let space = (window_end - cur_addr) / instr_bytes in
            let remaining = size - !off in
            let take = if remaining <= space then remaining else space in
            h.cinstrs <- h.cinstrs + take;
            if take < remaining then begin
              off := !off + take;
              stop := true
            end
            else begin
              let was_branch = Packed.w_branch w in
              let taken = Packed.w_taken w in
              if was_branch then incr branches;
              if Packed.w_cond w then cond_block h w;
              incr idx;
              off := 0;
              if
                taken
                || (was_branch && !branches >= h.cmax_branches)
                || !idx >= len
              then stop := true
              else if
                Packed.w_addr (Array.unsafe_get words !idx) >= window_end
              then stop := true
            end
          done;
          (match h.tc with
          | Some tc ->
            Tracecache.fill_packed tc packed ~idx:start_idx ~off:start_off
          | None -> ());
          h.pos <- !idx;
          h.coff <- !off;
          fdip_advance ()
      in
      let min_pos () =
        Array.fold_left (fun m h -> if h.pos < m then h.pos else m) max_int
          cohorts
      in
      let mn = ref 0 in
      while !mn < len do
        (* one round: every cohort advances to at most [stride] words past
           the laggard *)
        let limit = min len (!mn + stride) in
        Array.iter
          (fun h ->
            while h.pos < limit do
              step_cohort h
            done)
          cohorts;
        mn := min_pos ()
      done;
      let out = Array.make n None in
      Array.iter
        (fun h ->
          Array.iter
            (fun s ->
              (* flush the batched statistics into each member's caches,
                 exactly where per-access counting would leave them *)
              (match s.sp.icache with
              | Some c ->
                Icache.add_stats c ~accesses:s.s_acc ~misses:s.s_miss
                  ~victim_hits:s.s_vhit
              | None -> ());
              (match s.sp.trace_cache with
              | Some tc ->
                Tracecache.add_stats tc ~lookups:h.clookups ~hits:h.chits
              | None -> ());
              let icache_accesses, icache_misses, icache_victim_hits =
                match s.sp.icache with
                | None -> (0, 0, 0)
                | Some c ->
                  let st = Icache.stats c in
                  (st.Icache.s_accesses, st.Icache.s_misses,
                   st.Icache.s_victim_hits)
              in
              let r =
                {
                  instrs = h.cinstrs;
                  cycles = h.ccycles + s.s_penalties;
                  fetch_cycles = h.ccycles;
                  seq_cycles = h.cseq;
                  tc_cycles = h.ctc;
                  icache_accesses;
                  icache_misses;
                  icache_victim_hits;
                  tc_lookups =
                    (match s.sp.trace_cache with
                    | None -> 0
                    | Some tc -> Tracecache.lookups tc);
                  tc_hits =
                    (match s.sp.trace_cache with
                    | None -> 0
                    | Some tc -> Tracecache.hits tc);
                  taken_branches = Packed.taken_branches packed;
                  instrs_between_taken = Packed.instrs_between_taken packed;
                  cond_branches = h.ccond;
                  mispredictions =
                    (match s.sp.prediction with
                    | Some { pred; _ } -> Predictor.mispredictions pred
                    | None -> 0);
                  icache_evictions =
                    (match s.sp.icache with
                    | Some c -> Icache.evictions c
                    | None -> 0);
                  prefetch_issued =
                    (match s.s_fdip with
                    | Some f -> Fdip.issued f
                    | None -> 0);
                  prefetch_completed =
                    (match s.s_fdip with
                    | Some f -> Fdip.completed f
                    | None -> 0);
                  prefetch_late =
                    (match s.s_fdip with Some f -> Fdip.late f | None -> 0);
                  prefetch_useful =
                    (match s.s_fdip with
                    | Some f -> Fdip.useful f
                    | None -> 0);
                }
              in
              out.(s.ix) <- Some r)
            h.members)
        cohorts;
      let results =
        Array.map (function Some r -> r | None -> assert false) out
      in
      (match metrics with
      | Some reg -> Array.iter (publish reg) results
      | None -> ());
      (match tracer with
      | Some tr -> Stc_obs.Trace.complete ~arg:n tr fused_id ~start:t0
      | None -> ());
      results
end

(* The single-config entry points are one-slot banks. *)
let run_packed ?ctx ?config ?icache ?trace_cache ?prediction packed =
  (Bank.run_packed ?ctx
     [| Bank.spec ?config ?icache ?trace_cache ?prediction () |]
     packed).(0)

let run ?ctx ?config ?icache ?trace_cache ?prediction view =
  run_packed ?ctx ?config ?icache ?trace_cache ?prediction (View.pack view)

let run_naive ?ctx ?(config = Config.default) ?icache ?trace_cache ?prediction
    view =
  traced ctx "engine.run_naive" @@ fun () ->
  let metrics = Option.bind ctx (fun c -> c.Stc_obs.Run.metrics) in
  let len = View.length view in
  let line = config.line_bytes in
  let instr_bytes = Stc_cfg.Block.instr_bytes in
  let cycles = ref 0 and penalties = ref 0 and instrs = ref 0 in
  let seq_cycles = ref 0 and tc_cycles = ref 0 in
  let cond_branches = ref 0 in
  let idx = ref 0 and off = ref 0 in
  (* Direction prediction applies to every executed conditional branch,
     whether the window came from the sequential engine or the trace
     cache; we account for it per block as the stream advances. *)
  let check_prediction i =
    if View.is_cond view i then begin
      incr cond_branches;
      match prediction with
      | None -> ()
      | Some { pred; redirect_penalty } ->
        let pc =
          View.block_addr view i + ((View.block_size view i - 1) * 4)
        in
        if not (Predictor.predict_and_update pred ~pc ~taken:(View.taken view i))
        then penalties := !penalties + redirect_penalty
    end
  in
  let access_line a =
    match icache with
    | None -> true
    | Some c -> Icache.access c a
  in
  (* FDIP is live only when there is an i-cache to prefetch into *)
  let fdip =
    match (config.fdip, icache) with
    | Some fc, Some c -> Some (Fdip.create fc c)
    | _ -> None
  in
  (* naive counts per access, so each frontend demand flushes its single
     outcome into the shared counters immediately *)
  let demand_fdip f ~now c a =
    let o, charge = Fdip.demand f ~now ~miss_penalty:config.miss_penalty a in
    (match o with
    | Icache.Hit -> Icache.add_stats c ~accesses:1 ~misses:0 ~victim_hits:0
    | Icache.Victim_hit ->
      Icache.add_stats c ~accesses:1 ~misses:0 ~victim_hits:1
    | Icache.Miss -> Icache.add_stats c ~accesses:1 ~misses:1 ~victim_hits:0);
    charge
  in
  while !idx < len do
    let pos = { View.idx = !idx; off = !off } in
    let start_idx = !idx in
    (* FDIP steps 1 and 3 bracket the cycle, as in the bank *)
    let fnow = !cycles + 1 in
    (match fdip with Some f -> Fdip.begin_cycle f ~now:fnow | None -> ());
    let fdip_advance () =
      match fdip with
      | None -> ()
      | Some f ->
        Fdip.advance f ~now:fnow ~nth:(fun k ->
            let i = start_idx + k in
            if i < len then Some (View.block_addr view i) else None)
    in
    let tc_hit =
      match trace_cache with
      | None -> None
      | Some tc -> Tracecache.lookup tc view pos
    in
    match tc_hit with
    | Some info when info.Tracecache.n_instrs > 0 ->
      incr cycles;
      incr tc_cycles;
      instrs := !instrs + info.Tracecache.n_instrs;
      let stop = info.Tracecache.end_pos.View.idx in
      (* every block whose final instruction lies inside the trace has its
         branch resolved here *)
      for i = !idx to stop - 1 do
        check_prediction i
      done;
      idx := stop;
      off := info.Tracecache.end_pos.View.off;
      fdip_advance ()
    | Some _ | None ->
      (* sequential cycle *)
      incr cycles;
      incr seq_cycles;
      let a = View.addr view pos in
      let line_no = a / line in
      (match fdip with
      | Some f ->
        let c = Option.get icache in
        let c1 = demand_fdip f ~now:fnow c (line_no * line) in
        let c2 = demand_fdip f ~now:fnow c ((line_no + 1) * line) in
        penalties := !penalties + (if c1 > c2 then c1 else c2)
      | None ->
        let hit1 = access_line (line_no * line) in
        let hit2 = access_line ((line_no + 1) * line) in
        if not (hit1 && hit2) then
          penalties := !penalties + config.miss_penalty);
      let window_end = (line_no + 2) * line in
      let branches = ref 0 in
      let stop = ref false in
      while not !stop do
        let size = View.block_size view !idx in
        let cur_addr = View.addr view { View.idx = !idx; off = !off } in
        let space = (window_end - cur_addr) / instr_bytes in
        let remaining = size - !off in
        let take = min remaining space in
        instrs := !instrs + take;
        if take < remaining then begin
          off := !off + take;
          stop := true
        end
        else begin
          let was_branch = View.has_branch view !idx in
          let taken = View.taken view !idx in
          if was_branch then incr branches;
          check_prediction !idx;
          incr idx;
          off := 0;
          if
            taken
            || (was_branch && !branches >= config.max_branches)
            || !idx >= len
          then stop := true
          else if
            View.addr view { View.idx = !idx; off = 0 } >= window_end
          then stop := true
        end
      done;
      (* the fill unit builds a new trace at the missed fetch address *)
      (match trace_cache with
      | Some tc -> Tracecache.fill tc view pos
      | None -> ());
      fdip_advance ()
  done;
  let icache_accesses, icache_misses, icache_victim_hits =
    match icache with
    | None -> (0, 0, 0)
    | Some c ->
      (* one snapshot, not two separate reads *)
      let s = Icache.stats c in
      (s.Icache.s_accesses, s.Icache.s_misses, s.Icache.s_victim_hits)
  in
  let tc_lookups, tc_hits =
    match trace_cache with
    | None -> (0, 0)
    | Some tc -> (Tracecache.lookups tc, Tracecache.hits tc)
  in
  let r =
    {
      instrs = !instrs;
      cycles = !cycles + !penalties;
      fetch_cycles = !cycles;
      seq_cycles = !seq_cycles;
      tc_cycles = !tc_cycles;
      icache_accesses;
      icache_misses;
      icache_victim_hits;
      tc_lookups;
      tc_hits;
      taken_branches = View.taken_branches view;
      instrs_between_taken = View.instrs_between_taken view;
      cond_branches = !cond_branches;
      mispredictions =
        (match prediction with
        | Some { pred; _ } -> Predictor.mispredictions pred
        | None -> 0);
      icache_evictions =
        (match icache with Some c -> Icache.evictions c | None -> 0);
      prefetch_issued = (match fdip with Some f -> Fdip.issued f | None -> 0);
      prefetch_completed =
        (match fdip with Some f -> Fdip.completed f | None -> 0);
      prefetch_late = (match fdip with Some f -> Fdip.late f | None -> 0);
      prefetch_useful = (match fdip with Some f -> Fdip.useful f | None -> 0);
    }
  in
  (match metrics with Some reg -> publish reg r | None -> ());
  r
