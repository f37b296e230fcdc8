module L = Stc_layout
module P = Stc_profile
module Program = Stc_cfg.Program
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator

(* ---------- Figure 3 golden test ---------- *)

let test_figure3 () =
  let _prog, profile, seeds = Stc_core.Figure3.graph () in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.4 }
      ~seeds
  in
  let got = List.map (List.map Stc_core.Figure3.label) seqs in
  Alcotest.(check (list (list string)))
    "sequences" Stc_core.Figure3.expected_sequences got

let test_figure3_thresholds_matter () =
  let _prog, profile, seeds = Stc_core.Figure3.graph () in
  (* With a permissive branch threshold the main trace absorbs A5 via the
     noted transition... it still cannot, since A2's best successor is A3;
     but B1 (weight 1) enters no sequence even at branch threshold 0. *)
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 1; branch_threshold = 0.0 }
      ~seeds
  in
  let all = List.concat_map (List.map Stc_core.Figure3.label) seqs in
  Alcotest.(check bool) "B1 placed at exec threshold 1" true
    (List.mem "B1" all);
  let seqs4 =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.0 }
      ~seeds
  in
  let all4 = List.concat_map (List.map Stc_core.Figure3.label) seqs4 in
  Alcotest.(check bool) "B1 excluded by exec threshold 4" false
    (List.mem "B1" all4);
  Alcotest.(check bool) "A6 excluded by exec threshold 4" false
    (List.mem "A6" all4)

(* ---------- shared fixtures: a profiled random program ---------- *)

let fixture =
  lazy
    (let config =
       {
         Stc_core.Pipeline.quick_config with
         Stc_core.Pipeline.sf = 0.0003;
       }
     in
     Stc_core.Pipeline.run ~config ())

let profile () = (Lazy.force fixture).Stc_core.Pipeline.profile

let program () = (Lazy.force fixture).Stc_core.Pipeline.program

let check_valid prog layout =
  match L.Layout.validate layout prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" layout.L.Layout.name e

let test_original_valid () =
  let prog = program () in
  check_valid prog (L.Original.layout prog)

let test_original_is_textual () =
  let prog = program () in
  let layout = L.Original.layout prog in
  (* within each procedure, textual successors are adjacent *)
  Array.iter
    (fun p ->
      let blocks = p.Stc_cfg.Proc.blocks in
      for i = 0 to Array.length blocks - 2 do
        let a = blocks.(i) and b = blocks.(i + 1) in
        if not (L.Layout.is_sequential layout prog ~src:a ~dst:b) then
          Alcotest.failf "proc %s: blocks %d,%d not adjacent"
            p.Stc_cfg.Proc.name a b
      done)
    prog.Program.procs

let registry_algo name =
  match L.Algo.find name with Ok a -> a | Error msg -> Alcotest.fail msg

let ph_layout profile =
  L.Algo.layout (registry_algo "P&H") profile
    (L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ())

let test_ph_valid () = check_valid (program ()) (ph_layout (profile ()))

let test_ph_fluff_last () =
  let profile = profile () in
  let layout = ph_layout profile in
  let counts = P.Profile.counts profile in
  (* every never-executed block sits above every executed block *)
  let max_hot = ref 0 and min_cold = ref max_int in
  Array.iteri
    (fun bid c ->
      let a = L.Layout.address layout bid in
      if c > 0 then max_hot := max !max_hot a
      else min_cold := min !min_cold a)
    counts;
  Alcotest.(check bool) "fluff after hot code" true (!min_cold > !max_hot)

let stc_params ~cache_bytes ~cfa_bytes =
  L.Stc.params ~exec_threshold:10 ~branch_threshold:0.3 ~cache_bytes ~cfa_bytes ()

let test_stc_valid () =
  let prog = program () and profile = profile () in
  List.iter
    (fun (cache_bytes, cfa_bytes) ->
      let params = stc_params ~cache_bytes ~cfa_bytes in
      check_valid prog
        (L.Stc.layout profile ~name:"ops" ~params
           ~seeds:(L.Stc.ops_seeds profile));
      check_valid prog
        (L.Stc.layout profile ~name:"auto" ~params
           ~seeds:(L.Stc.auto_seeds profile)))
    [ (8192, 2048); (16384, 4096); (16384, 0); (65536, 16384) ]

let test_torrellas_valid () =
  let prog = program () and profile = profile () in
  let params = stc_params ~cache_bytes:16384 ~cfa_bytes:4096 in
  check_valid prog (L.Algo.layout (registry_algo "Torr") profile params)

(* CFA exclusivity: only first-pass (CFA) code may live below cfa_bytes in
   cache-offset space, except cold filler allowed in later logical
   caches. We verify a weaker but meaningful invariant: all blocks of the
   CFA sequences map to cache offsets < cfa_bytes of logical cache 0. *)
let test_stc_cfa_exclusive () =
  let prog = program () and profile = profile () in
  let cache_bytes = 16384 and cfa_bytes = 4096 in
  let params = stc_params ~cache_bytes ~cfa_bytes in
  let layout =
    L.Stc.layout profile ~name:"ops" ~params ~seeds:(L.Stc.ops_seeds profile)
  in
  (* hottest block must live in the CFA region of the first logical cache *)
  let counts = P.Profile.counts profile in
  let hottest = ref 0 in
  Array.iteri (fun bid c -> if c > counts.(!hottest) then hottest := bid) counts;
  let addr = L.Layout.address layout !hottest in
  Alcotest.(check bool) "hottest block inside the CFA" true
    (addr < cfa_bytes);
  ignore prog

let test_seqbuild_no_duplicates () =
  let profile = profile () in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 5; branch_threshold = 0.2 }
      ~seeds:(L.Stc.auto_seeds profile)
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (List.iter (fun b ->
         if Hashtbl.mem seen b then
           Alcotest.failf "block %d appears in two sequences" b;
         Hashtbl.replace seen b ()))
    seqs

let test_seqbuild_respects_exec_threshold () =
  let profile = profile () in
  let counts = P.Profile.counts profile in
  let threshold = 100 in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = threshold; branch_threshold = 0.2 }
      ~seeds:(L.Stc.auto_seeds profile)
  in
  List.iter
    (List.iter (fun b ->
         if counts.(b) < threshold then
           Alcotest.failf "block %d (count %d) below the exec threshold" b
             counts.(b)))
    seqs

let test_mapping_skips_cfa_windows () =
  (* hand-rolled tiny program: 40 blocks of 8 instructions (32 bytes) *)
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let blocks = Array.init 40 (fun _ -> Builder.new_block b ~pid:p ~size:8) in
  Array.iteri
    (fun i bid ->
      if i < 39 then Builder.set_term b bid (Terminator.Fall blocks.(i + 1))
      else Builder.set_term b bid Terminator.Ret)
    blocks;
  Builder.finish_proc b ~pid:p ~entry:blocks.(0) ~blocks;
  let prog = Builder.build b in
  let cache_bytes = 256 and cfa_bytes = 64 in
  (* CFA: blocks 0,1 (64 bytes); others as one long sequence; no cold *)
  let cfa = [ [ blocks.(0); blocks.(1) ] ] in
  let others = [ Array.to_list (Array.sub blocks 2 30) ] in
  let cold = Array.to_list (Array.sub blocks 32 8) in
  let layout =
    L.Mapping.map prog ~name:"m" ~cache_bytes ~cfa_bytes ~cfa_seqs:cfa
      ~other_seqs:others ~cold
  in
  check_valid prog layout;
  (* no non-CFA sequence block may occupy offsets [0, 64) of any logical
     cache *)
  List.iter
    (fun bid ->
      let a = L.Layout.address layout bid in
      if a mod cache_bytes < cfa_bytes then
        Alcotest.failf "sequence block %d in a CFA window (addr %d)" bid a)
    (List.concat others);
  (* cold code is allowed there, and the windows of later logical caches
     should indeed receive some cold code (hole filling) *)
  let cold_in_windows =
    List.exists
      (fun bid ->
        let a = L.Layout.address layout bid in
        a mod cache_bytes < cfa_bytes && a >= cache_bytes)
      cold
  in
  Alcotest.(check bool) "cold code fills the windows" true cold_in_windows

let prop_layout_permutation =
  QCheck.Test.make ~name:"random order layouts are valid" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let prog = program () in
      let n = Array.length prog.Program.blocks in
      let rng = Stc_util.Rng.create (Int64.of_int seed) in
      let order = Array.init n (fun i -> i) in
      Stc_util.Rng.shuffle rng order;
      let layout = L.Layout.of_block_order prog ~name:"rand" order in
      match L.Layout.validate layout prog with Ok () -> true | Error _ -> false)

(* ---------- ExtTSP: incremental merge vs the round-scan reference ----- *)

(* The round-scan builder ExtTSP used before its merge became
   incremental, kept as the oracle: every round groups the surviving
   cross edges by chain pair, scores both orientations of every pair and
   takes the best positive gain — ties to the pair met first in the
   sorted edges, then to the smaller root first. *)
module Exttsp_reference = struct
  module Profile = P.Profile
  module Block = Stc_cfg.Block

  type chain = {
    mutable blocks : int list;
    mutable bytes : int;
    mutable weight : int;
    mutable anchor : int;
  }

  type state = {
    prog : Program.t;
    chain_of : int array;
    chains : (int, chain) Hashtbl.t;
    offset : int array;
  }

  let block_bytes st b = Block.byte_size st.prog.Program.blocks.(b)

  let refresh_offsets st root =
    let c = Hashtbl.find st.chains root in
    let cursor = ref 0 in
    List.iter
      (fun b ->
        st.offset.(b) <- !cursor;
        cursor := !cursor + block_bytes st b)
      c.blocks

  let orientation_gain st ra edges =
    let a = Hashtbl.find st.chains ra in
    List.fold_left
      (fun acc (src, dst, w) ->
        let src_pos =
          if st.chain_of.(src) = ra then st.offset.(src)
          else a.bytes + st.offset.(src)
        in
        let dst_pos =
          if st.chain_of.(dst) = ra then st.offset.(dst)
          else a.bytes + st.offset.(dst)
        in
        acc
        +. L.Exttsp.edge_score ~src_end:(src_pos + block_bytes st src)
             ~dst:dst_pos w)
      0.0 edges

  let merge st ~into:ra rb =
    let a = Hashtbl.find st.chains ra and b = Hashtbl.find st.chains rb in
    a.blocks <- a.blocks @ b.blocks;
    a.bytes <- a.bytes + b.bytes;
    a.weight <- a.weight + b.weight;
    a.anchor <- min a.anchor b.anchor;
    List.iter (fun blk -> st.chain_of.(blk) <- ra) b.blocks;
    Hashtbl.remove st.chains rb;
    refresh_offsets st ra

  let init_state profile =
    let prog = Profile.program profile in
    let n = Array.length prog.Program.blocks in
    let st =
      {
        prog;
        chain_of = Array.make n (-1);
        chains = Hashtbl.create 256;
        offset = Array.make n 0;
      }
    in
    Array.iteri
      (fun b c ->
        if c > 0 then begin
          st.chain_of.(b) <- b;
          Hashtbl.replace st.chains b
            {
              blocks = [ b ];
              bytes = Block.byte_size prog.Program.blocks.(b);
              weight = c;
              anchor = b;
            }
        end)
      (Profile.counts profile);
    st

  let sorted_edges profile =
    let counts = Profile.counts profile in
    let edges = ref [] in
    Profile.iter_edges profile (fun ~src ~dst ~count ->
        if count > 0 && src <> dst && counts.(src) > 0 && counts.(dst) > 0
        then edges := (src, dst, count) :: !edges);
    List.sort compare !edges

  let merge_round st edges =
    let by_pair = Hashtbl.create 256 in
    let pair_order = ref [] in
    List.iter
      (fun (src, dst, w) ->
        let ra = st.chain_of.(src) and rb = st.chain_of.(dst) in
        if ra >= 0 && rb >= 0 && ra <> rb then begin
          let key = (min ra rb, max ra rb) in
          match Hashtbl.find_opt by_pair key with
          | Some l -> l := (src, dst, w) :: !l
          | None ->
            Hashtbl.replace by_pair key (ref [ (src, dst, w) ]);
            pair_order := key :: !pair_order
        end)
      edges;
    let best = ref None in
    let consider gain ra rb =
      match !best with
      | Some (g, _, _) when g >= gain -> ()
      | _ -> if gain > 0.0 then best := Some (gain, ra, rb)
    in
    List.iter
      (fun (ra, rb) ->
        let cross = List.rev !(Hashtbl.find by_pair (ra, rb)) in
        consider (orientation_gain st ra cross) ra rb;
        consider (orientation_gain st rb cross) rb ra)
      (List.rev !pair_order);
    match !best with
    | None -> false
    | Some (_, ra, rb) ->
      merge st ~into:ra rb;
      true

  let ordered_chains st =
    Hashtbl.fold (fun _ c acc -> c :: acc) st.chains []
    |> List.sort (fun c1 c2 ->
           if c1.weight <> c2.weight then compare c2.weight c1.weight
           else compare c1.anchor c2.anchor)
    |> List.map (fun c -> c.blocks)

  let chains profile =
    let st = init_state profile in
    let edges = sorted_edges profile in
    while merge_round st edges do
      ()
    done;
    ordered_chains st
end

(* A one-procedure program of [sizes.(i)]-instruction blocks in a fall
   chain, profiled with the given block counts and edges. The edges
   need not follow the terminators: ExtTSP reads only the profile. *)
let chain_profile sizes ~counts ~edges =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let blocks = Array.map (fun size -> Builder.new_block b ~pid:p ~size) sizes in
  let n = Array.length blocks in
  Array.iteri
    (fun i bid ->
      Builder.set_term b bid
        (if i < n - 1 then Terminator.Fall blocks.(i + 1) else Terminator.Ret))
    blocks;
  Builder.finish_proc b ~pid:p ~entry:blocks.(0) ~blocks;
  let profile = P.Profile.create (Builder.build b) in
  Array.iteri
    (fun i count ->
      if count > 0 then P.Profile.inject_block profile blocks.(i) ~count)
    counts;
  List.iter
    (fun (src, dst, count) ->
      P.Profile.inject_edge profile ~src:blocks.(src) ~dst:blocks.(dst) ~count)
    edges;
  profile

(* Random profiles biased toward equal gains: block sizes, counts and
   edge weights from a few values, so ties between pairs and between
   orientations are common and the tie-break decides the merge. *)
let random_chain_profile seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 40 in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let sizes = Array.init n (fun _ -> pick [ 2; 2; 4; 8 ]) in
  let counts =
    Array.init n (fun _ ->
        if Random.State.int st 6 = 0 then 0 else pick [ 5; 5; 9 ])
  in
  let edges =
    List.init (Random.State.int st (3 * n)) (fun _ ->
        (Random.State.int st n, Random.State.int st n, pick [ 1; 1; 2; 3 ]))
  in
  chain_profile sizes ~counts ~edges

let prop_exttsp_matches_reference =
  QCheck.Test.make ~name:"incremental exttsp chains equal the round scan"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let profile = random_chain_profile seed in
      L.Exttsp.chains profile = Exttsp_reference.chains profile)

let test_exttsp_fixed_profiles () =
  let check what profile =
    Alcotest.(check (list (list int)))
      what (Exttsp_reference.chains profile) (L.Exttsp.chains profile)
  in
  check "empty profile"
    (chain_profile [| 4; 4; 4 |] ~counts:[| 0; 0; 0 |] ~edges:[]);
  check "no edges"
    (chain_profile [| 4; 2; 4 |] ~counts:[| 3; 3; 1 |] ~edges:[]);
  check "one hot block"
    (chain_profile [| 4; 4 |] ~counts:[| 7; 0 |]
       ~edges:[ (0, 1, 5); (1, 0, 5) ]);
  check "fixture profile" (profile ())

let suite =
  [
    Alcotest.test_case "figure 3 worked example" `Quick test_figure3;
    Alcotest.test_case "figure 3 thresholds" `Quick test_figure3_thresholds_matter;
    Alcotest.test_case "original valid" `Quick test_original_valid;
    Alcotest.test_case "original is textual" `Quick test_original_is_textual;
    Alcotest.test_case "P&H valid" `Quick test_ph_valid;
    Alcotest.test_case "P&H fluff last" `Quick test_ph_fluff_last;
    Alcotest.test_case "STC valid across grid" `Quick test_stc_valid;
    Alcotest.test_case "Torrellas valid" `Quick test_torrellas_valid;
    Alcotest.test_case "hottest block in CFA" `Quick test_stc_cfa_exclusive;
    Alcotest.test_case "seqbuild no duplicates" `Quick test_seqbuild_no_duplicates;
    Alcotest.test_case "seqbuild exec threshold" `Quick
      test_seqbuild_respects_exec_threshold;
    Alcotest.test_case "mapping CFA windows" `Quick test_mapping_skips_cfa_windows;
    Alcotest.test_case "exttsp fixed profiles match the round scan" `Quick
      test_exttsp_fixed_profiles;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_layout_permutation; prop_exttsp_matches_reference ]
