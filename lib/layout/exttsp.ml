module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Block = Stc_cfg.Block

(* ExtTSP-style block reordering (Ottoni & Maher, "Optimizing function
   placement for large-scale data-center applications"; Newell & Pupyrev,
   "Improved basic block reordering", IEEE TC 2020 — the model behind
   LLVM's BOLT). The layout score of an edge src -> dst with weight w is

     w               if dst falls through from src,
     w * 0.1 * (1 - d / 1024)   for a forward jump of d <= 1024 bytes,
     w * 0.1 * (1 - d / 640)    for a backward jump of d <= 640 bytes,
     0               otherwise,

   and chains merge greedily by the score gain of concatenation. Scores
   of edges internal to a chain are invariant under concatenation (only
   relative distances matter), so a merge's gain is exactly the score of
   the cross edges between the two chains — edges between unmerged
   chains have no defined distance and score 0.

   The merge is incremental, as in the reference implementation: every
   connected chain pair caches its cross edges and both orientation
   gains, and the positive candidates sit in an ordered set keyed
   (-gain, index of the pair's first cross edge in the canonical edge
   order, orientation), orientation 0 placing the smaller root first.
   The minimum is the merge a full rescan would pick: the largest gain,
   ties to the pair met first in the sorted edges, then to the smaller
   root first. A merge changes only the gains of pairs touching the
   merged chain; those are re-scored, every other cached gain stays
   bit-identical, and each re-score folds over the cross edges in
   canonical order, so the merge sequence is that of the rescan. *)

let fallthrough_weight = 1.0

let jump_weight = 0.1

let forward_window = 1024

let backward_window = 640

let edge_score ~src_end ~dst w =
  if dst = src_end then fallthrough_weight *. float_of_int w
  else if dst > src_end then begin
    let d = dst - src_end in
    if d <= forward_window then
      jump_weight *. float_of_int w
      *. (1.0 -. (float_of_int d /. float_of_int forward_window))
    else 0.0
  end
  else begin
    let d = src_end - dst in
    if d <= backward_window then
      jump_weight *. float_of_int w
      *. (1.0 -. (float_of_int d /. float_of_int backward_window))
    else 0.0
  end

type chain = {
  mutable blocks : int list;
  mutable bytes : int;
  mutable weight : int;
  mutable anchor : int;  (* smallest block id: deterministic tie-break *)
}

(* A connected chain pair, known by its roots [lo < hi]. [cross] indexes
   the sorted edge array in ascending (= canonical) order, so its head
   is the pair's first cross edge; [gains.(0)] is the gain of [lo]'s
   chain laid out first, [gains.(1)] of [hi]'s. *)
type pair = {
  mutable lo : int;
  mutable hi : int;
  mutable cross : int list;
  gains : float array;
}

(* Candidate merges: (gain, first cross edge, orientation, pair), best
   first. The first cross edge is unique to a pair, so the pair itself
   never takes part in the comparison. *)
module Candidates = Set.Make (struct
  type t = float * int * int * pair

  let compare (g1, f1, o1, _) (g2, f2, o2, _) =
    match Float.compare g2 g1 with
    | 0 -> ( match Int.compare f1 f2 with 0 -> Int.compare o1 o2 | c -> c)
    | c -> c
end)

type state = {
  prog : Program.t;
  edges : (int * int * int) array;  (* (src, dst, weight), sorted *)
  chain_of : int array;  (* block -> chain root, -1 for cold blocks *)
  chains : (int, chain) Hashtbl.t;
  offset : int array;  (* block -> byte offset within its chain *)
  pairs : (int, pair) Hashtbl.t array;  (* root -> other root -> pair *)
  mutable candidates : Candidates.t;
}

let block_bytes st b = Block.byte_size st.prog.Program.blocks.(b)

(* Offsets of [root]'s blocks are kept current so cross-edge distances
   are O(1) per edge during gain evaluation. *)
let refresh_offsets st root =
  let c = Hashtbl.find st.chains root in
  let cursor = ref 0 in
  List.iter
    (fun b ->
      st.offset.(b) <- !cursor;
      cursor := !cursor + block_bytes st b)
    c.blocks

(* Score of the cross edges when [ra]'s chain is laid out immediately
   before the other one's, summed in canonical edge order so the float is
   reproducible. *)
let orientation_gain st ra cross =
  let a = Hashtbl.find st.chains ra in
  let pos b =
    if st.chain_of.(b) = ra then st.offset.(b) else a.bytes + st.offset.(b)
  in
  List.fold_left
    (fun acc i ->
      let src, dst, w = st.edges.(i) in
      acc
      +. edge_score ~src_end:(pos src + block_bytes st src) ~dst:(pos dst) w)
    0.0 cross

let unschedule st p =
  let first = List.hd p.cross in
  st.candidates <-
    Candidates.remove (p.gains.(0), first, 0, p)
      (Candidates.remove (p.gains.(1), first, 1, p) st.candidates)

let rescore st p =
  let first = List.hd p.cross in
  Array.iteri
    (fun o root ->
      let g = orientation_gain st root p.cross in
      p.gains.(o) <- g;
      if g > 0.0 then
        st.candidates <- Candidates.add (g, first, o, p) st.candidates)
    [| p.lo; p.hi |]

(* Profiled transitions between distinct executed blocks in canonical
   (src, dst) order — the one order every float accumulation uses. *)
let sorted_edges profile =
  let counts = Profile.counts profile in
  let edges = ref [] in
  Profile.iter_edges profile (fun ~src ~dst ~count ->
      if count > 0 && src <> dst && counts.(src) > 0 && counts.(dst) > 0 then
        edges := (src, dst, count) :: !edges);
  Array.of_list (List.sort compare !edges)

let init_state profile =
  let prog = Profile.program profile in
  let counts = Profile.counts profile in
  let n = Array.length prog.Program.blocks in
  let st =
    {
      prog;
      edges = sorted_edges profile;
      chain_of = Array.make n (-1);
      chains = Hashtbl.create 256;
      offset = Array.make n 0;
      pairs = Array.init n (fun _ -> Hashtbl.create 4);
      candidates = Candidates.empty;
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
    counts;
  (* every block is its own chain: one pair per unordered block pair,
     cross edges gathered back to front so each list ascends *)
  for i = Array.length st.edges - 1 downto 0 do
    let src, dst, _ = st.edges.(i) in
    let lo = min src dst and hi = max src dst in
    match Hashtbl.find_opt st.pairs.(lo) hi with
    | Some p -> p.cross <- i :: p.cross
    | None ->
      let p = { lo; hi; cross = [ i ]; gains = [| 0.0; 0.0 |] } in
      Hashtbl.replace st.pairs.(lo) hi p;
      Hashtbl.replace st.pairs.(hi) lo p
  done;
  Array.iteri
    (fun lo tbl -> Hashtbl.iter (fun hi p -> if lo < hi then rescore st p) tbl)
    st.pairs;
  st

(* Lay [rb]'s chain after [ra]'s, keeping root [ra]: every pair touching
   either chain leaves the candidates, [rb]'s pairs fold into [ra]'s
   (cross edges merged by index, so the first cross edge is the smaller
   of the two), and the pairs touching [ra] come back re-scored. *)
let merge st ~into:ra rb =
  let a = Hashtbl.find st.chains ra and b = Hashtbl.find st.chains rb in
  Hashtbl.iter (fun _ p -> unschedule st p) st.pairs.(ra);
  Hashtbl.iter (fun _ q -> unschedule st q) st.pairs.(rb);
  Hashtbl.remove st.pairs.(ra) rb;
  Hashtbl.remove st.pairs.(rb) ra;
  a.blocks <- a.blocks @ b.blocks;
  a.bytes <- a.bytes + b.bytes;
  a.weight <- a.weight + b.weight;
  a.anchor <- min a.anchor b.anchor;
  List.iter (fun blk -> st.chain_of.(blk) <- ra) b.blocks;
  Hashtbl.remove st.chains rb;
  refresh_offsets st ra;
  Hashtbl.iter
    (fun rc q ->
      Hashtbl.remove st.pairs.(rc) rb;
      match Hashtbl.find_opt st.pairs.(ra) rc with
      | Some p -> p.cross <- List.merge Int.compare p.cross q.cross
      | None ->
        q.lo <- min ra rc;
        q.hi <- max ra rc;
        Hashtbl.replace st.pairs.(ra) rc q;
        Hashtbl.replace st.pairs.(rc) ra q)
    st.pairs.(rb);
  Hashtbl.reset st.pairs.(rb);
  Hashtbl.iter (fun _ p -> rescore st p) st.pairs.(ra)

let ordered_chains st =
  Hashtbl.fold (fun _ c acc -> c :: acc) st.chains []
  |> List.sort (fun c1 c2 ->
         if c1.weight <> c2.weight then compare c2.weight c1.weight
         else compare c1.anchor c2.anchor)
  |> List.map (fun c -> c.blocks)

let chains profile =
  let st = init_state profile in
  let rec go () =
    match Candidates.min_elt_opt st.candidates with
    | None -> ()
    | Some (_, _, o, p) ->
      if o = 0 then merge st ~into:p.lo p.hi else merge st ~into:p.hi p.lo;
      go ()
  in
  go ();
  ordered_chains st

(* Chain construction depends only on the profile: partially applied to
   one, [plan] builds the chains at most once for all the CFA budgets it
   is then asked for. *)
let plan profile =
  let chains = lazy (chains profile) in
  fun ~cfa_bytes ->
    Mapping.chain_plan (Profile.program profile)
      ~counts:(Profile.counts profile) ~cfa_bytes (Lazy.force chains)
