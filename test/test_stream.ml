(* The segmented trace pipeline: segment boundaries must be invisible
   to every result.

   - property: over random programs, random traces and random segment
     sizes (1-block segments, a 1-block final segment, segment = trace
     length, empty segments in between, empty trace), Packed.compile
     over the segmented source yields the same words and totals as a
     one-segment compile — the boundary taken bit is read from the next
     segment's first block;
   - Packed.compile rejects block ids outside the program;
   - chunked store: save/load round-trips ids and marks (marks on
     segment boundaries included), a damaged segment is detected and
     repaired, and a warm replay compiled straight off the chunked
     entry reproduces identical engine rows. *)

module F = Stc_fetch
module L = Stc_layout
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder
module Source = Stc_trace.Source
module Segment = Stc_trace.Segment
module Store = Stc_store

(* ---------- random programs and traces ---------- *)

(* A linear-chain program of [n] blocks with seeded random sizes and
   terminators. The engine's replay semantics depend only on each
   block's address, size and flags — the trace need not follow the
   terminators — so a random id sequence exercises every packed-word
   shape (taken/not-taken, cond/uncond, branchy/fallthrough). *)
let random_program seed n =
  let st = Random.State.make [| seed; n |] in
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let ids =
    Array.init n (fun _ -> Builder.new_block b ~pid:p ~size:(1 + Random.State.int st 12))
  in
  Array.iteri
    (fun i bid ->
      (* every terminator keeps an edge to the next block, so the chain
         stays reachable from the entry whatever the dice say *)
      let term =
        if i = n - 1 then Terminator.Ret
        else
          let next = ids.(i + 1) in
          let other = ids.(Random.State.int st n) in
          match Random.State.int st 3 with
          | 0 -> Terminator.Cond { taken = other; fallthru = next }
          | 1 -> Terminator.Jump next
          | _ -> Terminator.Fall next
      in
      Builder.set_term b bid term)
    ids;
  Builder.finish_proc b ~pid:p ~entry:ids.(0) ~blocks:ids;
  (Builder.build b, ids)

let random_trace st ids len =
  Array.init len (fun _ -> ids.(Random.State.int st (Array.length ids)))

(* Fresh simulation state per replay: shared caches would leak state
   from one replay into the next and mask nothing. *)
let mk_state () =
  ( Stc_cachesim.Icache.create ~size_bytes:2048 (),
    F.Tracecache.create ~entries:64 () )

let run_materialized prog layout trace =
  let icache, tc = mk_state () in
  let packed = F.Packed.compile prog layout (Source.of_array trace) in
  let r = F.Engine.run_packed ~icache ~trace_cache:tc packed in
  (r, Stc_cachesim.Icache.stats icache, F.Tracecache.lookups tc, F.Tracecache.hits tc)

(* ---------- segment-invariant compilation ---------- *)

(* Everything a compiled image exposes: its words and its totals. *)
let image p =
  ( Array.sub (F.Packed.raw p) 0 (F.Packed.length p),
    F.Packed.length p,
    F.Packed.total_instrs p,
    F.Packed.taken_branches p )

let one_segment trace = Source.of_segments [ Segment.of_array trace ]

(* [trace] cut every [k] blocks with an empty segment after each cut *)
let with_empty_segments k trace =
  let len = Array.length trace in
  let rec go pos =
    if pos >= len then [ Segment.of_array ~base:len [||] ]
    else
      let n = min k (len - pos) in
      Segment.of_array ~base:pos (Array.sub trace pos n)
      :: Segment.of_array ~base:(pos + n) [||]
      :: go (pos + n)
  in
  Source.of_segments (go 0)

let prop_compile_segment_invariant =
  QCheck.Test.make ~name:"compile is segment-invariant" ~count:80
    QCheck.(triple (int_bound 10_000) (int_bound 400) (int_bound 1_000))
    (fun (seed, len, seg_seed) ->
      let st = Random.State.make [| seed; seg_seed |] in
      let prog, ids = random_program seed (2 + Random.State.int st 40) in
      let layout = L.Original.layout prog in
      let check trace =
        let reference =
          image (F.Packed.compile prog layout (one_segment trace))
        in
        let len = Array.length trace in
        (* the interesting segmentations: single-block segments, a
           one-block final segment, one segment spanning everything, and
           a couple of random interior sizes *)
        let sizes =
          [ 1; max 1 (len - 1); max 1 len; len + 1; 2 + Random.State.int st 97 ]
        in
        let sources =
          with_empty_segments (1 + Random.State.int st 9) trace
          :: List.map
               (fun segment_blocks -> Source.of_array ~segment_blocks trace)
               sizes
        in
        List.iteri
          (fun i source ->
            if image (F.Packed.compile prog layout source) <> reference then
              QCheck.Test.fail_reportf "len=%d segmentation %d: image differs"
                len i)
          sources
      in
      check (random_trace st ids len);
      check [||];
      true)

let test_compile_rejects_bad_ids () =
  let prog, _ids = random_program 7 5 in
  let layout = L.Original.layout prog in
  let n = Array.length prog.Stc_cfg.Program.blocks in
  List.iter
    (fun id ->
      match F.Packed.compile prog layout (Source.of_array [| id |]) with
      | _ -> Alcotest.failf "block id %d of a %d-block program compiled" id n
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the index and the id" msg)
          true
          (Astring_like.contains msg
             (Printf.sprintf "block id %d at trace index 0" id)))
    [ n; -1 ]

(* ---------- chunked store ---------- *)

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stc_stream_test.%d.%d" (Unix.getpid ()) (Random.bits ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let r = f dir in
  rm_rf dir;
  r

let ids_of r = Array.init (Recorder.length r) (Recorder.get r)

let test_chunked_roundtrip () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let seg = 8 in
  (* marks at 0, on a segment boundary, inside a segment, and at the very
     end of the trace *)
  let rec_ =
    Recorder.of_ids
      (Array.init 50 (fun i -> (i * 13) mod 29))
      ~marks:[ ("start", 0); ("boundary", 2 * seg); ("interior", 19); ("end", 50) ]
  in
  let key = Store.Key.of_parts [ "chunked"; "roundtrip" ] in
  Store.Chunked.save ~segment_blocks:seg st ~key rec_;
  (match Store.Chunked.load_manifest st ~key with
  | None -> Alcotest.fail "manifest missing after save"
  | Some m ->
    Alcotest.(check int) "blocks" 50 m.Store.Chunked.m_total_blocks;
    Alcotest.(check int) "segments" 7 (Array.length m.Store.Chunked.m_seg_lens);
    Alcotest.(check int) "last segment short" 2
      m.Store.Chunked.m_seg_lens.(6));
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "chunked entry did not load"
  | Some r2 ->
    Alcotest.(check bool) "ids round-trip" true (ids_of r2 = ids_of rec_);
    Alcotest.(check bool) "marks round-trip" true
      (Recorder.marks r2 = Recorder.marks rec_);
    Alcotest.(check bool) "hash preserved" true
      (Recorder.hash r2 = Recorder.hash rec_)

let test_chunked_damage_and_repair () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let rec_ = Recorder.of_ids (Array.init 40 (fun i -> i mod 11)) ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "damage" ] in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  (* truncate one interior segment's container *)
  let seg_path i =
    Filename.concat dir
      (Filename.concat Store.Chunked.segment_kind
         (Store.Key.hex (Store.Chunked.seg_key key i) ^ ".bin"))
  in
  let whole = seg_path 2 in
  let ic = open_in_bin whole in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin whole in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  Alcotest.(check bool) "damaged entry misses" true
    (Store.Chunked.load st ~key = None);
  Alcotest.(check bool) "damaged entry has no source" true
    (Store.Chunked.source st ~key = None);
  (* cached recomputes and the re-save repairs the broken segment *)
  let computed = ref 0 in
  let r =
    Store.Chunked.cached ~segment_blocks:8 (Some st) ~key (fun () ->
        incr computed;
        rec_)
  in
  Alcotest.(check int) "recomputed once" 1 !computed;
  Alcotest.(check bool) "repaired ids" true (ids_of r = ids_of rec_);
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "entry not healed by re-save"
  | Some r2 -> Alcotest.(check bool) "healed" true (ids_of r2 = ids_of rec_)

(* [len] ids made of runs of consecutive blocks of the original layout,
   1 to 80 long, so most transitions fall through and most segment cuts
   land inside a run. *)
let run_trace st ids len =
  let n = Array.length ids in
  let out = Array.make len ids.(0) in
  let pos = ref 0 in
  while !pos < len do
    let start = Random.State.int st n in
    let run = min (1 + Random.State.int st 80) (min (n - start) (len - !pos)) in
    Array.blit ids start out !pos run;
    pos := !pos + run
  done;
  out

(* A warm replay compiled from the chunked entry — Source straight off
   the store, 256-block segments — must produce the same engine rows as
   replaying the trace it was saved from. The trace is mostly
   fall-through runs, so a segment's last block takes its taken bit from
   the next segment: a boundary read as end of trace (always taken)
   changes the rows. *)
let test_chunked_warm_replay_identical () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let prog, ids = random_program 3 200 in
  let layout = L.Original.layout prog in
  let rst = Random.State.make [| 5 |] in
  let trace = run_trace rst ids 5_000 in
  let cuts_in_runs = ref 0 in
  for k = 1 to (5_000 - 1) / 256 do
    if trace.(k * 256) = trace.((k * 256) - 1) + 1 then incr cuts_in_runs
  done;
  Alcotest.(check bool) "segment cuts inside fall-through runs" true
    (!cuts_in_runs >= 10);
  let rec_ = Recorder.of_ids trace ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "warm-replay" ] in
  Store.Chunked.save ~segment_blocks:256 st ~key rec_;
  let cold = run_materialized prog layout trace in
  match Store.Chunked.source st ~key with
  | None -> Alcotest.fail "chunked source missing"
  | Some (m, source) ->
    Alcotest.(check int) "manifest blocks" 5_000 m.Store.Chunked.m_total_blocks;
    let icache, tc = mk_state () in
    let r =
      F.Engine.run_packed ~icache ~trace_cache:tc
        (F.Packed.compile prog layout source)
    in
    let warm =
      (r, Stc_cachesim.Icache.stats icache, F.Tracecache.lookups tc,
       F.Tracecache.hits tc)
    in
    let rc, ic, lc, hc = cold and rw, iw, lw, hw = warm in
    Alcotest.(check bool) "engine result" true (rc = rw);
    Alcotest.(check bool) "icache counters" true (ic = iw);
    Alcotest.(check (pair int int)) "trace-cache counters" (lc, hc) (lw, hw)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compile_segment_invariant;
    Alcotest.test_case "compile rejects out-of-range block ids" `Quick
      test_compile_rejects_bad_ids;
    Alcotest.test_case "chunked store round-trips ids and marks" `Quick
      test_chunked_roundtrip;
    Alcotest.test_case "chunked damage is detected and repaired" `Quick
      test_chunked_damage_and_repair;
    Alcotest.test_case "warm chunked replay row-identical" `Quick
      test_chunked_warm_replay_identical;
  ]
