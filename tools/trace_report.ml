(* Summarize a Chrome trace_event JSON file produced by Stc_obs.Trace.

     trace_report TRACE.json [--top N] [--assert-utilization PCT]

   Reports total wall clock, a table of top-level slices (per-phase wall
   time), pool utilization per domain (share of the pool window each
   domain spent inside "pool.chunk" slices), fused replay sweeps
   ("engine.fused" Complete slices, one per per-layout bank sweep with
   the number of cells it fused), the N slowest fused groups
   ("fused:<table> <layout> (N cells)" slices, --top, default 10), and
   the artifact-store time split (store.hit / store.miss / store.write
   Complete events with their byte volumes).

   --assert-utilization PCT exits 1 unless the mean worker utilization
   over the pool window is at least PCT percent — the CI guard that the
   pool actually keeps its domains busy on a parallel grid.

   Exit codes: 0 ok, 1 assertion failure, 2 usage or input error. *)

module Json = Stc_obs.Json
module Tbl = Stc_util.Tbl

let usage () =
  prerr_endline
    "usage: trace_report TRACE.json [--top N] [--assert-utilization PCT]";
  exit 2

let parse_args () =
  let file = ref None and top = ref 10 and assert_util = ref None in
  let rec go = function
    | [] -> ()
    | "--top" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n > 0 -> top := n
      | _ -> usage ());
      go rest
    | "--assert-utilization" :: v :: rest ->
      (match float_of_string_opt v with
      | Some p when p >= 0.0 && p <= 100.0 -> assert_util := Some p
      | _ -> usage ());
      go rest
    | a :: rest ->
      (match !file with None -> file := Some a | Some _ -> usage ());
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match !file with
  | Some f -> (f, !top, !assert_util)
  | None -> usage ()

(* ---------- event and slice extraction ---------- *)

type ev = {
  e_name : string;
  e_ph : string;
  e_ts : float;  (* microseconds *)
  e_dur : float;
  e_tid : int;
  e_bytes : int;
}

let ev_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some f -> f
    | None -> 0.0
  in
  let tid = match Json.member "tid" j with Some (Json.Int i) -> i | _ -> 0 in
  let bytes =
    match Option.bind (Json.member "args" j) (Json.member "bytes") with
    | Some (Json.Int b) -> b
    | _ -> 0
  in
  {
    e_name = str "name";
    e_ph = str "ph";
    e_ts = num "ts";
    e_dur = num "dur";
    e_tid = tid;
    e_bytes = bytes;
  }

type slice = {
  s_name : string;
  s_tid : int;
  s_start : float;
  s_dur : float;
  s_depth : int;
  s_bytes : int;
}

(* Pair B/E per tid into slices (events are in emission order per tid in
   the file); X events become slices directly at the current depth.
   Unbalanced events are counted, not fatal: a ring that filled up drops
   its tail and we still want the report. *)
let slices events =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tid s;
      s
  in
  let out = ref [] and unbalanced = ref 0 in
  List.iter
    (fun e ->
      let st = stack e.e_tid in
      match e.e_ph with
      | "B" -> st := (e.e_name, e.e_ts) :: !st
      | "E" -> (
        match !st with
        | (name, t0) :: rest when name = e.e_name ->
          st := rest;
          out :=
            {
              s_name = name;
              s_tid = e.e_tid;
              s_start = t0;
              s_dur = e.e_ts -. t0;
              s_depth = List.length rest;
              s_bytes = e.e_bytes;
            }
            :: !out
        | _ -> incr unbalanced)
      | "X" ->
        out :=
          {
            s_name = e.e_name;
            s_tid = e.e_tid;
            s_start = e.e_ts;
            s_dur = e.e_dur;
            s_depth = List.length !st;
            s_bytes = e.e_bytes;
          }
          :: !out
      | _ -> ())
    events;
  Hashtbl.iter (fun _ st -> unbalanced := !unbalanced + List.length !st) stacks;
  (List.rev !out, !unbalanced)

(* ---------- report sections ---------- *)

let fus us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else Printf.sprintf "%.1fms" (us /. 1e3)

let section title = Printf.printf "-- %s --\n" title

(* first-seen-order grouping of (key, value) pairs *)
let group_by key value items =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun it ->
      let k = key it in
      (match Hashtbl.find_opt tbl k with
      | Some l -> l := value it :: !l
      | None ->
        Hashtbl.replace tbl k (ref [ value it ]);
        order := k :: !order))
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let top_level_table slices =
  let tops = List.filter (fun s -> s.s_depth = 0) slices in
  if tops <> [] then begin
    section "top-level slices";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("name", Tbl.Left);
            ("calls", Tbl.Right);
            ("total", Tbl.Right);
            ("mean", Tbl.Right);
          ]
    in
    List.iter
      (fun (name, durs) ->
        let n = List.length durs in
        let total = List.fold_left ( +. ) 0.0 durs in
        Tbl.add_row tbl
          [ name; string_of_int n; fus total; fus (total /. float_of_int n) ])
      (group_by (fun s -> s.s_name) (fun s -> s.s_dur) tops);
    print_string (Tbl.render tbl);
    print_newline ()
  end

(* Per-domain busy time inside "pool.chunk" slices over the shared pool
   window (first chunk start to last chunk end across all domains).
   Returns the mean utilization over participating domains, or None when
   the trace has no pool activity. *)
let pool_utilization slices =
  let chunks = List.filter (fun s -> s.s_name = "pool.chunk") slices in
  match chunks with
  | [] -> None
  | c0 :: _ ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) s ->
          (Float.min lo s.s_start, Float.max hi (s.s_start +. s.s_dur)))
        (c0.s_start, c0.s_start +. c0.s_dur)
        chunks
    in
    let window = Float.max (hi -. lo) 1.0 (* at least 1us: no div by 0 *) in
    section "pool utilization";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("domain", Tbl.Left);
            ("chunks", Tbl.Right);
            ("busy", Tbl.Right);
            ("util", Tbl.Right);
          ]
    in
    let utils =
      List.map
        (fun (tid, durs) ->
          let busy = List.fold_left ( +. ) 0.0 durs in
          let util = 100.0 *. busy /. window in
          Tbl.add_row tbl
            [
              Printf.sprintf "domain-%d" tid;
              string_of_int (List.length durs);
              fus busy;
              Printf.sprintf "%.0f%%" util;
            ];
          util)
        (List.sort compare
           (group_by (fun s -> s.s_tid) (fun s -> s.s_dur) chunks))
    in
    print_string (Tbl.render tbl);
    print_newline ();
    let mean = List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils) in
    Printf.printf "pool window %s, mean utilization %.0f%% over %d domain(s)\n\n"
      (fus window) mean (List.length utils);
    Some mean

(* Fused replay banks emit one "engine.fused" Complete slice per
   per-layout sweep, carrying the number of cells fused into it.  Sweeps
   are few and long — list each one. *)
let fused_sweeps slices =
  let fs = List.filter (fun s -> s.s_name = "engine.fused") slices in
  if fs <> [] then begin
    section "fused sweeps (engine.fused)";
    let tbl =
      Tbl.create
        ~headers:
          [ ("domain", Tbl.Left); ("cells", Tbl.Right); ("wall", Tbl.Right) ]
    in
    List.iter
      (fun s ->
        Tbl.add_row tbl
          [
            Printf.sprintf "domain-%d" s.s_tid;
            string_of_int s.s_bytes;
            fus s.s_dur;
          ])
      fs;
    print_string (Tbl.render tbl);
    print_newline ();
    let cells = List.fold_left (fun acc s -> acc + s.s_bytes) 0 fs in
    Printf.printf "%d sweep(s) fusing %d cell(s), %.1f cells/sweep\n\n"
      (List.length fs) cells
      (float_of_int cells /. float_of_int (List.length fs))
  end

(* Each fused group (one layout's cells of one grid table: lookups,
   compile and sweep) runs inside one "fused:<table> <layout> (N cells)"
   slice. *)
let top_groups slices top =
  let groups =
    List.filter (fun s -> String.starts_with ~prefix:"fused:" s.s_name) slices
  in
  if groups <> [] then begin
    section (Printf.sprintf "slowest fused groups (top %d of %d)" top
       (List.length groups));
    let sorted =
      List.sort (fun a b -> compare b.s_dur a.s_dur) groups
    in
    let tbl =
      Tbl.create
        ~headers:
          [ ("group", Tbl.Left); ("domain", Tbl.Right); ("wall", Tbl.Right) ]
    in
    List.iteri
      (fun i s ->
        if i < top then
          Tbl.add_row tbl
            [ s.s_name; string_of_int s.s_tid; fus s.s_dur ])
      sorted;
    print_string (Tbl.render tbl);
    print_newline ()
  end

let store_split slices =
  let ops =
    List.filter
      (fun s -> String.starts_with ~prefix:"store." s.s_name)
      slices
  in
  if ops <> [] then begin
    section "store time split";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("op", Tbl.Left);
            ("calls", Tbl.Right);
            ("total", Tbl.Right);
            ("bytes", Tbl.Right);
          ]
    in
    List.iter
      (fun (name, pairs) ->
        let total = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 pairs in
        let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 pairs in
        Tbl.add_row tbl
          [
            name;
            string_of_int (List.length pairs);
            fus total;
            string_of_int bytes;
          ])
      (group_by (fun s -> s.s_name) (fun s -> (s.s_dur, s.s_bytes)) ops);
    print_string (Tbl.render tbl);
    print_newline ()
  end

let () =
  let file, top, assert_util = parse_args () in
  let doc =
    match
      let ic = open_in file in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      doc
    with
    | exception Sys_error e ->
      Printf.eprintf "trace_report: %s\n" e;
      exit 2
    | doc -> doc
  in
  let events =
    match Json.of_string (String.trim doc) with
    | exception Failure e ->
      Printf.eprintf "trace_report: %s: %s\n" file e;
      exit 2
    | Json.List evs -> List.map ev_of_json evs
    | _ ->
      Printf.eprintf "trace_report: %s: not a trace_event array\n" file;
      exit 2
  in
  let real = List.filter (fun e -> e.e_ph <> "M") events in
  if real = [] then begin
    Printf.eprintf "trace_report: %s: no events\n" file;
    exit 2
  end;
  let slices, unbalanced = slices real in
  let domains =
    List.sort_uniq compare (List.map (fun e -> e.e_tid) real)
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) e ->
        (Float.min lo e.e_ts, Float.max hi (e.e_ts +. e.e_dur)))
      (Float.max_float, 0.0) real
  in
  Printf.printf "%s: %d events on %d domain(s), wall clock %s\n" file
    (List.length real) (List.length domains)
    (fus (hi -. lo));
  if unbalanced > 0 then
    Printf.printf "(%d unbalanced begin/end event(s) — ring truncation?)\n"
      unbalanced;
  print_newline ();
  top_level_table slices;
  let mean_util = pool_utilization slices in
  fused_sweeps slices;
  top_groups slices top;
  store_split slices;
  match assert_util with
  | None -> ()
  | Some pct -> (
    match mean_util with
    | Some mean when mean >= pct ->
      Printf.printf "utilization assertion: %.0f%% >= %.0f%% ok\n" mean pct
    | Some mean ->
      Printf.eprintf
        "trace_report: mean pool utilization %.0f%% below required %.0f%%\n"
        mean pct;
      exit 1
    | None ->
      Printf.eprintf
        "trace_report: --assert-utilization given but trace has no pool.chunk \
         slices\n";
      exit 1)
