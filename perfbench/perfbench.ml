(* The benchmark of record for the reproduction.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--jobs N] [--perturb-row | --drop-row]

   Each workload runs the public entry points a user runs —
   Pipeline.run, then Experiments.simulate or Experiments.extended —
   on the quick pipeline configuration:

     paper-grid  simulate over every registered layout, no store
     hw-grid     extended on Torr and ops (orig always included)
     store-warm  Pipeline.run + simulate on ops against a store that a
                 cold run of the same command filled during setup

   --trace 0 measures with tracing off and reports the end-to-end
   metrics over two or three inputs made from the seed; --trace 1 is the
   separate traced run, on the seed's own input, that reports the
   per-layer metrics (see Layers and the layer budget below). Both
   check every grid row (Gate) and print, as the last line of standard
   output, one JSON object:
     {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   The line before it is the run's record: workload identity,
   provenance, samples and, traced, the layer budget. *)

module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module Run = Stc_core.Run
module J = Stc_obs.Json
module Tr = Stc_obs.Trace

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  layouts : string list option;  (* the grid call's --layouts *)
  extended : bool;  (* Experiments.extended instead of simulate *)
  store : bool;  (* warm rerun against a store filled in setup *)
  max_jobs : int;  (* domains the grid runs on, capped by the cores *)
  inputs : int;  (* inputs an untraced run measures, see input_opts *)
  golden : string;  (* seed-1 snapshot, relative to the checkout *)
}

let workloads =
  [
    {
      name = "paper-grid";
      layouts = None;
      extended = false;
      store = false;
      max_jobs = 2;
      inputs = 3;
      golden = "golden/simulate_rows.txt";
    };
    {
      name = "hw-grid";
      layouts = Some [ "Torr"; "ops" ];
      extended = true;
      store = false;
      max_jobs = 1;
      (* a call takes about 16 s on one domain: a third input would make
         a run outlast the time the benchmark has for it *)
      inputs = 2;
      golden = "golden/extended_rows.txt";
    };
    {
      name = "store-warm";
      layouts = Some [ "ops" ];
      extended = false;
      store = true;
      max_jobs = 1;
      inputs = 3;
      golden = "golden/simulate_rows.txt";
    };
  ]

let sim_config = E.default_sim_config
let pipeline_config = Pipeline.quick_config

let render w rows =
  List.map (if w.extended then E.ext_row_to_string else E.row_to_string) rows

let grid_call w ~ctx pl =
  if w.extended then E.extended ~ctx ~config:sim_config ?layouts:w.layouts pl
  else E.simulate ~ctx ~config:sim_config ?layouts:w.layouts pl

(* ---------- command line ---------- *)

(* A fault the self-test plants in the rendered grid, which the output
   gate must count. *)
type fault = No_fault | Nudge_row | Drop_row

type opts = {
  w : workload;
  seed : int;
  seconds : float;
  traced : bool;
  jobs : int;
  cores : int;
  fault : fault;
  cold_fill_dir : string option;
      (* child-process mode: the store-warm cold fill into this store *)
}

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--jobs N] [--perturb-row | --drop-row]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let traced = ref None and jobs = ref None and fault = ref No_fault in
  let cold_fill_dir = ref None in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s wants an integer, got %S" flag v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.name = v) workloads with
      | Some w -> workload := Some w
      | None ->
        usage
          (Printf.sprintf "unknown workload %S (have: %s)" v
             (String.concat ", " (List.map (fun w -> w.name) workloads))));
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> usage "--seconds wants a positive number");
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> traced := Some false
      | "1" -> traced := Some true
      | _ -> usage "--trace wants 0 or 1");
      go rest
    | "--jobs" :: v :: rest ->
      jobs := Some (int_arg "--jobs" v);
      go rest
    | "--perturb-row" :: rest ->
      fault := Nudge_row;
      go rest
    | "--drop-row" :: rest ->
      fault := Drop_row;
      go rest
    | "--cold-fill" :: dir :: rest ->
      cold_fill_dir := Some dir;
      go rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  let req what = function Some v -> v | None -> usage (what ^ " is required") in
  let w = req "--workload" !workload in
  let cores = Domain.recommended_domain_count () in
  let jobs =
    match !jobs with
    | None -> min w.max_jobs cores
    | Some j when j < 1 -> usage "--jobs must be at least 1"
    | Some j when j > cores ->
      (* pool time is wall time: on fewer cores than domains, domains
         queue for a core while counted busy, so utilization would read
         near 100% whatever the grid does *)
      usage
        (Printf.sprintf
           "--jobs %d exceeds the %d core(s) available: oversubscribed \
            domains would be timed while waiting for a core, so wall time \
            and pool utilization would not describe the grid"
           j cores)
    | Some j -> j
  in
  {
    w;
    seed = req "--seed" !seed;
    seconds = req "--seconds" !seconds;
    traced = req "--trace" !traced;
    jobs;
    cores;
    fault = !fault;
    cold_fill_dir = !cold_fill_dir;
  }

(* ---------- measurement helpers ---------- *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Wall and CPU seconds of one call. *)
let timed f =
  let w0 = Unix.gettimeofday () and c0 = cpu_now () in
  let v = f () in
  (v, Unix.gettimeofday () -. w0, cpu_now () -. c0)

let median l = Stc_util.Stats.median (Array.of_list l)

(* Process high-water resident set, in MB, from the kernel's VmHWM. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match
            String.split_on_char ' ' (String.trim v)
            |> List.filter (( <> ) "")
          with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' s)

(* Reset the kernel's high-water mark to the current resident set
   (Linux: clear_refs 5), so that VmHWM covers only what follows.
   false where the kernel does not allow it. *)
let reset_peak_rss () =
  match
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with
  | () -> true
  | exception Sys_error _ -> false

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Scratch space inside the checkout, removed when the run ends. *)
let work_dir = Printf.sprintf ".perfbench/work-%d" (Unix.getpid ())

let base_ctx o = Run.default |> Run.with_seed o.seed |> Run.with_jobs o.jobs
let pipeline ctx = Pipeline.run ~ctx ~config:pipeline_config ()

(* ---------- provenance and workload identity ---------- *)

let command_line cmd =
  match
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let out = In_channel.input_all ic in
    (out, Unix.close_process_in ic)
  with
  | exception _ -> None
  | out, Unix.WEXITED 0 -> Some (String.trim out)
  | _ -> None

let provenance o =
  let commit = command_line "git rev-parse --short HEAD" in
  let dirty =
    match command_line "git status --porcelain --untracked-files=no" with
    | Some s -> J.Bool (s <> "")
    | None -> J.Null (* not a git checkout: unknown *)
  in
  [
    ("schema", J.Int 1);
    ("git_commit", J.Str (Option.value ~default:"unknown" commit));
    ("dirty_tree", dirty);
    ("ocaml_version", J.Str Sys.ocaml_version);
    ("hostname", J.Str (try Unix.gethostname () with _ -> "unknown"));
    ("jobs", J.Int o.jobs);
    ("nproc", J.Int o.cores);
  ]

let identity o (pl : Pipeline.t) rows =
  let groups = Layers.groups (Array.of_list rows) in
  let layouts =
    List.sort_uniq compare (List.map (fun (r : E.row) -> r.E.layout) rows)
  in
  [
    ("workload", J.Str o.w.name);
    ("seed", J.Int o.seed);
    ("scale", J.Float pl.Pipeline.config.Pipeline.sf);
    ( "config_fingerprint",
      J.Str (Pipeline.config_fingerprint pl.Pipeline.config) );
    ("test_trace_blocks", J.Int (Stc_trace.Recorder.length pl.Pipeline.test));
    ("cells", J.Int (List.length rows));
    ("sweeps", J.Int (List.length groups));
    ("layouts", J.List (List.map (fun l -> J.Str l) layouts));
  ]

(* ---------- the output gate ---------- *)

(* Every row check of a run. [reference] is the first grid the run
   produced; every later grid, the golden snapshot (seed 1), the rows of
   earlier runs and, traced, the layer-by-layer replay are held to it. *)
let gate_first o (pl : Pipeline.t) lines =
  let g = Gate.create (List.length lines) in
  (if o.seed = 1 then
     let layouts =
       match o.w.layouts with
       | None ->
         List.map (fun a -> a.Stc_layout.Algo.name) (Stc_layout.Algo.all ())
       | Some l ->
         "orig" :: (if o.w.extended then [] else [ "P&H" ])
         @ List.map
             (fun n ->
               match Stc_layout.Algo.find n with
               | Ok a -> a.Stc_layout.Algo.name
               | Error e -> failwith e)
             l
     in
     match Gate.golden ~path:o.w.golden ~layouts with
     | Some reference -> Gate.check g ~what:"golden" ~reference lines
     | None -> Gate.fail_all g ~why:("golden snapshot missing: " ^ o.w.golden));
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  (* a perturbed or already failing grid is never recorded as the
     reference of later runs *)
  Gate.across_runs g ~record:(o.fault = No_fault && Gate.failures g = 0)
    ~path:
      (Printf.sprintf ".perfbench/rows/%s-seed%d-%s-%s.txt" o.w.name o.seed
         (Pipeline.config_fingerprint pl.Pipeline.config)
         (String.sub exe 0 12))
    lines;
  g

(* The self-test's deliberate faults: the first cell's bandwidth
   nudged, or the last cell dropped. *)
let perturb o rows =
  match o.fault with
  | No_fault -> rows
  | Nudge_row ->
    List.mapi
      (fun i (r : E.row) ->
        if i = 0 then { r with E.bandwidth = r.E.bandwidth +. 1e-3 } else r)
      rows
  | Drop_row -> List.filteri (fun i _ -> i < List.length rows - 1) rows

(* ---------- one measured call ---------- *)

(* Cold fill for store-warm: the command once, against a fresh store. *)
let cold_fill o ?metrics dir =
  let ctx = { (base_ctx o) with Run.store = Some dir; metrics } in
  let pl = pipeline ctx in
  (pl, grid_call o.w ~ctx pl)

(* Set-up seconds scaled to an input of [nominal_setup_blocks] Training
   + Test blocks (the seed-1 quick input has 3.49M). Recording the two
   traces and building the profile from Training take close to nine
   tenths of a pipeline build (seed 1: 0.39 of 0.44 s), the cold fill's
   replay follows the Test trace, and a seed changes the traces' length
   by +-20% (843k to 1.53M Training blocks over seeds 1-12), so raw
   set-up seconds would mostly tell which seeds a run drew. *)
let nominal_setup_blocks = 3_500_000

let setup_blocks (pl : Pipeline.t) =
  Stc_trace.Recorder.length pl.Pipeline.training
  + Stc_trace.Recorder.length pl.Pipeline.test

let scaled_setup ~blocks seconds =
  seconds *. float_of_int nominal_setup_blocks /. float_of_int blocks

(* The untraced store-warm set-up runs each cold fill in a child process
   (this executable with --cold-fill), so that the heap the cold grid
   leaves behind never counts in the measured process's resident set;
   the OCaml 5.1 runtime keeps freed major-heap pools mapped. The child
   prints its Training + Test blocks, then the rendered rows. *)
let child = ref None

let cold_fill_child o dir =
  let args =
    [
      "--workload"; o.w.name; "--seed"; string_of_int o.seed; "--seconds";
      "1"; "--trace"; "0"; "--jobs"; string_of_int o.jobs; "--cold-fill"; dir;
    ]
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  child := Some (Unix.process_in_pid ic);
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  child := None;
  match (status, String.split_on_char '\n' out) with
  | Unix.WEXITED 0, blocks :: rows ->
    (int_of_string blocks, List.filter (( <> ) "") rows)
  | _ -> failwith ("cold fill failed for " ^ dir)

let cold_fill_main o dir =
  let pl, rows = cold_fill o dir in
  print_endline (string_of_int (setup_blocks pl));
  List.iter print_endline (render o.w rows)

(* The measured call: the grid on a freshly built pipeline (paper-grid,
   hw-grid: a fresh profile, so every call pays the per-profile layout
   work a user's run pays), or the whole command against the warm store
   (store-warm). [tracer] wraps the measured part in a [bench.call]
   span. Returns the pipeline, the rows, wall and CPU seconds, and the
   seconds of the pipeline build when it ran outside the call. *)
let measured o ?(ctx = base_ctx o) ?tracer ~store () =
  let wrap f =
    match tracer with Some tr -> Tr.span tr "bench.call" f | None -> f ()
  in
  match store with
  | Some dir ->
    let ctx = { ctx with Run.store = Some dir } in
    let (pl, rows), wall, cpu =
      timed (fun () ->
          wrap (fun () ->
              let pl = pipeline ctx in
              (pl, grid_call o.w ~ctx pl)))
    in
    (pl, rows, wall, cpu, None)
  | None ->
    let pl, setup, _ = timed (fun () -> pipeline (base_ctx o)) in
    let rows, wall, cpu =
      timed (fun () -> wrap (fun () -> grid_call o.w ~ctx pl))
    in
    (pl, rows, wall, cpu, Some setup)

(* ---------- output ---------- *)

let metric name unit v =
  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])

let count name v = (name, J.Obj [ ("value", J.Int v); ("unit", J.Str "count") ])

let emit ~record ~attempted ~failed metrics =
  print_endline (J.to_string (J.Obj [ ("record", J.Obj record) ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]))

let gate_record gate lines =
  [
    ("rows_digest", J.Str (Gate.digest lines));
    ("cells_failed", J.Int (Gate.failures gate));
    ("gate_notes", J.List (List.map (fun s -> J.Str s) gate.Gate.notes));
  ]

let samples l = J.List (List.map (fun v -> J.Float v) l)

(* ---------- untraced run: end-to-end metrics ---------- *)

(* The trace blocks one measured call processes: every grid cell
   replays the whole Test trace; the warm command replays nothing but
   loads the Training and Test traces from the store and rebuilds the
   profile from Training. *)
let trace_work w (pl : Pipeline.t) ~cells =
  let test = Stc_trace.Recorder.length pl.Pipeline.test in
  if w.store then test + Stc_trace.Recorder.length pl.Pipeline.training
  else cells * test

(* A run measures several inputs, all made from --seed: the seed itself
   (so --seed 1 meets the golden snapshot) and seeds derived from it.
   A seed changes the traces' length by +-20% and the call's cost with
   them, so one input per run would make the run-to-run spread mostly
   a property of the seeds drawn. *)
let input_opts o =
  List.init o.w.inputs (fun i -> { o with seed = o.seed + (i * 100_003) })

(* One input's share of a run: its calls and its row gate. *)
type measured_input = {
  io : opts;
  store : string option;
  cold : string list option;  (* store-warm: rows of the cold fill *)
  mutable walls : float list;
  mutable cpus : float list;
  mutable rss : float list;  (* each call's high-water resident set, MiB *)
  mutable first :
    (Gate.t * string list * (string * J.t) list * int * int) option;
      (* gate, rows, identity, Test-trace blocks, trace work *)
}

(* Pipeline builds per input before the grid workloads measure: a build
   takes about 0.35 s and a single one swings by half on a shared host. *)
let setup_builds = 3

let untraced o =
  (* Setup: the cold fill of a fresh store per input (store-warm), or
     pipeline builds per input; setup_s is the median over these and the
     builds that precede each measured call, each scaled to the nominal
     input (scaled_setup). *)
  let setups = ref [] and setups_raw = ref [] in
  let add_setup ~blocks seconds =
    setups := scaled_setup ~blocks seconds :: !setups;
    setups_raw := seconds :: !setups_raw
  in
  let ins =
    List.mapi
      (fun k io ->
        if o.w.store then begin
          let dir = Printf.sprintf "%s/store-%d" work_dir k in
          let (blocks, rows), wall, _ =
            timed (fun () -> cold_fill_child io dir)
          in
          add_setup ~blocks wall;
          {
            io;
            store = Some dir;
            cold = Some rows;
            walls = [];
            cpus = [];
            rss = [];
            first = None;
          }
        end
        else begin
          for _ = 1 to setup_builds do
            Gc.compact ();
            let pl, wall, _ = timed (fun () -> pipeline (base_ctx io)) in
            add_setup ~blocks:(setup_blocks pl) wall
          done;
          {
            io;
            store = None;
            cold = None;
            walls = [];
            cpus = [];
            rss = [];
            first = None;
          }
        end)
      (input_opts o)
  in
  (* the calls go round-robin over the inputs until the time is up and
     every input has had one, so that a run always measures the same
     inputs *)
  let t0 = Unix.gettimeofday () and calls = ref 0 and rss_reset = ref true in
  while !calls < o.w.inputs || Unix.gettimeofday () -. t0 < o.seconds do
    let m = List.nth ins (!calls mod o.w.inputs) in
    incr calls;
    (* each call's resident set peak is its own: not the set-up's (on
       store-warm, cold fills that replay the grid), nor a previous
       call's heap *)
    Gc.compact ();
    rss_reset := reset_peak_rss () && !rss_reset;
    let pl, rows, wall, cpu, setup = measured m.io ~store:m.store () in
    m.rss <- peak_rss_mb () :: m.rss;
    Option.iter (add_setup ~blocks:(setup_blocks pl)) setup;
    m.walls <- wall :: m.walls;
    m.cpus <- cpu :: m.cpus;
    let lines = render o.w (perturb o rows) in
    match m.first with
    | None ->
      let g = gate_first m.io pl lines in
      Option.iter
        (fun c -> Gate.check g ~what:"cold fill" ~reference:c lines)
        m.cold;
      m.first <-
        Some
          ( g,
            lines,
            identity m.io pl rows,
            Stc_trace.Recorder.length pl.Pipeline.test,
            trace_work o.w pl ~cells:(List.length rows) )
    | Some (g, reference, _, _, _) ->
      Gate.check g ~what:"repeat" ~reference lines
  done;
  let ran =
    List.filter_map (fun m -> Option.map (fun f -> (m, f)) m.first) ins
  in
  let best l = List.fold_left Float.min infinity l in
  (* Rates over the inputs: the trace work of each at its fastest call,
     summed, per second of those calls. The fastest call because the
     same call on one input swings by up to 40% for seconds at a time on
     a shared 2-core VM (30 s windows: medians 0.35-0.44 s, fastest calls
     0.27-0.29 s); every call is in the record. *)
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 ran in
  let work = sum (fun (_, (_, _, _, _, w)) -> float_of_int w) in
  let rate calls = work /. sum (fun (m, _) -> best (calls m)) /. 1e6 in
  (* the median call of the median input; not per block: the peak hardly
     follows the Test trace's length (a fixed part, and where the major
     GC stands when allocation peaks) *)
  let rss_mb = median (List.map (fun (m, _) -> median m.rss) ran) in
  let over_gates f =
    List.fold_left (fun a (_, (g, _, _, _, _)) -> a + f g) 0 ran
  in
  let failed = over_gates Gate.failures and attempted = over_gates Gate.cells in
  let record =
    provenance o
    @ [
        ("workload", J.Str o.w.name);
        ("seed", J.Int o.seed);
        ("mode", J.Str "untraced");
        ("seconds", J.Float o.seconds);
        ("calls", J.Int !calls);
        ("setup_s_samples", samples (List.rev !setups));
        ("setup_s_raw_samples", samples (List.rev !setups_raw));
        ("nominal_setup_blocks", J.Int nominal_setup_blocks);
        ("peak_rss_per_call", J.Bool !rss_reset);
        ( "inputs",
          J.List
            (List.map
               (fun (m, (g, lines, ident, _, w)) ->
                 J.Obj
                   (ident
                   @ [
                       ("trace_work_blocks", J.Int w);
                       ("wall_s", J.Float (median m.walls));
                       ("wall_s_samples", samples (List.rev m.walls));
                       ("cpu_s_samples", samples (List.rev m.cpus));
                       ("peak_rss_mb_samples", samples (List.rev m.rss));
                     ]
                   @ gate_record g lines))
               ran) );
      ]
  in
  Printf.eprintf
    "perfbench %s seed=%d: %d call(s) over %d input(s), %d/%d cells failed\n%!"
    o.w.name o.seed !calls (List.length ran) failed attempted;
  emit ~record ~attempted ~failed
    [
      metric "trace_mblocks_per_s" "Mblocks/s" (rate (fun m -> m.walls));
      metric "cpu_mblocks_per_s" "Mblocks/s" (rate (fun m -> m.cpus));
      metric "setup_s" "s" (median !setups);
      metric "peak_rss_mb" "MB" rss_mb;
    ]

(* ---------- traced run: per-layer metrics and the layer budget ---------- *)

(* Which layer a program or benchmark slice belongs to. *)
let layer_of name =
  let p = Spans.has_prefix in
  if List.mem name [ "kernel-build"; "datagen"; "db-load"; "build-profile" ]
     || p "record-" name
  then "pipeline"
  else if p "layout-" name then "layout"
  else if p "store." name then "store"
  else if p "engine." name then "replay"
  else if p "fused:" name || p "cell:" name then "group"
  else if name = "pool.chunk" then "pool"
  else "unattributed" (* the call itself, simulate-grid / extended-grid *)

let budget_layers = [ "pipeline"; "layout"; "group"; "replay"; "store"; "pool" ]

type budget = {
  wall : float;
  capacity : float;  (* wall x jobs, in domain-seconds *)
  by_layer : (string * float) list;  (* self domain-seconds *)
  unattributed : float;
  idle : float;
  units : Spans.slice list;  (* pool chunks, or fused groups when serial *)
}

let budget o tr =
  let sl = Spans.of_trace tr in
  let call = List.find (fun s -> s.Spans.name = "bench.call") sl in
  let inside = Spans.within call sl in
  let self_of layer =
    Spans.sum_self
      (List.filter (fun s -> layer_of s.Spans.name = layer) inside)
  in
  let wall = Spans.dur call in
  let capacity = wall *. float_of_int o.jobs in
  let by_layer = List.map (fun l -> (l, self_of l)) budget_layers in
  let unattributed = self_of "unattributed" in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0.0 by_layer in
  let units =
    match Spans.named (String.equal "pool.chunk") inside with
    | [] -> Spans.named (Spans.has_prefix "fused:") inside
    | l -> l
  in
  {
    wall;
    capacity;
    by_layer;
    unattributed;
    idle = Float.max 0.0 (capacity -. attributed -. unattributed);
    units;
  }

(* A counter summed over registries (0 where absent). *)
let counter regs name =
  List.fold_left
    (fun a reg ->
      a
      + Option.value ~default:0
          (List.assoc_opt name (Stc_obs.Registry.counters reg)))
    0 regs

(* Interleaved untraced/traced call pairs for trace.overhead_frac: at
   least one, and more while half of --seconds lasts, up to this many. *)
let max_overhead_pairs = 5

let traced o =
  (* one registry per pipeline build: a registry takes each pipeline's
     counters once *)
  let reg_fill = Stc_obs.Registry.create () in
  let store = if o.w.store then Some (work_dir ^ "/store-1") else None in
  let cold =
    Option.map (fun dir -> snd (cold_fill o ~metrics:reg_fill dir)) store
  in
  let t0 = Unix.gettimeofday () in
  (* the untraced reference call: the gate's reference and GC figures *)
  let gc0 = Gc.quick_stat () in
  let pl_u, rows_u, wall_u, _, _ = measured o ~store () in
  let gc1 = Gc.quick_stat () in
  (* gate: the untraced rows are the reference for the rest *)
  let lines = render o.w (perturb o rows_u) in
  let gate = gate_first o pl_u lines in
  Option.iter
    (fun c -> Gate.check gate ~what:"cold fill" ~reference:(render o.w c) lines)
    cold;
  (* traced calls, each the program's own spans under a bench.call span,
     interleaved with further untraced calls; the fastest traced call
     gives the layer budget, and the fastest of each kind the tracing
     overhead, since one pair on a shared host is mostly noise *)
  let traced_call () =
    let tr = Tr.create ~capacity:(1 lsl 18) () in
    let reg = Stc_obs.Registry.create () in
    let ctx = base_ctx o |> Run.with_trace tr |> Run.with_metrics reg in
    let _, rows, wall, _, _ = measured o ~ctx ~tracer:tr ~store () in
    Gate.check gate ~what:"traced" ~reference:lines (render o.w rows);
    (tr, reg, rows, wall)
  in
  let rec pairs n walls_u ((_, _, _, best_t) as best) walls_t =
    if
      n >= max_overhead_pairs
      || Unix.gettimeofday () -. t0 >= o.seconds /. 2.0
    then (List.rev walls_u, best, List.rev walls_t)
    else begin
      let _, rows, wall, _, _ = measured o ~store () in
      Gate.check gate ~what:"repeat" ~reference:lines (render o.w rows);
      let ((_, _, _, wall_t) as call) = traced_call () in
      pairs (n + 1) (wall :: walls_u)
        (if wall_t < best_t then call else best)
        (wall_t :: walls_t)
    end
  in
  let ((_, _, _, wall_t0) as first) = traced_call () in
  let walls_u, (tr, reg, rows_t, _), walls_t =
    pairs 1 [ wall_u ] first [ wall_t0 ]
  in
  let fastest = List.fold_left Float.min infinity in
  let b = budget o tr in
  (* the layer-by-layer pass, on a fresh pipeline whose build the
     program's phase spans time *)
  let trb = Tr.create ~capacity:(1 lsl 18) () in
  let pl = pipeline (base_ctx o |> Run.with_trace trb) in
  let lb =
    Layers.run ~tracer:trb ~store_dir:(work_dir ^ "/roundtrip") sim_config pl
      rows_t
  in
  Gate.check gate ~what:"layer-by-layer"
    ~reference:lines (render o.w (Array.to_list lb.Layers.rows));
  (* a layout the store round trip changed would feed every cell *)
  if lb.Layers.store_bad_layouts > 0 then
    Gate.fail_all gate
      ~why:
        (Printf.sprintf "store round trip changed %d layout(s)"
           lb.Layers.store_bad_layouts);
  List.iter
    (fun i -> Gate.fail gate i ~why:"store round trip changed a result")
    lb.Layers.store_bad_cells;
  (* layer times from the benchmark's spans and the pipeline's *)
  let sl = Spans.of_trace trb in
  let total f = Spans.sum_dur (Spans.named f sl) in
  let is = String.equal and pre = Spans.has_prefix in
  let training = Stc_trace.Recorder.length pl.Pipeline.training in
  let test = Stc_trace.Recorder.length pl.Pipeline.test in
  let record_s = total (pre "record-") in
  let profile_s = total (is "build-profile") in
  let compile_s = total (is "compile") in
  let sweeps = List.map Spans.dur (Spans.named (is "bank") sl) in
  let replay_s = List.fold_left ( +. ) 0.0 sweeps in
  let cells = Array.length lb.Layers.rows in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 lb.Layers.results in
  let module R = Stc_fetch.Engine in
  let issued = sum (fun r -> r.R.prefetch_issued) in
  let useful = sum (fun r -> r.R.prefetch_useful) in
  let share base v = if base > 0.0 then v /. base else 0.0 in
  let layer l = List.assoc l b.by_layer in
  let window =
    match b.units with
    | [] -> 0.0
    | u :: _ ->
      List.fold_left (fun a s -> Float.max a s.Spans.t1) u.Spans.t1 b.units
      -. List.fold_left (fun a s -> Float.min a s.Spans.t0) u.Spans.t0 b.units
  in
  let busy = Spans.sum_dur b.units in
  let pool_capacity = window *. float_of_int o.jobs in
  let f = float_of_int in
  let word_mb w = f (w * (Sys.word_size / 8)) /. 1e6 in
  let stores = counter [ reg_fill; reg ] in
  let metrics =
    [
      metric "synth.kernel_build_s" "s" (total (is "kernel-build"));
      metric "db.load_s" "s"
        (total (fun n -> is "datagen" n || is "db-load" n));
      metric "walker.record_s" "s" record_s;
      metric "walker.blocks_per_s" "1/s" (share record_s (f (training + test)));
      metric "profile.build_s" "s" profile_s;
      metric "profile.blocks_per_s" "1/s" (share profile_s (f training));
    ]
    @ List.map
        (fun a ->
          let slug = a.Stc_layout.Algo.slug in
          metric
            ("layout." ^ slug ^ ".plan_s")
            "s"
            (total (is ("plan:" ^ slug))))
        (Stc_layout.Algo.all ())
    @ [
        count "layout.plans" lb.Layers.plans;
        metric "layout.prefix_s" "s" (layer "layout");
        metric "layout.prefix_frac" "ratio" (share b.wall (layer "layout"));
        metric "packed.compile_s" "s" compile_s;
        count "packed.compiles" lb.Layers.sweeps;
        metric "packed.words_per_s" "1/s" (share compile_s (f lb.Layers.words));
        metric "packed.image_mb" "MB" (word_mb lb.Layers.image_words);
        metric "replay.s" "s" replay_s;
        count "replay.sweeps" lb.Layers.sweeps;
        metric "replay.cells_per_sweep" "count"
          (f cells /. f lb.Layers.sweeps);
        metric "replay.cell_blocks_per_s" "1/s"
          (share replay_s (f (cells * test)));
        metric "replay.sweep_p50_s" "s" (median sweeps);
        metric "replay.sweep_max_s" "s" (List.fold_left Float.max 0.0 sweeps);
        metric "replay.frac" "ratio" (share b.capacity (layer "replay"));
        count "icache.accesses" (sum (fun r -> r.R.icache_accesses));
        count "icache.misses" (sum (fun r -> r.R.icache_misses));
        count "icache.evictions" (sum (fun r -> r.R.icache_evictions));
        count "tc.lookups" (sum (fun r -> r.R.tc_lookups));
        count "tc.hits" (sum (fun r -> r.R.tc_hits));
        count "fdip.issued" issued;
        count "fdip.useful" useful;
        count "fdip.late" (sum (fun r -> r.R.prefetch_late));
        metric "fdip.useful_ratio" "ratio" (share (f issued) (f useful));
        count "sim.instrs" (sum (fun r -> r.R.instrs));
        count "sim.cycles" (sum (fun r -> r.R.cycles));
        metric "temperature.s" "s" (total (is "temperature"));
        metric "pool.busy_s" "s" busy;
        metric "pool.idle_s" "s" (Float.max 0.0 (pool_capacity -. busy));
        metric "pool.utilization" "ratio" (share pool_capacity busy);
        count "pool.chunks" (List.length b.units);
        count "store.hits" (stores "store.hits");
        count "store.misses" (stores "store.misses");
        count "store.writes" (stores "store.writes");
        count "store.corrupt" (stores "store.corrupt");
        metric "store.read_mb" "MB" (f lb.Layers.store_read_bytes /. 1e6);
        metric "store.write_mb" "MB" (f lb.Layers.store_write_bytes /. 1e6);
        metric "store.read_s" "s" (total (is "store.load"));
        metric "store.write_s" "s" (total (is "store.save"));
        metric "store.frac" "ratio" (share b.capacity (layer "store"));
        metric "fp.trace_s" "s" (total (is "fp.trace"));
        metric "fp.program_s" "s" (total (is "fp.program"));
        metric "pipeline.frac" "ratio" (share b.capacity (layer "pipeline"));
        metric "gc.minor_mb" "MB"
          (word_mb (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words)));
        count "gc.major_collections"
          (gc1.Gc.major_collections - gc0.Gc.major_collections);
        metric "gc.top_heap_mb" "MB" (word_mb gc1.Gc.top_heap_words);
        metric "experiments.unattributed_s" "s" b.unattributed;
        metric "experiments.unattributed_frac" "ratio"
          (share b.wall b.unattributed);
        metric "budget.attributed_s" "s"
          (List.fold_left (fun a (_, v) -> a +. v) 0.0 b.by_layer);
        metric "budget.capacity_s" "s" b.capacity;
        metric "trace.overhead_frac" "ratio"
          (share (fastest walls_u) (fastest walls_t -. fastest walls_u));
      ]
  in
  (* the layer budget: domain-seconds of the traced call, each layer's
     self time, the remainder no layer slice covers, and idle domains *)
  let rows_budget =
    b.by_layer @ [ ("unattributed", b.unattributed); ("idle", b.idle) ]
  in
  Printf.eprintf
    "perfbench %s seed=%d traced: call %.3fs x %d domain(s) = %.3f \
     domain-s (fastest untraced %.3fs of %d)\n"
    o.w.name o.seed b.wall o.jobs b.capacity (fastest walls_u)
    (List.length walls_u);
  List.iter
    (fun (l, v) ->
      Printf.eprintf "  %-13s %9.3fs  %5.1f%% of %.3f domain-s\n" l v
        (100.0 *. share b.capacity v) b.capacity)
    rows_budget;
  Printf.eprintf "  %d/%d cells failed\n%!" (Gate.failures gate)
    (Gate.cells gate);
  let record =
    identity o pl_u rows_u @ provenance o
    @ [
        ("mode", J.Str "traced");
        ( "model",
          J.Str
            "not validated against hardware: rows are checked for identity, \
             no accuracy-error figure is given; simulated caches start empty" );
        ("call_wall_s", J.Float b.wall);
        ("overhead_pairs", J.Int (List.length walls_t));
        ("untraced_wall_s_samples", samples walls_u);
        ("traced_wall_s_samples", samples walls_t);
        ( "layer_budget",
          J.Obj
            [
              ("base", J.Str "traced call wall_s x jobs (domain-seconds)");
              ("capacity_s", J.Float b.capacity);
              ( "self_s",
                J.Obj (List.map (fun (l, v) -> (l, J.Float v)) rows_budget) );
            ] );
      ]
    @ gate_record gate lines
  in
  emit ~record ~attempted:(Gate.cells gate) ~failed:(Gate.failures gate)
    metrics

let () =
  let o = parse_args () in
  match o.cold_fill_dir with
  | Some dir -> cold_fill_main o dir
  | None ->
    at_exit (fun () ->
        (* a cold-fill child still running is stopped and waited for *)
        Option.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          !child;
        rm_rf work_dir);
    (* a run stopped from outside still removes its scratch stores *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
      [ Sys.sigint; Sys.sigterm ];
    if o.traced then traced o else untraced o
