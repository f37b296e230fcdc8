(* The output gate. Every check a run makes compares the grid rows, one
   rendered line per cell, against a reference; a cell that differs from
   any reference counts once in cells_failed. *)

type t = {
  mutable failed : bool array;
      (* per cell: as many as the longest grid or reference checked *)
  mutable notes : string list;  (* first few reasons, for the record *)
}

let create n = { failed = Array.make n false; notes = [] }
let cells t = Array.length t.failed

let failures t =
  Array.fold_left (fun n f -> if f then n + 1 else n) 0 t.failed

let note t msg = if List.length t.notes < 8 then t.notes <- t.notes @ [ msg ]

(* Cell [i] passes when both sides hold the same line at [i]. A length
   mismatch fails every cell past the shorter side, and the gate grows
   to the longer one, so a grid that drops cells is counted for each
   cell it dropped, not only for the cells it kept. *)
let check t ~what ~reference lines =
  let a = Array.of_list reference and b = Array.of_list lines in
  let la = Array.length a and lb = Array.length b in
  if la <> lb then
    note t (Printf.sprintf "%s: %d rows against %d in the reference" what lb la);
  let n = max la lb in
  if n > cells t then
    t.failed <- Array.append t.failed (Array.make (n - cells t) false);
  for i = 0 to n - 1 do
    if not (i < la && i < lb && a.(i) = b.(i)) then begin
      if i < la && i < lb then
        note t (Printf.sprintf "%s: cell %d: %s <> %s" what i b.(i) a.(i));
      t.failed.(i) <- true
    end
  done

let fail t i ~why =
  note t why;
  t.failed.(i) <- true

let fail_all t ~why =
  note t why;
  Array.fill t.failed 0 (Array.length t.failed) true

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))
  | exception Sys_error _ -> None

(* The golden snapshot restricted to the workload's layouts: the first
   token of a golden line is its layout name. *)
let golden ~path ~layouts =
  Option.map
    (List.filter (fun line ->
         match String.index_opt line ' ' with
         | Some i -> List.mem (String.sub line 0 i) layouts
         | None -> false))
    (read_lines path)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Rows of an earlier run of the same workload, seed, config and
   benchmark binary, kept in the checkout: the first run records them,
   every later one must reproduce them. *)
let across_runs t ~record ~path lines =
  match read_lines path with
  | Some reference -> check t ~what:"earlier run" ~reference lines
  | None when not record -> ()
  | None ->
    mkdir_p (Filename.dirname path);
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    Sys.rename tmp path
