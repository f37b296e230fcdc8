(* Timeline analysis of a Stc_obs.Trace: the Chrome trace_event export
   is turned back into per-domain nested slices, and each slice's self
   time (its duration minus the part its direct children cover) is what
   the layer budget charges to the slice's name. *)

module J = Stc_obs.Json

type slice = {
  name : string;
  tid : int;
  t0 : float;  (* seconds since the trace epoch *)
  t1 : float;
  mutable children : float;  (* seconds covered by direct children *)
}

let dur s = s.t1 -. s.t0
let self s = Float.max 0.0 (dur s -. s.children)

let num = function
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.0

let str = function Some (J.Str s) -> s | _ -> ""

(* Every closed B/E pair and every X event, nested per domain. Events of
   one domain arrive in emission order; X events are emitted when they
   end, so nesting is rebuilt from the intervals, not from event order. *)
let of_trace tr =
  let open_ = Hashtbl.create 4 in
  let out = ref [] in
  let events = match Stc_obs.Trace.to_json tr with J.List l -> l | _ -> [] in
  List.iter
    (fun ev ->
      let ph = str (J.member "ph" ev) in
      let tid = int_of_float (num (J.member "tid" ev)) in
      let ts = num (J.member "ts" ev) /. 1e6 in
      let name = str (J.member "name" ev) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt open_ tid) in
      match ph with
      | "B" -> Hashtbl.replace open_ tid ((name, ts) :: stack)
      | "E" -> (
        match stack with
        | (n, t0) :: rest ->
          Hashtbl.replace open_ tid rest;
          out :=
            { name = n; tid; t0; t1 = ts; children = 0.0 } :: !out
        | [] -> ())
      | "X" ->
        let t1 = ts +. (num (J.member "dur" ev) /. 1e6) in
        out := { name; tid; t0 = ts; t1; children = 0.0 } :: !out
      | _ -> ())
    events;
  let slices =
    List.sort
      (fun a b ->
        match compare a.tid b.tid with
        | 0 -> (
          match compare a.t0 b.t0 with 0 -> compare b.t1 a.t1 | c -> c)
        | c -> c)
      !out
  in
  (* a stack of enclosing slices per domain: pop what ended before this
     slice starts; the top left over (if any) is its parent *)
  let stack = ref [] and tid = ref (-1) in
  List.iter
    (fun s ->
      if s.tid <> !tid then begin
        stack := [];
        tid := s.tid
      end;
      let rec pop = function
        | p :: rest when p.t1 <= s.t0 -> pop rest
        | l -> l
      in
      stack := pop !stack;
      (match !stack with
      | p :: _ -> p.children <- p.children +. dur s
      | [] -> ());
      stack := s :: !stack)
    slices;
  slices

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let named f slices = List.filter (fun s -> f s.name) slices
let sum_dur l = List.fold_left (fun a s -> a +. dur s) 0.0 l
let sum_self l = List.fold_left (fun a s -> a +. self s) 0.0 l

(* Slices that lie inside [w] (same or any domain). *)
let within w slices = List.filter (fun s -> s.t0 >= w.t0 && s.t1 <= w.t1) slices
