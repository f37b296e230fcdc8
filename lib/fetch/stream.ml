module Segment = Stc_trace.Segment
module Source = Stc_trace.Source

type t = { next : unit -> Packed.t option }

let next t = t.next ()

let of_packed p =
  let pending = ref (Some p) in
  {
    next =
      (fun () ->
        match !pending with
        | None -> None
        | some ->
          pending := None;
          some);
  }

let create tables source =
  (* Hold one id segment in flight and peek the successor's first block
     id before compiling, so the boundary taken bit matches the
     whole-trace compilation. Empty segments are skipped here — they
     carry no ids and would otherwise break the lookahead. *)
  let rec pull_nonempty () =
    match Source.next_segment source with
    | Some s when Segment.length s = 0 -> pull_nonempty ()
    | x -> x
  in
  let pending = ref (pull_nonempty ()) in
  let next () =
    match !pending with
    | None -> None
    | Some seg ->
      let succ = pull_nonempty () in
      pending := succ;
      let next_first =
        match succ with None -> None | Some s -> Some (Segment.first s)
      in
      Some (Packed.of_segment tables seg ~next_first)
  in
  { next }
