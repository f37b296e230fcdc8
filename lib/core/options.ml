let check ?sf ?frames ?exec_threshold ?branch_threshold ?jobs () =
  let bad cond msg = if cond then Some msg else None in
  let errors =
    List.filter_map Fun.id
      [
        Option.bind sf (fun v ->
            (* [not (v > 0)] also rejects nan *)
            bad (not (v > 0.0))
              (Printf.sprintf "--scale must be > 0 (got %g)" v));
        Option.bind frames (fun v ->
            bad (v < 1) (Printf.sprintf "--frames must be >= 1 (got %d)" v));
        Option.bind exec_threshold (fun v ->
            bad (v < 0)
              (Printf.sprintf "--exec-threshold must be >= 0 (got %d)" v));
        Option.bind branch_threshold (fun v ->
            bad
              (not (v >= 0.0 && v <= 1.0))
              (Printf.sprintf "--branch-threshold must be in [0, 1] (got %g)"
                 v));
      ]
  in
  match errors with
  | _ :: _ -> Error errors
  | [] ->
    Ok
      (match jobs with
      | Some j when j < 1 -> [ Printf.sprintf "--jobs %d runs as --jobs 1" j ]
      | _ -> [])
