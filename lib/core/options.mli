(** Validation of the run options the command-line front ends accept, in
    one place, so a nonsensical value fails before the pipeline is built
    instead of producing plausible-looking tables. *)

val check :
  ?sf:float ->
  ?frames:int ->
  ?exec_threshold:int ->
  ?branch_threshold:float ->
  ?jobs:int ->
  unit ->
  (string list, string list) result
(** Check every value given. [Error msgs] carries one message per
    rejected value:
    - a scale factor [sf] that is not > 0;
    - fewer than 1 buffer-pool [frames];
    - a negative [exec_threshold];
    - a [branch_threshold] outside [[0, 1]].

    [Ok notes] means every value is usable; [notes] name the values that
    are adjusted rather than rejected: a [jobs] below 1 runs as 1 (as
    {!Run.with_jobs} clamps it). *)
