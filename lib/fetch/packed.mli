(** Packed trace images: one immutable int word per trace index.

    A packed image is the engine's one replay input ({!Engine.Bank}
    borrows it, never copies it). {!compile} drains a
    {!Stc_trace.Source} segment by segment into one whole-trace image
    from validated per-block {!tables}; the result does not depend on
    the segment size, because the one cross-index dependency (the taken
    bit looks one block ahead) is read from the next segment's first
    block at every boundary.

    Word layout: bits 0–2 flags (taken / branch-end / conditional-end),
    bits 3–21 block size in instructions (up to 2^19-1), bits 22–62
    block byte address (up to 2 TB). The structure is immutable after
    compilation and safe to share read-only across domains; {!Stc_core}'s
    experiment grids compile one per distinct layout and share it between
    all cells that replay that layout. *)

type t

type tables
(** Per-block-id static words — everything but the per-index taken bit —
    validated once per (program, layout) and shared by every segment
    compiled under it. *)

val tables : Stc_cfg.Program.t -> Stc_layout.Layout.t -> tables
(** Build and validate the per-block tables for a program under a
    layout. Raises [Invalid_argument] if any block size or address
    exceeds the packed word's field widths. *)

val tables_of_arrays :
  sizes:int array ->
  branch_end:bool array ->
  cond_end:bool array ->
  addrs:int array ->
  tables
(** Same, from pre-extracted per-block-id arrays (the {!View} path, so a
    view and its packed form share exactly the same inputs). *)

val compile :
  Stc_cfg.Program.t -> Stc_layout.Layout.t -> Stc_trace.Source.t -> t
(** Drain the source and compile the whole trace into one image.
    Equivalent to [compile_tables (tables p l) src]. Raises
    [Invalid_argument], naming the trace index and the id, when a block
    id is outside [\[0, n)] for the program's [n] blocks. *)

val compile_tables : tables -> Stc_trace.Source.t -> t
(** {!compile} with prebuilt tables (amortizes table validation when
    several traces compile under one layout). Drains the source. *)

val length : t -> int
(** Number of blocks in the image. *)

(** {2 The hot-loop surface}

    [raw t] is the word array itself (never mutate it; indices
    [>= length t] are padding). Decode with the [w_*] accessors. This is
    what {!Engine}'s packed loops and the packed {!Tracecache} paths
    iterate over. *)

val raw : t -> int array

val w_addr : int -> int
(** Block byte address under the layout. *)

val w_size : int -> int
(** Block size in instructions. *)

val w_taken : int -> bool
(** The transition to the next trace index is non-sequential under the
    layout (the last index counts as taken). *)

val w_branch : int -> bool
(** The block ends with a branch instruction. *)

val w_cond : int -> bool
(** The block ends with a conditional branch. *)

(** {2 Checked per-index accessors}

    Same answers as the [View] functions of the same name; used by tests
    and non-hot callers. *)

val word : t -> int -> int

val block_addr : t -> int -> int

val block_size : t -> int -> int

val taken : t -> int -> bool

val has_branch : t -> int -> bool

val is_cond : t -> int -> bool

val addr : t -> idx:int -> off:int -> int
(** Byte address of instruction [off] of the block at trace index
    [idx]. *)

(** {2 Stream totals} — precomputed during compilation. *)

val total_instrs : t -> int

val taken_branches : t -> int

val instrs_between_taken : t -> float

val memory_words : t -> int
(** Size of the compiled representation in words (one per trace index);
    lets grid planners reason about cache residency. *)
