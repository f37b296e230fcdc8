(** A bounded, off-heap slice of a basic-block trace.

    Segments are the unit of {!Source}, the pull-based trace API: a contiguous
    run of block ids starting at global trace index {!base}, stored in a
    [Bigarray] so the payload lives outside the OCaml heap — a segment
    handed to a pool domain is shared by reference, never copied or
    scanned by the GC, and the recorder can drop its own buffers while
    consumers still hold live segments. *)

type ids = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { ids : ids; base : int }

val alloc : int -> ids
(** An uninitialized off-heap id buffer of the given length (length 0 is
    allowed). *)

val make : ids -> base:int -> t
(** Wrap a filled buffer; [base] is the global trace index of
    [ids.{0}]. *)

val of_array : ?base:int -> int array -> t
(** Copy a heap array into a fresh off-heap segment (tests and adapters;
    the hot producers fill {!alloc}'d buffers directly). *)

val length : t -> int

val base : t -> int
(** Global trace index of the segment's first block. *)

val get : t -> int -> int
(** Block id at {e local} index [i] (bounds-checked). *)

val unsafe_get : t -> int -> int

val first : t -> int
(** [get t 0]; raises [Invalid_argument] on an empty segment. *)

val iter : (int -> unit) -> t -> unit

val blit_to_array : t -> int array -> int -> unit
(** Copy the segment's ids into [dst] starting at the given offset. *)
