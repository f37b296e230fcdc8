(** ExtTSP-style block reordering (Newell & Pupyrev, IEEE TC 2020 — the
    score behind LLVM BOLT's basic-block layout).

    An edge scores its full weight when the destination falls through
    from the source, a decaying tenth of it for short forward
    (≤ 1024 B) or backward (≤ 640 B) jumps, and nothing otherwise.
    Executed blocks start as singleton chains; each greedy step merges
    the connected chain pair (in its better orientation) with the
    largest positive score gain — the gain of a concatenation is exactly
    the score of the cross edges, since intra-chain distances are
    invariant — until no merge improves the score. The hottest finished
    chains are pinned into the Conflict-Free Area.

    The merge is incremental: each connected chain pair caches its cross
    edges and both orientation gains, a merge re-scores only the pairs
    touching the merged chain, and the next merge is the least element
    of an ordered set keyed [(-gain, first cross edge, orientation)] —
    the first cross edge is the pair's first edge in the sorted
    [(src, dst)] edge list, and orientation 0 places the smaller chain
    root first. That is the order a full rescan of every pair picks in,
    so the merge sequence, and every float of it, equals the rescan's. *)

val edge_score : src_end:int -> dst:int -> int -> float
(** Score of one edge of the given weight, with the source's end byte
    and the destination's start byte (exposed for tests). *)

val chains : Stc_profile.Profile.t -> int list list
(** The finished chains, hottest first (exposed for tests). Each call
    builds them afresh; nothing is shared between calls. *)

val plan : Stc_profile.Profile.t -> cfa_bytes:int -> Mapping.plan
(** Hot chains split into CFA residents and the rest
    ({!Mapping.chain_plan}); never-executed blocks in original textual
    order as the cold part. [plan profile] is a staged planner: it
    builds the chains on its first use and shares them with every later
    CFA budget it is applied to. Force it on one domain before sharing
    it between domains. *)
