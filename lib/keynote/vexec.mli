(** Batch-major (vectorized) residue execution — E25.

    [Fuse.run_slot] replays the per-slot residue slot-major and is
    charged one compiled op per executed opcode per slot.  [run_residue]
    evaluates the residue for N lanes at once and charges it the way a
    SIMD engine runs it: {e one pass per opcode position over all
    lanes}.  Lanes that diverge through a fused [test+jf] sleep until
    the walk reaches their landing point — they are mask-skipped, never
    branched around — and the walk position is the minimum program
    counter over live lanes, so a stretch no lane needs is skipped
    entirely.  Forward-only jumps (a [Compile.compile] invariant the
    rewrite preserves) make that walk monotone, so it is computed from
    the lanes' paths: each lane replays the residue on
    [Compile.exec_seg], which records the positions it executes and the
    last one in the segment's {!Compile.trace}, and per residue segment a
    pass is a position at least one lane executes.  Replaying a lane
    builds no closure.

    Verdict parity: for every lane, [vr_indices.(k)] equals the [index]
    [Fuse.run_slot] would return for that lane's origin and attribute
    list — asserted by the four-way differential in
    test/test_compile.ml, which also keeps the lockstep walk as the
    reference for [vr_passes] and [vr_units].

    Cost accounting is the caller's job: charge
    {!Smod_sim.Cost_model.Policy_vector_op} times [vr_units], where each
    pass contributes [ceil(L/W)] units for the L lanes still live there
    (lanes that have not yet executed their last op in the segment) —
    the SIMD-style lane-width discount.  At N=1 the passes are exactly
    the positions the scalar replay executes, one unit each, so the
    fallback is honest by construction. *)

type lane = {
  l_origin : Fuse.origin;
      (** kernel-resolved provenance for this lane's slot — it stays
          unforgeable because it never passes through client-writable
          memory *)
  l_attrs : (string * string) list;
      (** the slot's full attribute list (varying attributes such as
          ["function"] included), exactly what [Fuse.run_slot] would
          receive *)
}

type result = {
  vr_indices : int array;  (** per-lane compliance index, clamped to levels *)
  vr_passes : int;
      (** opcode positions at least one lane executes, summed over residue
          segments *)
  vr_units : int;
      (** Σ per-pass [ceil(live/W)] — the {!Smod_sim.Cost_model.Policy_vector_op}
          charge *)
}

val default_width : int
(** 8 — the lane width W every dispatcher vector pass is priced at. *)

val run_residue : Fuse.t -> Fuse.snapshot -> width:int -> lanes:lane array -> result
(** Evaluate the plan's residue over [lanes] against the batch-invariant
    [snapshot].  Lanes replay in turn on the snapshot's node array, as
    slots do in [Fuse.run_slot]: invariant entries are never written, so
    the snapshot stays reusable across batches.  Raises
    [Invalid_argument] when [width < 1].  [lanes] may be any size; an
    empty array returns an empty result at zero cost. *)
