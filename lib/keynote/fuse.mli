(** Fused batch execution of compiled decision programs.

    [Compile.run] is one full pass over the program per admission query;
    under a 64-slot ring batch that is 64 passes over a program most of
    whose opcodes depend only on batch-invariant inputs (credential chain,
    module identity, call origin, static attributes).  [plan] splits a
    compiled program into contiguous segments and rewrites each within
    [Compile.instr]: origin tests against literals become origin opcodes,
    a peephole pass fuses common opcode pairs into superoperators, and
    jumps become relative to the segment.  It then partitions the
    segments into a batch-invariant prefix and a per-slot residue.
    [begin_batch] runs the prefix once into a {!snapshot}; [run_slot]
    replays only the residue per slot.  Both run segments on
    [Compile.exec_seg], the one executor every engine shares.

    Cost accounting is the caller's job, mirroring [Compile.run]: charge
    [Cost_model.Policy_fused_setup] plus [s_setup_ops] compiled-op units
    when a snapshot is built, and [outcome.ops] compiled-op units per
    slot.  Each superoperator executes (and is charged as) {e one} op —
    that, plus prefix hoisting, is the entire speedup; there is no
    hidden discount.

    Verdict parity: for any program, origin, and attribute list that
    includes the origin pairs (as the dispatcher guarantees),
    [run_slot] returns exactly [Compile.run]'s outcome modulo [ops] —
    asserted over randomized programs by [test/test_compile.ml]. *)

type origin = Compile.origin = { o_module : string; o_ring : int; o_transport : string }
(** [Compile.origin], re-exported for the dispatcher and its callers. *)

val no_origin : origin
(** ["user"] at ring 3 over msgq — the provenance of a plain process. *)

type seg = { ops : Compile.instr array; invariant : bool }
(** One rewritten segment: base, superoperator and origin opcodes with
    segment-relative, strictly forward jumps. *)

type t
(** A fused plan for one compiled program.  Immutable and, like the
    program it lowers, safe to cache per (credential, policy revision,
    keystore generation).  It owns the segment arrays it lowers, so they
    are freed with it. *)

type snapshot = {
  s_nodes : int array;
      (** value-node results; invariant entries are final, variant entries
          are scratch space the residue rewrites every slot *)
  s_setup_ops : int;  (** prefix opcodes executed building the snapshot *)
}

val plan : Compile.t -> varying:string list -> t
(** Lower, fuse and partition.  [varying] names the action
    attributes that change slot to slot (the dispatcher passes
    ["function"] and the volatile attributes); every opcode whose value
    could depend on one — directly or through a value node — lands in the
    residue.  Planning is total: a program whose shape defeats
    segmentation degrades to an all-residue plan (per-slot execution,
    still superoperator-fused), never to wrong answers. *)

val begin_batch : t -> origin:origin -> attrs:(string * string) list -> snapshot
(** Evaluate the batch-invariant prefix once.  [attrs] here are the
    batch-invariant attributes (module, phase, static policy attributes,
    origin pairs); varying attributes are absent by construction — no
    prefix opcode reads them. *)

val run_slot :
  t -> snapshot -> origin:origin -> attrs:(string * string) list -> Compile.outcome
(** Evaluate the per-slot residue against one slot's full attribute list.
    [ops] is the residue opcode count — the per-slot cost driver.  The
    snapshot may be reused across any number of slots and batches until
    the program it came from is invalidated. *)

(** {2 Plan internals (consumed by {!Vexec})} *)

val segments : t -> seg array
val residue_segments : t -> int array
(** Indices into {!segments} of the per-slot residue, program order
    (includes the root segment). *)

val levels : t -> string array
val max_seg : t -> int
(** Longest segment in opcodes — bounds the executor's stack. *)

val residue_reads : t -> string list -> bool
(** Does any residue opcode read one of the named attributes?  Used by
    the vector-eligibility test: a residue that reads a volatile
    attribute ([calls_so_far]) has a lane-order data dependency and must
    stay slot-major.  Direct reads suffice — an opcode reading the
    attribute is itself in the residue by construction. *)

(** {2 Introspection} *)

type stats = {
  segments : int;
  invariant_segments : int;
  total_fops : int;
  invariant_fops : int;  (** static prefix size; fraction of [total_fops] *)
  superops : (string * int) list;
      (** fused-opcode histogram by mnemonic, most frequent first *)
  origin_fops : int;
}

val stats : t -> stats
