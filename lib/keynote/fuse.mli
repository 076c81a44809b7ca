(** Fused batch execution of compiled decision programs.

    [Compile.run] is one full interpreter pass per admission query; under
    a 64-slot ring batch that is 64 passes over a program most of whose
    opcodes depend only on batch-invariant inputs (credential chain,
    module identity, call origin, static attributes).  [plan] re-lowers a
    compiled program into contiguous segments, fuses common opcode pairs
    into superoperators, interns segment arrays in a domain-local
    structural-sharing arena, and partitions the segments into a
    batch-invariant prefix and a per-slot residue.  [begin_batch] runs the
    prefix once into a {!snapshot}; [run_slot] replays only the residue
    per slot.

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

type origin = { o_module : string; o_ring : int; o_transport : string }
(** Caller provenance, resolved by the kernel from session state at
    dispatch — never from client-supplied data, so a compromised client
    cannot forge its origin.  [o_module] is the SecModule whose handle
    made the call, or ["user"] for a plain client process. *)

val no_origin : origin
(** ["user"] at ring 3 over msgq — the provenance of a plain process. *)

type ofield = OF_module | OF_ring | OF_transport

type fop =
  (* base opcodes, unchanged semantics (jumps segment-relative) *)
  | F_test of Compile.operand * Ast.cmp * Compile.operand
  | F_push_bool of bool
  | F_not
  | F_jfalse of int
  | F_jtrue of int
  | F_node_begin
  | F_clause of int
  | F_push_level of int
  | F_load_node of int
  | F_min2
  | F_max2
  | F_kof of int * int
  | F_node_end of int
  | F_node_end_const of int * int
  | F_store_node of int
  | F_root of int * int array
  (* superoperators: two base opcodes, one dispatch, one op charged *)
  | F_test_jf of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_jt of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_clause of Compile.operand * Ast.cmp * Compile.operand * int
  | F_load_max of int
  | F_const_max of int
  | F_const_min of int
  (* origin predicates, resolved from the kernel-held origin record *)
  | F_origin of ofield * Ast.cmp * Compile.operand
  | F_origin_jf of ofield * Ast.cmp * Compile.operand * int
  | F_origin_jt of ofield * Ast.cmp * Compile.operand * int
  | F_origin_clause of ofield * Ast.cmp * Compile.operand * int
      (** The lowered opcode set, public so the batch-major executor
          ({!Vexec}) can re-interpret residue segments lane-major.  All
          jumps are segment-relative and — a property [Compile.compile]
          guarantees and {!Vexec} relies on — strictly forward. *)

type seg = { ops : fop array; invariant : bool }

type t
(** A fused plan for one compiled program.  Immutable and, like the
    program it lowers, safe to cache per (credential, policy revision,
    keystore generation). *)

type snapshot = {
  s_nodes : int array;
      (** value-node results; invariant entries are final, variant entries
          are scratch space the residue rewrites every slot *)
  s_setup_ops : int;  (** prefix opcodes executed building the snapshot *)
}

val plan : Compile.t -> varying:string list -> t
(** Lower, fuse, intern, and partition.  [varying] names the action
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

val run : t -> origin:origin -> attrs:(string * string) list -> snapshot * Compile.outcome
(** [begin_batch] + [run_slot] in one step, for scalar callers and tests. *)

(** {2 Plan internals (consumed by {!Vexec})} *)

val segments : t -> seg array
val residue_segments : t -> int array
(** Indices into {!segments} of the per-slot residue, program order
    (includes the root segment). *)

val levels : t -> string array
val node_count : t -> int
val max_seg : t -> int
(** Longest segment in opcodes — bounds any per-lane evaluation stack. *)

val origin_value : origin -> ofield -> string
val holds : Ast.cmp -> int -> bool
(** [holds cmp c] applies [cmp] to an {!Eval.compare_values} result —
    exported so every engine shares one comparison semantics. *)

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

val prefix_fraction : t -> float
(** [invariant_fops / total_fops], 0 for an empty plan. *)

type arena_stats = {
  a_segments : int;  (** distinct segment arrays interned on this domain *)
  a_hits : int;
  a_misses : int;
  a_bytes_saved : int;  (** estimated bytes deduplicated (32 B/opcode) *)
}

val arena_stats : unit -> arena_stats
(** The calling domain's structural-sharing arena.  Registry-wide in the
    sense that every plan built on this domain shares it, whichever
    module or session triggered compilation. *)

val arena_reset : unit -> unit
(** Drop the calling domain's arena (tests and the E24 memory curve, which
    need a clean baseline before measuring). *)

val arena_hit_rate_pct : unit -> float option
(** Hit rate of the calling domain's arena as a percentage, or [None]
    when the arena has never been probed — so renderers ([smodctl policy
    status]) print a placeholder instead of a meaningless rate. *)
