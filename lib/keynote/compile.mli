(** Compiler from assertion sets to flattened decision programs, and the
    one executor every compiled engine runs them on.

    [Eval.query] walks the delegation graph and re-interprets every
    condition expression on every call — the per-assertion cost the paper
    predicts in §5.  [compile] does that walk once: the delegation graph is
    resolved into a licensee closure (requesting principals fold to
    compile-time constants at maximum trust, delegation cycles to minimum
    trust, shared principals to memoized value nodes), signature material
    is ignored here (callers hoist verification — see
    [Secmodule.Policy.compile]), and every condition guard is lowered to a
    compact postfix opcode array with jump-based short-circuit [&&]/[||].
    [run] then evaluates the whole program as one segment on {!exec_seg},
    whose per-opcode cost is charged by callers as
    [Cost_model.Policy_compiled_op] — tens of cycles instead of the 420
    cycles of [Keynote_assertion_eval].  [Fuse] (batch prefix and residue)
    and [Vexec] (lanes) run their segments on the same executor, so every
    engine shares one opcode semantics by construction.

    [run] computes exactly the verdict [Eval.query] would return for the
    same [(policy, credentials, requesters, levels)] and any [attrs]
    (asserted by the randomized differential suite in
    [test/test_compile.ml]), with one deliberate exception: where the
    interpreter raises [Invalid_argument] lazily — an unknown compliance
    level named by a clause whose guard happens to hold — compilation
    fails up front with [Error].  Both engines' callers
    ([Secmodule.Policy]) deny: the compiled one for every call, the
    interpreted one on the calls where the interpreter meets the level.
    Origin predicates (below) extend the same discipline. *)

type operand = O_str of string | O_attr of string
(** A [Test] side resolved at compile time: a literal, or an action
    attribute looked up per run. *)

type ofield = OF_module | OF_ring | OF_transport
(** The field of the origin record an origin opcode reads. *)

type instr =
  | Test of operand * Ast.cmp * operand  (** push guard comparison result *)
  | Push_bool of bool
  | Not_top
  | Jfalse of int
      (** top false: jump keeping it; else pop and fall through *)
  | Jtrue of int
  | Node_begin  (** clause accumulator := 0 *)
  | Clause of int  (** pop guard; if it held, accumulator := max acc level *)
  | Push_level of int
  | Load_node of int
  | Min2
  | Max2
  | Kof of int * int  (** (k, n): pop n values, push the k-th largest *)
  | Node_end of int  (** pop licensee value; node := min acc value *)
  | Node_end_const of int * int  (** licensee value folded at compile time *)
  | Store_node of int  (** pop a computed value into a shared node *)
  | Root of int * int array  (** push max of a constant and the given nodes *)
  | Test_jf of operand * Ast.cmp * operand * int  (** [Test] then [Jfalse] *)
  | Test_jt of operand * Ast.cmp * operand * int  (** [Test] then [Jtrue] *)
  | Test_clause of operand * Ast.cmp * operand * int  (** [Test] then [Clause] *)
  | Load_max of int  (** [Load_node] then [Max2] *)
  | Const_max of int  (** [Push_level] then [Max2] *)
  | Const_min of int  (** [Push_level] then [Min2] *)
  | Origin_test of ofield * Ast.cmp * operand
      (** [Test] whose left side is the kernel's origin record *)
  | Origin_jf of ofield * Ast.cmp * operand * int
  | Origin_jt of ofield * Ast.cmp * operand * int
  | Origin_clause of ofield * Ast.cmp * operand * int
      (** The one KeyNote opcode set.  [compile] emits only the sixteen
          base opcodes, with jumps absolute and strictly forward; the
          superoperators (each one dispatch and one op counted) and the
          origin opcodes are rewrites [Fuse.plan] makes within this type,
          with jumps relative to the segment.  The set is exposed for
          [Fuse]; everyone else should treat programs as opaque. *)

type t
(** A compiled decision program.  Immutable; safe to cache across calls
    and sessions.  Programs are kernel-side values only — they are never
    serialized into client-shared memory. *)

type outcome = {
  level : string;  (** [levels.(index)] *)
  index : int;
  ops : int;
      (** opcodes {!exec_seg} executed — what callers multiply by
          [Cost_model.Policy_compiled_op] *)
}

type origin = { o_module : string; o_ring : int; o_transport : string }
(** Caller provenance, resolved by the kernel from session state at
    dispatch — never from client-supplied data, so a compromised client
    cannot forge its origin.  [o_module] is the SecModule whose handle
    made the call, or ["user"] for a plain client process. *)

val no_origin : origin
(** ["user"] at ring 3 over msgq — the provenance of a plain process. *)

type origin_env = { known_modules : string list }
(** The kernel's view of valid call origins at compile time: the set of
    registered SecModule names ([origin_module] may additionally name
    ["user"], the not-a-module origin).  Valid rings are [0..3] and valid
    transports ["msgq"], ["ring"], ["poller"], ["attach"] — fixed by the
    machine, not by the environment. *)

val origin_attrs : string list
(** The attribute names resolved from kernel-held session state at
    dispatch: ["origin_module"; "origin_ring"; "origin_transport"].
    Clients cannot forge them — the kernel appends them to every
    admission query after stripping nothing (they are reserved purely by
    convention; a client-supplied attribute never reaches admission). *)

val compile :
  ?origin:origin_env ->
  policy:Ast.assertion list ->
  credentials:Ast.assertion list ->
  requesters:string list ->
  levels:string array ->
  unit ->
  (t, string) result
(** Flatten one query shape.  Everything but the action attributes is
    fixed at compile time; the resulting program may be evaluated for any
    [attrs].  [Error] (with a reason) when [levels] is empty or any clause
    in [policy] or [credentials] names an unknown level — the total
    counterpart of [Eval.query]'s [Invalid_argument].  When [origin] is
    supplied, an origin predicate comparing [origin_module],
    [origin_ring], or [origin_transport] against a literal outside the
    kernel's valid set is also an [Error], so callers fail closed on
    origin typos exactly as on unknown levels. *)

type trace = {
  seen : bool array;  (** [seen.(pc)]: some run executed position [pc] *)
  mutable last : int;  (** the position the latest run executed last *)
}
(** Where {!exec_seg} runs went in one segment, recorded in place;
    [seen] has one entry per opcode of the segment. *)

val exec_seg :
  ?trace:trace ->
  instr array ->
  nodes:int array ->
  origin:origin ->
  attrs:(string * string) list ->
  stack:int array ->
  ops:int ref ->
  int
(** The executor: the only code that runs opcodes.  Runs one segment from
    position 0 with an empty stack until the program counter leaves it;
    jumps are positions within the segment.  Reads and writes value nodes
    in [nodes], resolves [O_attr] operands in [attrs] (missing: [""]) and
    origin opcodes in [origin].  Adds one to [ops] per opcode executed, a
    superoperator included, and, when given a [trace], marks each position
    it executes as seen and leaves the last one in [trace.last].  Returns
    the stack height left ([Root] leaves one value, every other segment
    [compile] emits none); [stack] must hold one more entry than the
    segment has opcodes.  It builds no closure or reference cell, so a
    run allocates only what a [Kof] or an operand comparison needs.
    Counters are the callers' job. *)

val run : t -> attrs:(string * string) list -> outcome
(** Evaluate the program against one set of action attributes, as one
    segment on {!exec_seg}.  Total: never raises, and [index] is always a
    valid index into the compiled [levels]. *)

val length : t -> int
(** Number of opcodes in the program (static size, not per-run cost). *)

val node_count : t -> int
(** Value nodes (assertion and shared-principal results) the program
    materializes per run. *)

val instrs : t -> instr array
(** The flat opcode array, in program order.  Jump targets are absolute
    positions into this array. *)

val levels : t -> string array
(** The compliance ladder the program's ordinals index into. *)

val mnemonic : instr -> string
(** ["test"], ["test+jf"], ["origin+clause"], … — the names [smodctl
    policy status] prints. *)

val op_counts : t -> (string * int) list
(** Static opcode histogram by mnemonic, most frequent first — surfaced
    by [smodctl policy status]. *)
