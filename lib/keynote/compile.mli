(** Compiler from assertion sets to flattened decision programs.

    [Eval.query] walks the delegation graph and re-interprets every
    condition expression on every call — the per-assertion cost the paper
    predicts in §5.  [compile] does that walk once: the delegation graph is
    resolved into a licensee closure (requesting principals fold to
    compile-time constants at maximum trust, delegation cycles to minimum
    trust, shared principals to memoized value nodes), signature material
    is ignored here (callers hoist verification — see
    [Secmodule.Policy.compile]), and every condition guard is lowered to a
    compact postfix opcode array with jump-based short-circuit [&&]/[||].
    [run] then evaluates the program with a tight interpreter loop whose
    per-opcode cost is charged by callers as
    [Cost_model.Policy_compiled_op] — tens of cycles instead of the 420
    cycles of [Keynote_assertion_eval].

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
      (** The concrete opcode set is exposed (rather than kept abstract)
          for exactly one downstream consumer: [Fuse], which re-lowers the
          flat program into batch-partitioned, superoperator-fused
          segments.  Everyone else should treat programs as opaque. *)

type t
(** A compiled decision program.  Immutable; safe to cache across calls
    and sessions.  Programs are kernel-side values only — they are never
    serialized into client-shared memory. *)

type outcome = {
  level : string;  (** [levels.(index)] *)
  index : int;
  ops : int;
      (** opcodes the interpreter executed — the cost driver callers
          multiply by [Cost_model.Policy_compiled_op] *)
}

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

val run : t -> attrs:(string * string) list -> outcome
(** Evaluate the program against one set of action attributes.  Total:
    never raises, and [index] is always a valid index into the compiled
    [levels]. *)

val kth_largest : int -> int list -> int

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

val op_counts : t -> (string * int) list
(** Static opcode histogram by mnemonic, most frequent first — surfaced
    by [smodctl policy status]. *)
