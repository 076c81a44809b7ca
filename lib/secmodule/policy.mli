(** Per-module access policies.

    The paper implements only the "always allowed" policy and predicts
    that richer policies cost time in proportion to their complexity (§5).
    This module supplies that ladder: from the free [Always_allow] through
    counters up to full KeyNote compliance queries, so the prediction can
    be measured (bench E9).

    Two engines decide a call.  {!check} interprets the policy: the
    paper's path, and the oracle for the other engine.  {!compile}
    flattens it once per (credential, policy revision, keystore
    generation) into one tree of decision programs, and {!prepare} runs
    each fused arm's batch-invariant prefix against that tree.
    {!check_compiled} decides one call on the prepared program;
    {!check_vector} decides a whole batch arm-major on the same tree. *)

type t =
  | Always_allow
  | Session_lifetime
      (** the paper's default: access for the lifetime of the client *)
  | Call_quota of int  (** at most n calls per session *)
  | Rate_limit of { max_calls : int; window_us : float }
  | Time_window of { not_before_us : float; not_after_us : float }
  | Keynote of {
      policy : Smod_keynote.Ast.assertion list;
      levels : string array;
      min_level : string;
      attrs : (string * string) list;  (** static action attributes *)
    }
  | All_of of t list

type state
(** Mutable per-session evaluation state (quota counters, rate windows). *)

type denial = {
  reason : string;
  policy : t;
}

val initial_state : t -> state

val check :
  clock:Smod_sim.Clock.t ->
  now_us:float ->
  credential:Credential.t ->
  attrs:(string * string) list ->
  t ->
  state ->
  (unit, denial) result
(** Evaluate one access request.  Charges the cost model per the policy's
    complexity (counter checks, KeyNote assertion evaluations).  Updates
    [state] (consumes quota, records the call for rate limiting) only on
    success.  Never raises: a KeyNote query that names a compliance level
    outside [levels] denies without an assertion charge, and a
    [min_level] outside [levels] is unreachable, so every engine denies. *)

type compiled
(** A policy compiled for one (credential, policy revision, keystore
    generation) triple: KeyNote arms flattened into decision programs
    ([Smod_keynote.Compile]) with the credential's signature chain
    verified once at compile time; counter-style arms keep their
    interpreted per-call check.  Kernel-side only — a compiled policy is
    never serialized into client-shared memory. *)

val compile :
  ?fuse:bool ->
  ?origin_env:Smod_keynote.Compile.origin_env ->
  clock:Smod_sim.Clock.t ->
  keystore:Smod_keynote.Keystore.t ->
  credential:Credential.t ->
  t ->
  compiled
(** Charges {!Smod_sim.Cost_model.Cred_check} per credential assertion
    (the hoisted chain verification) and
    {!Smod_sim.Cost_model.Policy_compile_assertion} per assertion
    flattened.  Never raises: a failed signature chain or an
    uncompilable KeyNote arm (unknown compliance level — or, when
    [origin_env] is supplied, an origin predicate naming an unknown
    module, ring, or transport) yields a policy that denies every call
    with the reason recorded — EACCES at the dispatch layer, not a
    crash.  [fuse] additionally lowers each KeyNote arm into a fused
    batch plan ({!Smod_keynote.Fuse}) partitioned against
    {!batch_varying_attrs}; planning is folded into the compile charge. *)

type prepared
(** A compiled policy prepared for one origin: the compiled tree plus,
    for every KeyNote arm that carries a fused plan, the snapshot its
    batch-invariant prefix produced.  Valid exactly as long as the
    compiled policy it was built from.  The registry entry's program
    cache keeps one per origin, shared by the sessions of that origin;
    each session keeps the one for its current transport, taken anew
    when its transport changes because the origin differs per path. *)

val prepare :
  clock:Smod_sim.Clock.t ->
  origin:Smod_keynote.Fuse.origin ->
  attrs:(string * string) list ->
  compiled ->
  prepared
(** Run every planned arm's batch-invariant prefix once, in tree order,
    charging {!Smod_sim.Cost_model.Policy_fused_setup} plus one
    {!Smod_sim.Cost_model.Policy_compiled_op} per prefix opcode for each.
    [attrs] are the batch-invariant attributes (module, phase, origin
    pairs).  A policy compiled without [~fuse] prepares for free. *)

val replay_prepare : clock:Smod_sim.Clock.t -> prepared -> unit
(** Charge and count exactly what {!prepare} charged and counted building
    [prepared], in the same order: per planned arm, one
    {!Smod_sim.Cost_model.Policy_fused_setup}, the prefix's
    [keynote.fused_batches]/[fused_ops] counts
    ({!Smod_keynote.Fuse.replay_batch}) and its
    {!Smod_sim.Cost_model.Policy_compiled_op}s.  For a session that takes
    a program another session of the same origin prepared
    ({!Registry.find_prepared}): the simulated cost of preparing stays
    per session, the host runs no prefix. *)

val check_compiled :
  clock:Smod_sim.Clock.t ->
  now_us:float ->
  credential:Credential.t ->
  origin:Smod_keynote.Fuse.origin ->
  attrs:(string * string) list ->
  prepared ->
  state ->
  (unit, denial) result
(** The compiled counterpart of {!check}: same verdicts over the same
    [state] (asserted by test/test_compile.ml), but KeyNote arms charge
    {!Smod_sim.Cost_model.Policy_compiled_op} per executed opcode instead
    of 420-cycle assertion evaluations, and no per-call credential
    revalidation is needed (the chain was pre-verified).  A planned arm
    replays only its residue against the prepared snapshot; any other
    KeyNote arm runs its whole program.  Stateful arms (quotas, rate
    limits) still evaluate per call. *)

val vector_eligible : prepared -> bool
(** True when the prepared tree can be evaluated batch-major with
    verdicts, state transitions, and total charge order all matching the
    slot-major path: at least one arm is planned, every KeyNote arm is
    planned and its residue reads no volatile attribute (a [calls_so_far]
    read makes lane k's input depend on earlier lanes' verdicts), and no
    arm is clock-dependent ([Rate_limit]/[Time_window] — arm-major
    evaluation would shift [now_us] at their evaluation points).  Quota
    arms are fine: the alive-mask discipline reproduces their counter
    order exactly. *)

val check_vector :
  clock:Smod_sim.Clock.t ->
  now_us:float ->
  credential:Credential.t ->
  lanes:Smod_keynote.Vexec.lane array ->
  prepared ->
  state ->
  (unit, denial) result array
(** Evaluate one whole batch arm-major (E25): each arm of the prepared
    tree runs over all still-alive lanes before the next arm, KeyNote
    arms batch-major through {!Smod_keynote.Vexec} (charging
    {!Smod_sim.Cost_model.Policy_vector_op} per [ceil(live/W)]-unit pass
    at W = {!Smod_keynote.Vexec.default_width}, compacted as lanes are
    denied), stateful quota arms per lane in lane order.  A lane carries
    its full per-slot attribute list, function and origin pairs included.
    Returns one verdict per lane, positionally: the same verdict, against
    the same [state], that [check_compiled] would return slot-major —
    asserted by the four-way differential in test/test_compile.ml.  The
    caller is responsible for only invoking this on {!vector_eligible}
    programs (it stays total regardless). *)

type compiled_stats = {
  programs : int;  (** KeyNote arms compiled to decision programs *)
  opcodes : int;  (** total static program size *)
  value_nodes : int;
  opcode_counts : (string * int) list;  (** by mnemonic, most frequent first *)
  denied : string option;
      (** when the compiled policy is a deny-all stub, why *)
  origin_guarded : bool;
      (** some Test opcode compares an [origin_*] attribute — the policy
          discriminates on call provenance.  Static introspection over
          the compiled programs; consumed by the audit's origin-coverage
          component. *)
}

val compiled_stats : compiled -> compiled_stats
(** Introspection for [smodctl policy status]. *)

val fusion_stats : compiled -> Smod_keynote.Fuse.stats option
(** Merged fusion statistics over every planned KeyNote arm — superop
    mix, batch-invariant prefix fraction inputs — or [None] when the
    policy was compiled without fusion. *)

val batch_varying_attrs : string list
(** Action attributes that differ slot to slot within one batch
    (["function"] plus the volatile attributes) — the partition the
    fused planner hoists against. *)

val cacheable : t -> bool
(** True when a decision under this policy is a pure function of
    (credential, origin, module, function, policy revision) — safe for
    the policy-decision cache ({!Policy_cache}).  Stateful policies
    (quotas, rate limits), clock-dependent ones (time windows) and
    KeyNote policies whose condition guards read per-call action
    attributes ([calls_so_far]) are not cacheable. *)

val credential_cacheable : Credential.t -> bool
(** Same volatility scan over the credential's own assertions: delegated
    conditions can also reference per-call attributes. *)

val describe : t -> string
