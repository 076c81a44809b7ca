(** The SecModule kernel subsystem.

    [install] registers the paper's seven syscalls (Figure 4) with a
    simulated machine and returns the subsystem handle used by the trusted
    tool chain (module registration, native binding) and by tests.

    The session life cycle follows §3–§4 exactly:

    + the client traps [sys_smod_start_session] with a descriptor naming
      the module and carrying its credential;
    + the kernel validates the credential, {e forcibly forks} a handle
      co-process whose address space holds the (decrypted) module text and
      a secret stack/heap segment, and connects the pair with two SysV
      message queues;
    + the handle's first act is [sys_smod_session_info], which force-shares
      the client's data/heap/stack range into the handle (Figure 2) and
      marks the session established;
    + the client completes the handshake with [sys_smod_handle_info];
    + each call then goes through [sys_smod_call]: per-call credential and
      policy revalidation, a request message to the handle, the handle
      executing the function on the shared stack from its secret stack,
      and a reply message carrying the return value (Figure 3). *)

type t

type toctou_mitigation =
  | No_mitigation
  | Unmap_during_call  (** §4.4 approach 1: client loses data/stack access *)
  | Dequeue_client_threads  (** §4.4 approach 2: sibling threads descheduled *)

type ring_state
(** Per-session dispatch-ring binding (PR 3): the kernel's view of the
    client's ring plus the two wait queues of the spin-then-block
    protocol.  Bound lazily on the first [sys_smod_call_batch]. *)

type queue_pair = { req_qid : int; rep_qid : int }
(** A handle's two SysV message queues: requests and control messages
    travel to the handle on [req_qid], replies back on [rep_qid]. *)

type pooled_handle
(** A smodd handle co-process that outlives its sessions (see Session
    pooling below). *)

type mux_session
(** A mux fiber's per-session handle context: address space, secret
    stack and suspended continuation. *)

(** What serves a session.  Each kind pays its own acquire; all share one
    release, {!detach_session}. *)
type handle_kind =
  | Forked of queue_pair
      (** the paper's model: a handle forcibly forked for this session
          alone, paired with its client by its own queue pair and killed
          when the session ends *)
  | Pooled of pooled_handle
      (** a smodd pooled handle lent for the session's lifetime; when the
          session ends the handle scrubs itself and parks for the next
          tenant *)
  | Mux of mux_session
      (** a fiber of the effects multiplexer (E22): no process or queue
          pair of its own, so ring-only *)

type session = {
  sid : int;
  m_id : int;
  entry : Registry.entry;
  client_pid : int;
  mutable handle_pid : int;  (** the serving process; the mux daemon for [Mux] *)
  credential : Credential.t;
  policy_state : Policy.state;
  kind : handle_kind;  (** what serves the session, fixed when it starts *)
  mutable established : bool;
  mutable detached : bool;
  mutable calls : int;
  mutable denied_calls : int;  (** per-call policy denials (section 1's metering motivation) *)
  mutable faulted_calls : int;
  mutable handle_exec_us : float;
      (** simulated time spent executing module code in the handle *)
  mutable client_waiting_handshake : bool;
  mutable ring : ring_state option;
  mutable cred_digest : string option;
      (** lazily computed SHA-256 of the wire credential; part of every
          policy-cache key *)
  mutable program : (int * int * Policy.compiled * string * Policy.prepared) option;
      (** the session's one program slot: (policy_rev, keystore
          generation, compiled policy, transport, that policy prepared
          for the transport).  The compiled policy is valid while the
          (policy_rev, keystore generation) pair still matches; the
          prepared one also needs the same transport
          (["msgq"]/["ring"]/["poller"]), because [origin_transport]
          differs per admission path.  Emptied whenever programs are
          dropped. *)
  mutable client_exit_hook : (Smod_kern.Proc.t -> unit) option;
      (** the hook that detaches the session when its client exits;
          removed from the client when the session detaches *)
}

exception Access_denied of string

val install : Smod_kern.Machine.t -> ?keystore:Smod_keynote.Keystore.t -> unit -> t
val machine : t -> Smod_kern.Machine.t
val keystore : t -> Smod_keynote.Keystore.t
val registry : t -> Registry.t

val set_toctou_mitigation : t -> toctou_mitigation -> unit
val toctou_mitigation : t -> toctou_mitigation

val set_call_fast_path : t -> bool -> unit
(** The §5 future-work optimisation: "reducing redundant error checks and
    cross-address copies in kernel-to-kernel calls".  When enabled,
    [sys_smod_call] skips the per-call credential re-verification for
    sessions whose policy is stateless-permissive ([Always_allow] or
    [Session_lifetime]) — the check cannot change its answer after
    establishment.  Policies with per-call state (quotas, rate limits,
    KeyNote conditions over call attributes) are still evaluated every
    time.  Default: off, matching the measured prototype. *)

val call_fast_path : t -> bool

val set_dispatch_gate : t -> (unit -> unit) option -> unit
(** Install a hook that runs at the very top of [sys_smod_start_session],
    [sys_smod_call], and [sys_smod_call_batch], before any credential or
    session state is consulted.  The cluster control plane (lib/cluster)
    uses it to settle pending coherence work — charging eager-broadcast
    handling debt, or performing the lazy epoch check and sync — so no
    dispatch ever executes under a revoked keystore generation or a stale
    policy revision.  Default: none (zero cost on the dispatch path). *)

(** {1 Trusted tool-chain interface (host level, not via traps)} *)

val register :
  t ->
  image:Smod_modfmt.Smof.t ->
  ?protection:Registry.protection ->
  ?policy:Policy.t ->
  ?admin_principal:string ->
  ?kernel_key:string ->
  ?kernel_nonce:bytes ->
  ?link:Registry.link ->
  unit ->
  Registry.entry
(** Defaults: [Unmap_only], [Session_lifetime], admin "root".  For
    [Encrypted] protection the key/nonce must be supplied and stay
    kernel-side.  [link] is adopted only as {!Registry.add} says; without
    it the entry links on first use.  Drops every compiled program, as a
    keystore change does: one compiled earlier may deny an
    [origin_module] literal that names the new module. *)

val bind_native : t -> m_id:int -> name:string -> Registry.native_fn -> unit

val session_of_client : t -> client_pid:int -> session option
val session_of_handle : t -> handle_pid:int -> session option
val active_sessions : t -> session list

val detach_session : t -> session -> unit
(** End the session, whatever serves it: tear its ring down, break the
    client's half of the pairing, then release the handle by kind — kill
    a [Forked] handle and remove its queues (a client blocked mid-call
    wakes with EIDRM), send a [Pooled] handle back to scrub and park, or
    let a [Mux] fiber finish.  Idempotent.  Runs automatically when the
    client exits or execs (§4.3), and for every session a handle serves
    when that handle dies. *)

(** {1 Syscall-level operations (what the stubs invoke)} *)

val sys_find : t -> Smod_kern.Proc.t -> name_addr:int -> version:int -> int
(** Returns m_id.  [name_addr] points at a NUL-terminated module name in
    the caller's memory. *)

val sys_start_session : t -> Smod_kern.Proc.t -> desc_addr:int -> int
(** Returns the session id.  The establishment check always runs the
    interpreted {!Policy.check}, as in the paper, whatever engine serves
    the session's calls.  Raises {!Smod_kern.Errno.Error} EACCES when the
    credential or the policy denies, and ENOEXEC, before any handle state
    exists, if the module text fails decryption or its digest check. *)

val sys_handle_info : t -> Smod_kern.Proc.t -> info_addr:int -> unit
(** Client side: blocks until the handle is ready, then writes a
    {!Wire.handle_info} at [info_addr].  Raises EIDRM if the session is
    detached while it waits (its handle died before the handshake). *)

val sys_call : t -> Smod_kern.Proc.t -> framep:int -> rtnaddr:int -> m_id:int -> func_id:int -> int
(** The indirect dispatch.  Admission is the same decision the batch trap
    and the poller make per slot: the stateless fast path, smodd's
    decision cache, then the engine ladder (fused, compiled,
    interpreted).  Raises {!Smod_kern.Errno.Error} EACCES on policy
    denial, EFAULT if the module function faulted. *)

val sys_call_batch : t -> Smod_kern.Proc.t -> m_id:int -> max_slots:int -> int
(** The dispatch-ring fast path (syscall 322): stamp an admission verdict
    into every submitted-but-unstamped slot of the caller's registered
    ring (at most [max_slots] of them), evaluating cacheable policies
    once per distinct function per batch, then wake the handle.  Denied
    or malformed slots are completed kernel-side with an error status
    rather than failing the whole batch.  Returns the number of slots
    processed.  Raises EINVAL when no ring is registered, EPERM when a
    TOCTOU mitigation is active (those semantics need the per-call
    path). *)

val ring_client_wait : t -> session -> Smod_kern.Proc.t -> unit
(** Client-side slow path while waiting for completions: block on the
    session's ring wait queue until the handle's next drain (or detach)
    wakes it.  Returns immediately if the session has no bound ring —
    callers recheck [session.detached] after every wake. *)

val session_ring : session -> Smod_ring.Ring.t option
(** The kernel's view of the session's bound dispatch ring, for
    introspection ([smodctl ring status], tests). *)

(** {1 Session pooling (the smodd service layer, lib/pool)}

    A pooled handle is a handle co-process that outlives any single
    session: between tenants it scrubs its secret segment, restores the
    module's data segment to its pristine image (cold-fork semantics:
    module globals never carry state across sessions), unshares the
    departed client's range, and parks on {!Smod_kern.Sched.Pool_park}
    until the pool layer attaches the next client.  The per-session costs
    that remain are exactly the safety-relevant ones — [force_share]
    against the new client and the handshake — while the fork, module
    image installation and decryption are paid once at spawn. *)

val spawn_pooled_handle :
  t ->
  entry:Registry.entry ->
  on_park:(pooled_handle -> unit) ->
  on_death:(pooled_handle -> unit) ->
  pooled_handle
(** Pre-fork a reusable handle for [entry].  [on_park] fires (in handle
    context) each time the handle becomes free — including right after
    spawn if no tenant is attached before it first runs — unless the
    handle was {!reserve_pooled_handle}d for a specific client.
    [on_death] fires from the handle's exit hook after its queues are
    removed and any live session detached. *)

val attach_pooled : t -> Smod_kern.Proc.t -> pooled_handle -> credential:Credential.t -> int
(** Bind a new session for this client to a free pooled handle and wake
    it; returns the session id.  The caller (smodd's broker) must have
    validated the credential and policy — this is the post-validation
    half of [sys_start_session].  Raises [Invalid_argument] if the handle
    is busy or dead. *)

val retire_pooled_handle : t -> pooled_handle -> unit
(** Mark the handle dead and SIGKILL it; its exit hook detaches any live
    session, removes the queues and fires [on_death].  Idempotent. *)

val reserve_pooled_handle : pooled_handle -> unit
(** Claim a free handle for a specific incoming client so the park
    callback is not re-fired (and the handle not double-assigned) before
    {!attach_pooled} runs. *)

val unreserve_pooled_handle : pooled_handle -> unit
(** Release a reservation whose client went away before {!attach_pooled}
    (killed while queued) so the handle can be re-parked or re-granted. *)

val pooled_handle_pid : pooled_handle -> int
val pooled_handle_entry : pooled_handle -> Registry.entry
val pooled_handle_busy : pooled_handle -> bool
val pooled_handle_dead : pooled_handle -> bool

val pooled_handle_tenants : pooled_handle -> int
(** Sessions this handle has served so far. *)

val pooled_handle_aspace : pooled_handle -> Smod_vmem.Aspace.t

val set_session_broker :
  t -> (Smod_kern.Proc.t -> Registry.entry -> Credential.t -> int option) option -> unit
(** Interpose on [sys_start_session] after validation: [Some sid] means
    the broker placed the session on a pooled handle; [None] falls back
    to the paper's cold fork-per-session path. *)

val add_module_remove_hook : t -> (m_id:int -> unit) -> unit
(** Fired by [sys_smod_remove] after active sessions are detached and
    before the registry entry disappears — smodd kills the module's
    parked handles here.  The removal then drops every compiled program
    and cached decision itself. *)

val remove_module_remove_hook : t -> (m_id:int -> unit) -> unit
(** Deregister a hook previously passed to {!add_module_remove_hook}
    (matched by physical equality) — smodd's [uninstall] path, so a
    reinstalled pool does not leave the stale hook firing. *)

val set_policy_cache : t -> Policy_cache.t option -> unit
(** Install smodd's policy-decision cache in the one admission decision
    that [sys_smod_call], the batch trap and the kernel poller share
    ([None] takes it back).  Only consulted when {!Policy.cacheable}
    holds for the session's policy and {!Policy.credential_cacheable} for
    its credential; a hit replaces the per-call credential
    re-verification and policy evaluation, a miss evaluates as usual and
    stores the outcome (denials included — they still count and raise
    exactly as uncached ones do).  Decisions are keyed by the call's
    origin as well as credential digest, module and function, so a
    verdict on one path into the kernel never answers another.  The cache
    is flushed wherever compiled programs are dropped: keystore changes,
    {!register}, [sys_smod_remove], {!set_policy_compile} and
    {!set_policy_fuse}.  The same cacheability rule decides whether a
    ring batch or poller sweep decides once per distinct function or
    once per slot. *)

val set_policy_compile : t -> bool -> unit
(** Switch admission onto compiled decision programs ({!Policy.compile}):
    on the first policy evaluation for a session the KeyNote arms are
    flattened once — signature chain verified, delegation graph resolved,
    conditions lowered to opcodes — and every subsequent evaluation for
    that (credential, policy revision, keystore generation) runs the
    program at {!Smod_sim.Cost_model.Policy_compiled_op} per opcode with
    no per-call [Cred_check].  Programs are cached per registry entry
    and in each session's program slot, and are invalidated by
    [Registry.set_policy], keystore changes, a switch of this setting or
    of {!set_policy_fuse}, {!register} and [sys_smod_remove] (an
    [origin_module] literal is checked against the registered module
    set).
    Default: off — the interpreted path is byte-for-byte what the
    baselines measured. *)

val policy_compile_enabled : t -> bool

val set_policy_fuse : t -> bool -> unit
(** Layer the fused batch engine ({!Smod_keynote.Fuse}) on top of
    compiled policies (requires {!set_policy_compile} on to take
    effect): each KeyNote arm is additionally lowered into
    superoperator-fused segments partitioned into a batch-invariant
    prefix and a per-slot residue.  The prefix runs once per (session,
    policy revision, keystore generation, transport) — charged
    {!Smod_sim.Cost_model.Policy_fused_setup} plus its opcodes — and
    every admission (scalar call, ring batch slot, poller slot) then
    pays residue opcodes only.  Origin predicates ([origin_module],
    [origin_ring], [origin_transport]) resolve against kernel-held
    session state on every engine; compilation fails closed when one
    names an unknown module, ring, or transport.  Stateful arms
    (quotas, rate limits) still evaluate per slot.  Changing the value
    drops every compiled program and session program slot, as a
    keystore change does, so the next call compiles with or without a
    plan.  Default: off. *)

val policy_fuse_enabled : t -> bool

val set_policy_vectorize : t -> bool -> unit
(** Layer batch-major residue execution (E25, {!Smod_keynote.Vexec}) on
    top of fused policies (requires both {!set_policy_compile} and
    {!set_policy_fuse} on to take effect): before the stamp loop of a
    ring batch or a poller sweep, every evaluable submitted slot becomes
    a lane, each lane replays the residue, and the batch is charged as
    one pass per opcode position over all lanes:
    {!Smod_sim.Cost_model.Policy_vector_op} at [ceil(live_lanes/W)]
    units per pass.  Per-lane verdict masks keep
    denied lanes out of later passes; verdicts, quota state transitions,
    and denial reasons are identical to the slot-major path (the
    four-way differential in test/test_compile.ml asserts it).  The
    pre-pass declines — falling back to slot-major fused evaluation
    wholesale — for batches under two lanes, single-function batches
    whose decisions are cacheable (the per-batch memo is already
    cheaper), vector-ineligible programs ({!Policy.vector_eligible}),
    and sessions served by the smodd decision cache.  Passes are priced at
    {!Smod_keynote.Vexec.default_width} lanes.  The msgq path stays
    scalar — there is nothing to vectorize.  Default: off. *)

val policy_vectorize_enabled : t -> bool

type compile_status = {
  cs_m_id : int;
  cs_module : string;
  cs_policy : string;
  cs_policy_rev : int;
  cs_cached : int;  (** programs currently cached for this entry *)
  cs_hits : int;
  cs_misses : int;
  cs_invalidations : int;
  cs_stats : Policy.compiled_stats option;
      (** a representative cached program's size/opcode breakdown *)
  cs_fusion : Smod_keynote.Fuse.stats option;
      (** fusion statistics (superop mix, invariant prefix size) for a
          representative cached program compiled with fusion on *)
}

val policy_compile_status : t -> compile_status list
(** Per-module compile state for [smodctl policy status], sorted by
    m_id. *)

(** {1 The zero-trap data path (E22)}

    Two coupled halves.  The {e kernel poller} is an io_uring-SQPOLL
    analogue: a kernel daemon sweeps every live session's registered ring
    and stamps admission verdicts itself, so the steady-state submit path
    needs no trap at all — sweep and per-slot scan costs are charged to
    the poller ({!Smod_sim.Cost_model.Poll_sweep} /
    [Poll_slot_scan]), never to a client; the work moved, it did not
    vanish.  After {!spin_budget} consecutive empty sweeps the poller
    raises each ring's need-wakeup flag and parks; a submitter that sees
    the flag (a trap-free shared-memory read) traps
    [sys_smod_poll_doorbell] (323) once to re-arm it.  The {e effects
    multiplexer} replaces one-blocked-process-per-session service with
    fibers: a single daemon domain multiplexes thousands of ring-only
    sessions, suspending each on an empty ring via an OCaml effect and
    resuming it when the stamp path (trap or poller) hands it work.

    Both are opt-in and default off; with them off, every dispatch path
    charges byte-for-byte what the baselines measured. *)

val set_spin_budget : t -> int -> unit
(** Yield-and-recheck iterations the handle serve loop burns before
    blocking, and equally the empty sweeps the kernel poller tolerates
    before parking.  Raises [Invalid_argument] below 1.  Default 4 — the
    constant every baseline was measured with. *)

val spin_budget : t -> int

val set_kernel_poller : t -> bool -> unit
(** Start (or stop) the SQPOLL-style kernel poller daemon.  Idempotent in
    both directions; stopping wakes a parked poller so its process
    exits. *)

val kernel_poller_enabled : t -> bool

type poller_status = {
  ps_parked : bool;
  ps_spin_budget : int;
  ps_sweeps : int;
  ps_empty_sweeps : int;  (** sweeps that stamped nothing (total) *)
  ps_parks : int;
  ps_wakes : int;  (** doorbell (or shutdown-independent) unparks *)
  ps_slots_stamped : int;
  ps_geometry_rejects : int;
      (** kernel-side binds refused because the pinned geometry no longer
          matches the header — the poller-path analogue of the batch
          trap's EINVAL *)
  ps_doorbells : int;
  ps_session_slots : (int * int) list;  (** (sid, slots stamped), sorted *)
}

val poller_status : t -> poller_status option
(** Live poller state for [smodctl poller status]; [None] when the poller
    is not running. *)

val set_session_mux : t -> bool -> unit
(** Route new sessions onto the effects multiplexer (spawning its daemon
    on first enable).  Disabling stops routing new sessions; existing
    fibers keep running until their clients detach.  A dead daemon fails
    its sessions closed, as any dead handle does: each is detached, so a
    client waiting on its ring wakes with EIDRM, and new sessions route
    as if the mux were off until [set_session_mux t true] spawns a new
    daemon. *)

val session_mux_enabled : t -> bool

type mux_status = {
  mxs_live : int;
  mxs_peak : int;  (** high-water mark of concurrently live fibers *)
  mxs_attached : int;  (** sessions ever attached *)
  mxs_suspended : int;  (** fibers currently parked on an empty ring *)
}

val mux_status : t -> mux_status option

(** {1 Introspection for tests and the layout example} *)

val handle_aspace : t -> session -> Smod_vmem.Aspace.t
val client_pid_cache_addr : int
(** Address (in the secret segment) where the kernel caches the client's
    pid for the converted getpid (§4.3). *)
