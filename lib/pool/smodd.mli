(** smodd — the session-multiplexing service layer.

    The paper's [sys_smod_start_session] forcibly forks a fresh handle
    per client (§4, Figure 8 row 5): the fork, module-image installation
    (and AES decryption under the Encrypted protection) dominate session
    establishment.  smodd replaces that with a bounded pool of pre-forked
    reusable handles per module: a client's start_session attaches to a
    parked handle (re-running [force_share] against the new client — the
    safety-relevant part — while the fork and image work were paid once,
    off-path), and detach returns the handle to the pool after it scrubs
    its secret segment.

    Admission is a bounded FIFO queue with per-module fairness: when the
    pool is saturated, [Reject] fails start_session with EAGAIN while
    [Wait] parks the client until a handle frees up; freed capacity goes
    to the least-served module with queued waiters.  A saturated pool may
    also reclaim an idle handle parked under a different module — both at
    acquire time and when a handle parks while another module's client is
    starving in the queue, so no waiter is stranded behind idle capacity.
    A client killed while queued is uncounted (and any handle it was
    granted but never attached to returns to the pool).

    smodd also installs a policy-decision cache
    ({!Secmodule.Policy_cache}, 1024 entries) in admission, which
    memoises cacheable per-call verdicts and so replaces the per-call
    credential check and policy walk with one probe.  Admission owns it:
    it keys each decision by the call's origin and drops it wherever it
    drops compiled programs.

    Installing smodd changes no client-visible semantics: the stub API,
    handshake, per-call dispatch, and every policy outcome are identical
    — only the latency profile moves.  [test_pool.ml] ("installing smodd
    changes no verdict") runs the same call scripts with and without
    smodd and pins equal outcomes. *)

type overflow =
  | Reject  (** saturated pool fails [start_session] with EAGAIN *)
  | Wait  (** block the client in the admission queue (FIFO, fair) *)

type config = {
  max_handles_per_module : int;
  max_total_handles : int;
  max_queue_depth : int;  (** queued clients across all modules *)
  overflow : overflow;
}

val default_config : config
(** 4 handles/module, 16 total, queue depth 64, [Wait]. *)

type t

val install : Secmodule.Smod.t -> ?config:config -> unit -> t
(** Register smodd on the subsystem: session broker, module-removal hook
    and a fresh policy cache handed to admission
    ({!Secmodule.Smod.set_policy_cache}).  At most one smodd per
    subsystem. *)

val uninstall : t -> unit
(** Deregister the broker and the module-remove hook, flush the policy
    cache and take it back from admission, wake every queued client
    (they fail with ENOENT, as on module removal) and retire every pooled
    handle. *)

val config : t -> config

(** {1 Introspection (smodctl pool status, tests)} *)

type module_status = {
  ms_m_id : int;
  ms_module : string;
  ms_handles : int;  (** live handles (parked + busy) *)
  ms_parked : int;
  ms_busy : int;
  ms_waiters : int;  (** clients queued for this module *)
  ms_spawned : int;  (** handles ever forked for this module *)
  ms_retired : int;
  ms_tenants : int;  (** sessions served by the live handles *)
}

type status = {
  st_modules : module_status list;  (** sorted by m_id *)
  st_total_handles : int;
  st_total_waiters : int;
  st_cache_size : int;  (** decisions held by the policy cache *)
  st_cache_capacity : int;
  st_ring_batches : int;  (** process-wide [ring.*] counters: batched traps *)
  st_ring_submits : int;  (** calls submitted through dispatch rings *)
  st_ring_stale_drops : int;  (** submitted-but-unclaimed slots scrubbed at recycle *)
  st_spin_budget : int;
      (** the shared spin/park knob: serve-loop yields before blocking,
          poller empty sweeps before parking ({!Smod.set_spin_budget}) *)
}

val status : t -> status
val render_status : t -> string
(** Table form, one row per module plus totals — what
    [smodctl pool status] prints. *)
