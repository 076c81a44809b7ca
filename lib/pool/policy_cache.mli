(** The smodd policy-decision cache.

    [sys_smod_call] re-verifies the caller's credential and re-evaluates
    the module policy on every dispatch (§3.1); the paper's §5 predicts
    this cost grows with policy complexity.  For decisions that are pure
    functions of their inputs ({!Secmodule.Policy.cacheable}), smodd
    memoises the outcome under the key

      (credential digest, function, m_id)

    and records in the entry the policy revision and keystore generation
    it was decided under, so the steady-state call path pays one cache
    probe instead of a credential check plus a full policy walk.  A
    lookup under any other revision or generation is a plain miss, and
    the store that follows overwrites the entry in place, keeping its
    FIFO position: superseded decisions never accumulate.  Entries
    expire after a TTL of simulated time, are evicted FIFO at capacity,
    and are invalidated explicitly when the module is removed or the
    keystore changes (flush).

    The cache holds decisions only.  Compiled programs are shared across
    sessions by the registry entry's cache
    ({!Secmodule.Registry.find_compiled}), which [set_policy], keystore
    changes and module removal flush as they stale or drop the decisions
    here. *)

type t

type decision = Allow | Deny of string

val create : clock:Smod_sim.Clock.t -> ttl_us:float -> capacity:int -> t
(** [capacity] must be positive; [ttl_us] non-positive disables expiry. *)

val ttl_us : t -> float
val capacity : t -> int
val size : t -> int

val lookup :
  t ->
  cred_digest:string ->
  func_name:string ->
  m_id:int ->
  policy_rev:int ->
  keystore_gen:int ->
  decision option
(** Charges one {!Smod_sim.Cost_model.Policy_cache_probe}; counts a
    [policy_cache.hits] or [policy_cache.misses] metric.  An entry made
    under another [policy_rev] or [keystore_gen] is a plain miss and
    stays until the next {!store} overwrites it.  An entry older than the
    TTL counts as a miss ([policy_cache.expirations]) and is dropped. *)

val store :
  t ->
  cred_digest:string ->
  func_name:string ->
  m_id:int ->
  policy_rev:int ->
  keystore_gen:int ->
  decision ->
  unit
(** Charges one {!Smod_sim.Cost_model.Policy_cache_insert}.  A key
    already present is overwritten in place, whatever revision it held,
    and keeps its FIFO position; a new key evicts the oldest entry first
    when at capacity ([policy_cache.evictions]). *)

val invalidate_module : t -> m_id:int -> int
(** Drop every decision for the module (the [sys_smod_remove] hook).
    Returns the number of entries evicted; counts
    [policy_cache.invalidations]. *)

val flush : t -> int
(** Drop everything (keystore change).  Returns the number of entries
    dropped; counts [policy_cache.flushes]. *)
