(** The policy-decision cache that smodd installs in admission.

    [sys_smod_call] re-verifies the caller's credential and re-evaluates
    the module policy on every dispatch (§3.1); the paper's §5 predicts
    this cost grows with policy complexity.  For decisions that are pure
    functions of their inputs ({!Policy.cacheable}), admission memoises
    the outcome under the key

      (credential digest, origin, function, m_id)

    where the origin is the call's origin module, ring and transport —
    the fields themselves, so a probe formats nothing — and records in
    the entry the policy revision and keystore generation it
    was decided under, so the steady-state call path pays one cache probe
    instead of a credential check plus a full policy walk.  A lookup under
    any other revision or generation is a plain miss, and the store that
    follows overwrites the entry in place, keeping its FIFO position:
    superseded decisions never accumulate.  Entries are evicted FIFO at
    capacity and dropped all at once by {!flush}, which admission calls
    wherever it drops compiled programs (a keystore change, a module
    registration or removal, an engine switch).  Entries never expire:
    a cacheable policy reads no clock.

    The cache holds decisions only.  Compiled programs, and the programs
    prepared from them for each origin, are shared across sessions by
    the registry entry's cache ({!Registry.find_compiled},
    {!Registry.find_prepared}). *)

type t

type decision =
  | Allow
  | Deny of Policy.denial
      (** the denial as the engine returned it; the errno text is
          formatted only where a denied call raises it *)

val create : clock:Smod_sim.Clock.t -> capacity:int -> t
(** [capacity] must be positive. *)

val capacity : t -> int
val size : t -> int

val lookup :
  t ->
  cred_digest:string ->
  origin:Smod_keynote.Fuse.origin ->
  func_name:string ->
  m_id:int ->
  policy_rev:int ->
  keystore_gen:int ->
  decision option
(** Charges one {!Smod_sim.Cost_model.Policy_cache_probe}; counts a
    [policy_cache.hits] or [policy_cache.misses] metric.  An entry made
    under another [policy_rev] or [keystore_gen] is a plain miss and
    stays until the next {!store} overwrites it. *)

val store :
  t ->
  cred_digest:string ->
  origin:Smod_keynote.Fuse.origin ->
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

val flush : t -> int
(** Drop everything.  Returns the number of entries dropped; counts
    [policy_cache.flushes]. *)
