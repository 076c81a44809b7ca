module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Fuse = Smod_keynote.Fuse

(* Observability (lib/metrics): every probe outcome plus each way an
   entry can leave the cache — capacity eviction, flush. *)
let m_scope = Smod_metrics.scope "policy_cache"
let m_hits = Smod_metrics.Scope.counter m_scope "hits"
let m_misses = Smod_metrics.Scope.counter m_scope "misses"
let m_inserts = Smod_metrics.Scope.counter m_scope "inserts"
let m_evictions = Smod_metrics.Scope.counter m_scope "evictions"
let m_flushes = Smod_metrics.Scope.counter m_scope "flushes"

type decision = Allow | Deny of Policy.denial

(* The key's fields themselves, strings the session and registry already
   hold: a probe builds this one record and formats nothing. *)
type key = { cred_digest : string; func_name : string; m_id : int; origin : Fuse.origin }

(* Every entry records the policy revision and keystore generation it was
   made under.  They are checked at lookup rather than keyed on, so a
   bumped revision overwrites the key's one entry in place instead of
   stranding the old one until eviction. *)
type entry = { value : decision; policy_rev : int; keystore_gen : int }

type t = {
  clock : Clock.t;
  cap : int;
  entries : (key, entry) Hashtbl.t;
  order : key Queue.t;
      (* keys in insertion order, oldest first, for eviction.  Keys leave
         the table only by eviction or flush, so every key here is live. *)
}

let create ~clock ~capacity =
  if capacity <= 0 then invalid_arg "Policy_cache.create: capacity";
  { clock; cap = capacity; entries = Hashtbl.create 64; order = Queue.create () }

let capacity t = t.cap
let size t = Hashtbl.length t.entries

(* An entry made under another revision or generation is a plain miss. *)
let lookup t ~cred_digest ~origin ~func_name ~m_id ~policy_rev ~keystore_gen =
  Clock.charge t.clock Cost.Policy_cache_probe;
  match Hashtbl.find_opt t.entries { cred_digest; func_name; m_id; origin } with
  | Some e when e.policy_rev = policy_rev && e.keystore_gen = keystore_gen ->
      Smod_metrics.Counter.incr m_hits;
      Some e.value
  | Some _ | None ->
      Smod_metrics.Counter.incr m_misses;
      None

(* A key already present — a refresh, or a newer revision superseding
   the old — is overwritten in place and keeps its FIFO position. *)
let store t ~cred_digest ~origin ~func_name ~m_id ~policy_rev ~keystore_gen decision =
  Clock.charge t.clock Cost.Policy_cache_insert;
  let k = { cred_digest; func_name; m_id; origin } in
  if not (Hashtbl.mem t.entries k) then begin
    if Hashtbl.length t.entries >= t.cap then begin
      Hashtbl.remove t.entries (Queue.take t.order);
      Smod_metrics.Counter.incr m_evictions
    end;
    Queue.add k t.order
  end;
  Hashtbl.replace t.entries k { value = decision; policy_rev; keystore_gen };
  Smod_metrics.Counter.incr m_inserts

let flush t =
  let n = Hashtbl.length t.entries in
  Hashtbl.reset t.entries;
  Queue.clear t.order;
  Smod_metrics.Counter.incr m_flushes;
  n
