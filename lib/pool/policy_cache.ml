module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model

(* Observability (lib/metrics): every probe outcome plus each way an
   entry can leave the cache — TTL expiry, capacity eviction, module
   invalidation, keystore flush. *)
let m_scope = Smod_metrics.scope "policy_cache"
let m_hits = Smod_metrics.Scope.counter m_scope "hits"
let m_misses = Smod_metrics.Scope.counter m_scope "misses"
let m_inserts = Smod_metrics.Scope.counter m_scope "inserts"
let m_expirations = Smod_metrics.Scope.counter m_scope "expirations"
let m_evictions = Smod_metrics.Scope.counter m_scope "evictions"
let m_invalidations = Smod_metrics.Scope.counter m_scope "invalidations"
let m_flushes = Smod_metrics.Scope.counter m_scope "flushes"

type decision = Allow | Deny of string

(* Every entry records the policy revision and keystore generation it was
   made under.  They are checked at lookup rather than keyed on, so a
   bumped revision overwrites the key's one entry in place instead of
   stranding the old one until eviction. *)
type entry = {
  value : decision;
  m_id : int;
  policy_rev : int;
  keystore_gen : int;
  stored_us : float;
  seq : int;
}

type t = {
  clock : Clock.t;
  ttl_us : float;
  cap : int;
  mutable seq : int;
  entries : (string, entry) Hashtbl.t;
  order : (string * int) Queue.t;
      (* (key, seq) in insertion order, oldest first, for eviction.  The
         sequence number marks stale records: a key removed by expiry or
         invalidation and later re-stored gets a fresh seq, so eviction
         skips the old record instead of dropping the refreshed entry. *)
}

let create ~clock ~ttl_us ~capacity =
  if capacity <= 0 then invalid_arg "Policy_cache.create: capacity";
  {
    clock;
    ttl_us;
    cap = capacity;
    seq = 0;
    entries = Hashtbl.create 64;
    order = Queue.create ();
  }

let ttl_us t = t.ttl_us
let capacity t = t.cap
let size t = Hashtbl.length t.entries

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some (k, seq) -> (
      (* Skip stale records — keys removed by expiry or invalidation, or
         re-stored since (fresh seq) — and evict the oldest live entry. *)
      match Hashtbl.find_opt t.entries k with
      | Some e when e.seq = seq ->
          Hashtbl.remove t.entries k;
          Smod_metrics.Counter.incr m_evictions
      | Some _ | None -> evict_one t)

let key ~cred_digest ~func_name ~m_id =
  Printf.sprintf "%s\x00%s\x00%d" cred_digest func_name m_id

let lookup t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen =
  Clock.charge t.clock Cost.Policy_cache_probe;
  let k = key ~cred_digest ~func_name ~m_id in
  (* An entry made under another revision or generation is a plain miss,
     not an expiration. *)
  match Hashtbl.find_opt t.entries k with
  | Some e when e.policy_rev <> policy_rev || e.keystore_gen <> keystore_gen ->
      Smod_metrics.Counter.incr m_misses;
      None
  | Some e when t.ttl_us <= 0.0 || Clock.now_us t.clock -. e.stored_us <= t.ttl_us ->
      Smod_metrics.Counter.incr m_hits;
      Some e.value
  | Some _ ->
      Hashtbl.remove t.entries k;
      Smod_metrics.Counter.incr m_expirations;
      Smod_metrics.Counter.incr m_misses;
      None
  | None ->
      Smod_metrics.Counter.incr m_misses;
      None

(* A key already present — a refresh, or a newer revision superseding
   the old — is overwritten in place and keeps its FIFO position. *)
let store t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen decision =
  Clock.charge t.clock Cost.Policy_cache_insert;
  let k = key ~cred_digest ~func_name ~m_id in
  let seq =
    match Hashtbl.find_opt t.entries k with
    | Some e -> e.seq
    | None ->
        if Hashtbl.length t.entries >= t.cap then evict_one t;
        let seq = t.seq in
        t.seq <- t.seq + 1;
        Queue.add (k, seq) t.order;
        seq
  in
  Hashtbl.replace t.entries k
    { value = decision; m_id; policy_rev; keystore_gen; stored_us = Clock.now_us t.clock; seq };
  Smod_metrics.Counter.incr m_inserts

let invalidate_module t ~m_id =
  let victims =
    Hashtbl.fold (fun k e acc -> if e.m_id = m_id then k :: acc else acc) t.entries []
  in
  List.iter (Hashtbl.remove t.entries) victims;
  let n = List.length victims in
  Smod_metrics.Counter.add m_invalidations n;
  n

let flush t =
  let n = Hashtbl.length t.entries in
  Hashtbl.reset t.entries;
  Queue.clear t.order;
  Smod_metrics.Counter.incr m_flushes;
  n
