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
let m_compiled_hits = Smod_metrics.Scope.counter m_scope "compiled_hits"
let m_compiled_misses = Smod_metrics.Scope.counter m_scope "compiled_misses"
let m_compiled_inserts = Smod_metrics.Scope.counter m_scope "compiled_inserts"

type decision = Allow | Deny of string

(* Every entry records the policy revision and keystore generation it was
   made under.  They are checked at lookup rather than keyed on, so a
   bumped revision overwrites the key's one entry in place instead of
   stranding the old one until eviction. *)
type 'a entry = {
  value : 'a;
  m_id : int;
  policy_rev : int;
  keystore_gen : int;
  stored_us : float;
  seq : int;
}

type 'a table = {
  entries : (string, 'a entry) Hashtbl.t;
  order : (string * int) Queue.t;
      (* (key, seq) in insertion order, oldest first, for eviction.  The
         sequence number marks stale records: a key removed by expiry or
         invalidation and later re-stored gets a fresh seq, so eviction
         skips the old record instead of dropping the refreshed entry. *)
}

(* Compiled decision programs, shared across the sessions of one
   credential, live in the second table with no TTL (a program is
   immutable and its revision and generation pin the exact inputs it was
   compiled against) and the same capacity and FIFO eviction. *)
type t = {
  clock : Clock.t;
  ttl_us : float;
  cap : int;
  mutable seq : int;
  decisions : decision table;
  compiled : Secmodule.Policy.compiled table;
}

let table n = { entries = Hashtbl.create n; order = Queue.create () }

let create ~clock ~ttl_us ~capacity =
  if capacity <= 0 then invalid_arg "Policy_cache.create: capacity";
  { clock; ttl_us; cap = capacity; seq = 0; decisions = table 64; compiled = table 16 }

let ttl_us t = t.ttl_us
let capacity t = t.cap
let size t = Hashtbl.length t.decisions.entries
let compiled_size t = Hashtbl.length t.compiled.entries

(* The entry under [k], unless it was made under another revision or
   generation — which is a plain miss, not an expiration. *)
let find tbl k ~policy_rev ~keystore_gen =
  match Hashtbl.find_opt tbl.entries k with
  | Some e when e.policy_rev = policy_rev && e.keystore_gen = keystore_gen -> Some e
  | Some _ | None -> None

let rec evict_one tbl =
  match Queue.take_opt tbl.order with
  | None -> ()
  | Some (k, seq) -> (
      (* Skip stale records — keys removed by expiry or invalidation, or
         re-stored since (fresh seq) — and evict the oldest live entry. *)
      match Hashtbl.find_opt tbl.entries k with
      | Some e when e.seq = seq ->
          Hashtbl.remove tbl.entries k;
          Smod_metrics.Counter.incr m_evictions
      | Some _ | None -> evict_one tbl)

(* A key already present — a refresh, or a newer revision superseding
   the old — is overwritten in place and keeps its FIFO position. *)
let put t tbl k ~m_id ~policy_rev ~keystore_gen value =
  Clock.charge t.clock Cost.Policy_cache_insert;
  let seq =
    match Hashtbl.find_opt tbl.entries k with
    | Some e -> e.seq
    | None ->
        if Hashtbl.length tbl.entries >= t.cap then evict_one tbl;
        let seq = t.seq in
        t.seq <- t.seq + 1;
        Queue.add (k, seq) tbl.order;
        seq
  in
  Hashtbl.replace tbl.entries k
    { value; m_id; policy_rev; keystore_gen; stored_us = Clock.now_us t.clock; seq }

let key ~cred_digest ~func_name ~m_id =
  Printf.sprintf "%s\x00%s\x00%d" cred_digest func_name m_id

let lookup t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen =
  Clock.charge t.clock Cost.Policy_cache_probe;
  let k = key ~cred_digest ~func_name ~m_id in
  match find t.decisions k ~policy_rev ~keystore_gen with
  | Some e when t.ttl_us <= 0.0 || Clock.now_us t.clock -. e.stored_us <= t.ttl_us ->
      Smod_metrics.Counter.incr m_hits;
      Some e.value
  | Some _ ->
      Hashtbl.remove t.decisions.entries k;
      Smod_metrics.Counter.incr m_expirations;
      Smod_metrics.Counter.incr m_misses;
      None
  | None ->
      Smod_metrics.Counter.incr m_misses;
      None

let store t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen decision =
  put t t.decisions (key ~cred_digest ~func_name ~m_id) ~m_id ~policy_rev ~keystore_gen
    decision;
  Smod_metrics.Counter.incr m_inserts

(* ------------------------------------------------------------------ *)
(* Compiled-program handles                                            *)
(* ------------------------------------------------------------------ *)

let compiled_key ~cred_digest ~m_id = Printf.sprintf "%s\x00%d" cred_digest m_id

let lookup_compiled t ~cred_digest ~m_id ~policy_rev ~keystore_gen =
  (* No clock charge here: the dispatch layer charges one
     Policy_cache_probe per session-memo miss, covering this probe and
     the registry fallback together. *)
  match find t.compiled (compiled_key ~cred_digest ~m_id) ~policy_rev ~keystore_gen with
  | Some e ->
      Smod_metrics.Counter.incr m_compiled_hits;
      Some e.value
  | None ->
      Smod_metrics.Counter.incr m_compiled_misses;
      None

let store_compiled t ~cred_digest ~m_id ~policy_rev ~keystore_gen compiled =
  put t t.compiled (compiled_key ~cred_digest ~m_id) ~m_id ~policy_rev ~keystore_gen compiled;
  Smod_metrics.Counter.incr m_compiled_inserts

let drop_module tbl ~m_id =
  let victims =
    Hashtbl.fold (fun k e acc -> if e.m_id = m_id then k :: acc else acc) tbl.entries []
  in
  List.iter (Hashtbl.remove tbl.entries) victims;
  List.length victims

let invalidate_module t ~m_id =
  let n = drop_module t.decisions ~m_id + drop_module t.compiled ~m_id in
  Smod_metrics.Counter.add m_invalidations n;
  n

let clear tbl =
  let n = Hashtbl.length tbl.entries in
  Hashtbl.reset tbl.entries;
  Queue.clear tbl.order;
  n

let flush t =
  let n = clear t.decisions + clear t.compiled in
  Smod_metrics.Counter.incr m_flushes;
  n
