module Smod = Secmodule.Smod
module Registry = Secmodule.Registry
module Policy_cache = Secmodule.Policy_cache
module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Sched = Smod_kern.Sched
module Clock = Smod_sim.Clock
module Smof = Smod_modfmt.Smof

(* pool.hit / pool.miss are the pair the tests pin exactly: hit = the
   session landed on an already-forked handle, miss = a fresh fork was
   needed.  hit + miss = attached sessions that went through the pool. *)
let m_scope = Smod_metrics.scope "pool"
let m_hit = Smod_metrics.Scope.counter m_scope "hit"
let m_miss = Smod_metrics.Scope.counter m_scope "miss"
let m_attaches = Smod_metrics.Scope.counter m_scope "attaches"
let m_parks = Smod_metrics.Scope.counter m_scope "parks"
let m_spawns = Smod_metrics.Scope.counter m_scope "spawns"
let m_deaths = Smod_metrics.Scope.counter m_scope "deaths"
let m_reclaims = Smod_metrics.Scope.counter m_scope "reclaims"
let m_rejects = Smod_metrics.Scope.counter m_scope "rejects"
let m_waits = Smod_metrics.Scope.counter m_scope "waits"
let m_cancelled = Smod_metrics.Scope.counter m_scope "cancelled"

let m_wait_us =
  Smod_metrics.Scope.histogram
    ~edges:[| 10.; 50.; 100.; 500.; 1_000.; 5_000.; 10_000.; 50_000. |]
    m_scope "attach_wait_us"

type overflow = Reject | Wait

type config = {
  max_handles_per_module : int;
  max_total_handles : int;
  max_queue_depth : int;
  overflow : overflow;
}

let default_config =
  { max_handles_per_module = 4; max_total_handles = 16; max_queue_depth = 64; overflow = Wait }

let cache_capacity = 1024

type waiter = {
  w_pid : int;
  mutable w_granted : Smod.pooled_handle option;
  mutable w_cancelled : bool;
  mutable w_done : bool;  (* acquire returned (or raised); exit hook is a no-op *)
}

type mod_pool = {
  mp_entry : Registry.entry;
  mutable mp_free : Smod.pooled_handle list;
  mutable mp_handles : int;  (* live handles: parked + reserved + busy *)
  mp_waiters : waiter Queue.t;  (* FIFO; may hold cancelled entries *)
  mutable mp_spawned : int;
  mutable mp_retired : int;
}

type t = {
  smod : Smod.t;
  machine : Machine.t;
  cfg : config;
  pools : (int, mod_pool) Hashtbl.t;  (* m_id -> pool *)
  members : (int, mod_pool * Smod.pooled_handle) Hashtbl.t;
      (* handle pid -> owner.  Source of truth for capacity accounting:
         retire paths unaccount synchronously, the exit hook unaccounts
         lazily, and whichever runs second finds the pid gone. *)
  mutable total_handles : int;
  mutable total_waiters : int;  (* live (non-cancelled) queued clients *)
  cache : Policy_cache.t;  (* installed in admission until uninstall *)
  mutable remove_hook : (m_id:int -> unit) option;
      (* the hook registered on the Smod.t, deregistered by uninstall *)
}

let config t = t.cfg

let pool_for t (entry : Registry.entry) =
  match Hashtbl.find_opt t.pools entry.Registry.m_id with
  | Some mp -> mp
  | None ->
      let mp =
        {
          mp_entry = entry;
          mp_free = [];
          mp_handles = 0;
          mp_waiters = Queue.create ();
          mp_spawned = 0;
          mp_retired = 0;
        }
      in
      Hashtbl.replace t.pools entry.Registry.m_id mp;
      mp

let live_waiters mp = Queue.fold (fun n w -> if w.w_cancelled then n else n + 1) 0 mp.mp_waiters

let rec take_waiter mp =
  match Queue.take_opt mp.mp_waiters with
  | None -> None
  | Some w when w.w_cancelled -> take_waiter mp  (* already uncounted at cancel *)
  | Some w -> Some w

(* Drop a handle from the capacity books.  Returns false if some other
   path (synchronous retire vs the deferred exit hook) got there first. *)
let unaccount t ph =
  let pid = Smod.pooled_handle_pid ph in
  match Hashtbl.find_opt t.members pid with
  | None -> false
  | Some (mp, _) ->
      Hashtbl.remove t.members pid;
      mp.mp_handles <- mp.mp_handles - 1;
      mp.mp_retired <- mp.mp_retired + 1;
      mp.mp_free <- List.filter (fun h -> h != ph) mp.mp_free;
      t.total_handles <- t.total_handles - 1;
      true

let grant t w ph =
  Smod.reserve_pooled_handle ph;
  w.w_granted <- Some ph;
  t.total_waiters <- t.total_waiters - 1;
  Machine.wakeup t.machine w.w_pid

let rec spawn_for t mp =
  let ph =
    Smod.spawn_pooled_handle t.smod ~entry:mp.mp_entry
      ~on_park:(fun ph -> handle_parked t ph)
      ~on_death:(fun ph -> handle_died t ph)
  in
  Hashtbl.replace t.members (Smod.pooled_handle_pid ph) (mp, ph);
  mp.mp_handles <- mp.mp_handles + 1;
  mp.mp_spawned <- mp.mp_spawned + 1;
  t.total_handles <- t.total_handles + 1;
  Smod_metrics.Counter.incr m_spawns;
  ph

(* Handle context, each time a pooled handle frees up: hand it straight
   to the oldest queued client for its module, else park it — unless the
   global cap binds and another module's client is starving in the queue,
   in which case parking would strand that waiter forever (pump can only
   spawn under the cap, and it only runs on handle death).  Retire the
   parking handle instead so the freed slot is granted right away. *)
and handle_parked t ph =
  Smod_metrics.Counter.incr m_parks;
  match Hashtbl.find_opt t.pools (Smod.pooled_handle_entry ph).Registry.m_id with
  | None -> ()  (* module removed; retire already queued for us *)
  | Some mp -> (
      match take_waiter mp with
      | Some w ->
          Smod_metrics.Counter.incr m_hit;
          grant t w ph
      | None ->
          let starving_elsewhere =
            t.total_handles >= t.cfg.max_total_handles
            && Hashtbl.fold
                 (fun _ mp' acc ->
                   acc
                   || (mp' != mp
                      && mp'.mp_handles < t.cfg.max_handles_per_module
                      && live_waiters mp' > 0))
                 t.pools false
          in
          if starving_elsewhere then begin
            ignore (unaccount t ph);
            Smod_metrics.Counter.incr m_reclaims;
            pump t;
            (* Last: when the parking handle is the running process, the
               kill raises Proc_killed out of this very call. *)
            Smod.retire_pooled_handle t.smod ph
          end
          else mp.mp_free <- ph :: mp.mp_free)

and handle_died t ph =
  if unaccount t ph then begin
    Smod_metrics.Counter.incr m_deaths;
    pump t
  end

(* Freed capacity goes to queued clients, least-served module first —
   the per-module fairness half of the admission queue (FIFO within a
   module via take_waiter). *)
and pump t =
  let progress = ref true in
  while !progress && t.total_handles < t.cfg.max_total_handles do
    progress := false;
    let best =
      Hashtbl.fold
        (fun _ mp acc ->
          if live_waiters mp = 0 || mp.mp_handles >= t.cfg.max_handles_per_module then acc
          else
            match acc with
            | Some b
              when (b.mp_handles, b.mp_entry.Registry.m_id)
                   <= (mp.mp_handles, mp.mp_entry.Registry.m_id) ->
                acc
            | _ -> Some mp)
        t.pools None
    in
    match best with
    | None -> ()
    | Some mp -> (
        match take_waiter mp with
        | None -> ()
        | Some w ->
            Smod_metrics.Counter.incr m_miss;
            grant t w (spawn_for t mp);
            progress := true)
  done

(* Client exit hook, registered the moment a waiter joins the admission
   queue: a client killed while blocked must not stay counted in
   total_waiters, and if handle_parked already granted it a handle, that
   handle (reserved, off mp_free, still on the capacity books) must go
   back to the pool instead of leaking. *)
let waiter_client_exited t w =
  if not w.w_done then begin
    match w.w_granted with
    | Some ph ->
        (* Granted but never attached: the grant already uncounted the
           waiter; return the handle to the pool (or the next waiter). *)
        w.w_cancelled <- true;
        Smod_metrics.Counter.incr m_cancelled;
        if not (Smod.pooled_handle_dead ph) then begin
          Smod.unreserve_pooled_handle ph;
          handle_parked t ph
        end
    | None ->
        if not w.w_cancelled then begin
          w.w_cancelled <- true;
          t.total_waiters <- t.total_waiters - 1;
          Smod_metrics.Counter.incr m_cancelled
        end
  end

(* Steal global capacity back from another module's idle handle (the
   donor with the most parked handles).  The retire is synchronous on
   the books even though the kill lands at the victim's next dispatch. *)
let reclaim_idle t ~for_m_id =
  let donor =
    Hashtbl.fold
      (fun m_id mp acc ->
        if m_id = for_m_id || mp.mp_free = [] then acc
        else
          match acc with
          | Some b when List.length b.mp_free >= List.length mp.mp_free -> acc
          | _ -> Some mp)
      t.pools None
  in
  match donor with
  | None -> false
  | Some mp -> (
      match mp.mp_free with
      | [] -> false
      | ph :: _ ->
          ignore (unaccount t ph);
          Smod.retire_pooled_handle t.smod ph;
          Smod_metrics.Counter.incr m_reclaims;
          true)

let saturated_error t =
  match t.cfg.overflow with
  | Reject ->
      Smod_metrics.Counter.incr m_rejects;
      Errno.raise_errno Errno.EAGAIN "smodd: handle pool saturated"
  | Wait ->
      Smod_metrics.Counter.incr m_rejects;
      Errno.raise_errno Errno.EAGAIN "smodd: admission queue full"

(* The session broker: runs in client context inside sys_start_session,
   after the kernel validated the descriptor, credential and
   establishment policy. *)
let acquire t (p : Proc.t) (entry : Registry.entry) =
  let mp = pool_for t entry in
  match mp.mp_free with
  | ph :: rest ->
      mp.mp_free <- rest;
      Smod.reserve_pooled_handle ph;
      Smod_metrics.Counter.incr m_hit;
      ph
  | [] ->
      if mp.mp_handles >= t.cfg.max_handles_per_module then
        (match t.cfg.overflow with Reject -> saturated_error t | Wait -> ())
      else if t.total_handles >= t.cfg.max_total_handles then
        (* At the global cap but under the per-module one: try to evict
           an idle handle parked under some other module. *)
        if not (reclaim_idle t ~for_m_id:entry.Registry.m_id) then
          match t.cfg.overflow with Reject -> saturated_error t | Wait -> ()
        else ();
      if mp.mp_handles < t.cfg.max_handles_per_module && t.total_handles < t.cfg.max_total_handles
      then begin
        Smod_metrics.Counter.incr m_miss;
        let ph = spawn_for t mp in
        Smod.reserve_pooled_handle ph;
        ph
      end
      else begin
        (* overflow = Wait: join the admission queue *)
        if t.total_waiters >= t.cfg.max_queue_depth then saturated_error t;
        let w =
          { w_pid = p.Proc.pid; w_granted = None; w_cancelled = false; w_done = false }
        in
        Queue.add w mp.mp_waiters;
        t.total_waiters <- t.total_waiters + 1;
        Smod_metrics.Counter.incr m_waits;
        let hook _ = waiter_client_exited t w in
        Proc.add_exit_hook p hook;
        while w.w_granted = None && not w.w_cancelled do
          Effect.perform (Sched.Block (Sched.Custom "smodd-admission"))
        done;
        (* A kill while blocked unwinds past here, leaving the hook to run. *)
        Proc.remove_exit_hook p hook;
        w.w_done <- true;
        match w.w_granted with
        | Some ph when not (Smod.pooled_handle_dead ph) -> ph
        | _ ->
            (* Module removed (or smodd uninstalled) while queued, or
               granted a handle that was retired before we ran again. *)
            Errno.raise_errno Errno.ENOENT "smodd: module removed while queued"
      end

let broker t p entry credential =
  let clock = Machine.clock t.machine in
  let t0 = Clock.now_us clock in
  let ph = acquire t p entry in
  Smod_metrics.Histogram.observe m_wait_us (Clock.now_us clock -. t0);
  let sid = Smod.attach_pooled t.smod p ph ~credential in
  Smod_metrics.Counter.incr m_attaches;
  Some sid

(* sys_smod_remove: every handle of the module dies (parked ones now,
   busy ones as soon as their — already detached — session unwinds) and
   queued clients fail with ENOENT. *)
let on_module_remove t ~m_id =
  match Hashtbl.find_opt t.pools m_id with
  | None -> ()
  | Some mp ->
      Hashtbl.remove t.pools m_id;
      let victims =
        Hashtbl.fold (fun _ (mp', ph) acc -> if mp' == mp then ph :: acc else acc) t.members []
      in
      List.iter
        (fun ph ->
          ignore (unaccount t ph);
          Smod.retire_pooled_handle t.smod ph)
        victims;
      Queue.iter
        (fun w ->
          if (not w.w_cancelled) && w.w_granted = None then begin
            w.w_cancelled <- true;
            t.total_waiters <- t.total_waiters - 1;
            Smod_metrics.Counter.incr m_cancelled;
            Machine.wakeup t.machine w.w_pid
          end)
        mp.mp_waiters;
      Queue.clear mp.mp_waiters;
      pump t

let install smod ?(config = default_config) () =
  let machine = Smod.machine smod in
  let cache = Policy_cache.create ~clock:(Machine.clock machine) ~capacity:cache_capacity in
  let t =
    {
      smod;
      machine;
      cfg = config;
      pools = Hashtbl.create 8;
      members = Hashtbl.create 32;
      total_handles = 0;
      total_waiters = 0;
      cache;
      remove_hook = None;
    }
  in
  Smod.set_session_broker smod (Some (fun p entry credential -> broker t p entry credential));
  Smod.set_policy_cache smod (Some cache);
  let remove_hook ~m_id = on_module_remove t ~m_id in
  Smod.add_module_remove_hook smod remove_hook;
  t.remove_hook <- Some remove_hook;
  t

let uninstall t =
  Smod.set_session_broker t.smod None;
  ignore (Policy_cache.flush t.cache);
  Smod.set_policy_cache t.smod None;
  (match t.remove_hook with
  | Some hook ->
      Smod.remove_module_remove_hook t.smod hook;
      t.remove_hook <- None
  | None -> ());
  (* Wake every queued client first (they fail with ENOENT, exactly as on
     module removal) so nobody stays blocked on a pool that no longer
     exists... *)
  Hashtbl.iter
    (fun _ mp ->
      Queue.iter
        (fun w ->
          if (not w.w_cancelled) && w.w_granted = None then begin
            w.w_cancelled <- true;
            t.total_waiters <- t.total_waiters - 1;
            Smod_metrics.Counter.incr m_cancelled;
            Machine.wakeup t.machine w.w_pid
          end)
        mp.mp_waiters;
      Queue.clear mp.mp_waiters)
    t.pools;
  Hashtbl.reset t.pools;
  (* ...then retire the handles themselves. *)
  let victims = Hashtbl.fold (fun _ (_, ph) acc -> ph :: acc) t.members [] in
  List.iter
    (fun ph ->
      ignore (unaccount t ph);
      Smod.retire_pooled_handle t.smod ph)
    victims

type module_status = {
  ms_m_id : int;
  ms_module : string;
  ms_handles : int;
  ms_parked : int;
  ms_busy : int;
  ms_waiters : int;
  ms_spawned : int;
  ms_retired : int;
  ms_tenants : int;
}

type status = {
  st_modules : module_status list;
  st_total_handles : int;
  st_total_waiters : int;
  st_cache_size : int;
  st_cache_capacity : int;
  st_ring_batches : int;
  st_ring_submits : int;
  st_ring_stale_drops : int;
  st_spin_budget : int;
}

let status t =
  let modules =
    Hashtbl.fold
      (fun m_id mp acc ->
        let parked = List.length mp.mp_free in
        let tenants =
          Hashtbl.fold
            (fun _ (mp', ph) n -> if mp' == mp then n + Smod.pooled_handle_tenants ph else n)
            t.members 0
        in
        {
          ms_m_id = m_id;
          ms_module = mp.mp_entry.Registry.image.Smof.mod_name;
          ms_handles = mp.mp_handles;
          ms_parked = parked;
          ms_busy = mp.mp_handles - parked;
          ms_waiters = live_waiters mp;
          ms_spawned = mp.mp_spawned;
          ms_retired = mp.mp_retired;
          ms_tenants = tenants;
        }
        :: acc)
      t.pools []
    |> List.sort (fun a b -> compare a.ms_m_id b.ms_m_id)
  in
  (* Ring traffic is recorded in the process-wide metric registry (the
     ring lives in lib/secmodule, below this layer); surfacing it here
     lets the pool table answer "are the pooled tenants on the fast
     path?" in one place. *)
  let ring_counter name = Option.value ~default:0 (Smod_metrics.counter_value name) in
  {
    st_modules = modules;
    st_total_handles = t.total_handles;
    st_total_waiters = t.total_waiters;
    st_cache_size = Policy_cache.size t.cache;
    st_cache_capacity = Policy_cache.capacity t.cache;
    st_ring_batches = ring_counter "ring.batches";
    st_ring_submits = ring_counter "ring.submits";
    st_ring_stale_drops = ring_counter "ring.stale_drops";
    st_spin_budget = Smod.spin_budget t.smod;
  }

let render_status t =
  let st = status t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "  mid  module            handles parked busy waiters spawned retired tenants\n";
  List.iter
    (fun ms ->
      Buffer.add_string buf
        (Printf.sprintf "  %3d  %-16s %7d %6d %4d %7d %7d %7d %7d\n" ms.ms_m_id ms.ms_module
           ms.ms_handles ms.ms_parked ms.ms_busy ms.ms_waiters ms.ms_spawned ms.ms_retired
           ms.ms_tenants))
    st.st_modules;
  Buffer.add_string buf
    (Printf.sprintf "  total: %d handle(s), %d waiter(s); policy cache %d/%d entries"
       st.st_total_handles st.st_total_waiters st.st_cache_size st.st_cache_capacity);
  Buffer.add_string buf
    (Printf.sprintf "; ring: %d call(s) in %d batch(es), %d stale drop(s); spin budget %d"
       st.st_ring_submits st.st_ring_batches st.st_ring_stale_drops st.st_spin_budget);
  Buffer.add_char buf '\n';
  Buffer.contents buf
