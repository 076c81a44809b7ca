module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Signal = Smod_kern.Signal
module Sysno = Smod_kern.Sysno
module Sched = Smod_kern.Sched
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Prot = Smod_vmem.Prot
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Trace = Smod_sim.Trace
module Smof = Smod_modfmt.Smof
module Keystore = Smod_keynote.Keystore
module Fuse = Smod_keynote.Fuse
module Vexec = Smod_keynote.Vexec
module KCompile = Smod_keynote.Compile
module Interp = Smod_svm.Interp
module Ring = Smod_ring.Ring

type toctou_mitigation = No_mitigation | Unmap_during_call | Dequeue_client_threads

(* Per-session dispatch-ring state, bound lazily on the first
   [sys_smod_call_batch] after the client registered a ring (syscall
   321).  The wait queues are the two halves of the spin-then-block
   protocol; [r_handle_engaged] flips once the handle has entered its
   ring-aware serve loop — before that it still blocks in [msgrcv], so
   the kernel's doorbell must fall back to an mtype-3 msgq message. *)
type ring_state = {
  r_ring : Ring.t;
  r_client_wq : Sched.waitq;
  r_handle_wq : Sched.waitq;
  mutable r_handle_engaged : bool;
}

type queue_pair = { req_qid : int; rep_qid : int }

(* Effects-based handle multiplexer (E22): one daemon process serves
   thousands of ring-only sessions as fibers.  A fiber drains its
   session's ring and performs [Mux_suspend] when it runs dry; the stamp
   path (batch trap or poller) enqueues the session id and wakes the mux,
   which resumes the continuation under that session's handle context
   (address space, secret stack, role).  This replaces the
   one-blocked-loop-per-session model: suspended sessions cost a table
   entry, not a process. *)
type _ Effect.t += Mux_suspend : unit Effect.t

type mux_fiber =
  | Fiber_fresh
  | Fiber_suspended of (unit, unit) Effect.Deep.continuation
  | Fiber_running
  | Fiber_done

type mux_session = {
  ms_aspace : Aspace.t;  (* the session's handle context: module image,
                            secret segment, force-shared client range *)
  mutable ms_sp : int;
  mutable ms_fp : int;
  mutable ms_fiber : mux_fiber;
  mutable ms_queued : bool;  (* already on [mx_ready] *)
}

type session = {
  sid : int;
  m_id : int;
  entry : Registry.entry;
  client_pid : int;
  mutable handle_pid : int;
  credential : Credential.t;
  policy_state : Policy.state;
  kind : handle_kind;
  mutable established : bool;
  mutable detached : bool;
  mutable calls : int;
  mutable denied_calls : int;
  mutable faulted_calls : int;
  mutable handle_exec_us : float;
  mutable client_waiting_handshake : bool;
  mutable ring : ring_state option;
  mutable cred_digest : string option;
  mutable program : (int * int * Policy.compiled * string * Policy.prepared) option;
      (* (policy_rev, keystore_gen, compiled program, transport, the
         program prepared for that transport) *)
  mutable client_exit_hook : (Proc.t -> unit) option;
}

and handle_kind = Forked of queue_pair | Pooled of pooled_handle | Mux of mux_session

(* A reusable handle co-process managed by the smodd service layer
   (lib/pool): it outlives any single session, parking between tenants
   instead of dying with its client. *)
and pooled_handle = {
  ph_entry : Registry.entry;
  ph_pid : int;
  ph_queues : queue_pair;
  ph_aspace : Aspace.t;
  mutable ph_session : session option;
  mutable ph_dead : bool;
  mutable ph_reserved : bool;
      (** claimed for a specific incoming client; skip the park callback *)
  mutable ph_tenants : int;
  ph_on_park : pooled_handle -> unit;
  ph_on_death : pooled_handle -> unit;
}

(* SQPOLL-style kernel poller (E22): one kernel daemon sweeps every live
   session's registered ring for Submitted slots, so the steady-state
   data path needs no client trap at all.  The spin/park policy shares
   [spin_budget] with the handle serve loop: after that many consecutive
   empty sweeps the poller sets each ring's need-wakeup flag and blocks
   on [p_wq]; the next submitter sees the flag (a trap-free shared-memory
   read) and rings [sys_smod_poll_doorbell] — the only trap the zero-trap
   path ever pays, and only while the poller naps. *)
type poller = {
  mutable p_run : bool;
  mutable p_pid : int;
  mutable p_parked : bool;
  p_wq : Sched.waitq;
  mutable p_sweeps : int;
  mutable p_empty_sweeps : int;  (* total sweeps that stamped nothing *)
  mutable p_parks : int;
  mutable p_wakes : int;
  mutable p_slots : int;
  mutable p_geometry_rejects : int;
  mutable p_doorbells : int;
  p_session_slots : (int, int) Hashtbl.t;  (* sid -> slots stamped *)
}

type mux = {
  mutable mx_pid : int;
  mx_wq : Sched.waitq;
  mx_ready : int Queue.t;  (* sids with stamped work (or a detach) pending *)
  mx_sessions : (int, session * mux_session) Hashtbl.t;
  mutable mx_live : int;
  mutable mx_peak : int;
  mutable mx_attached : int;  (* total sessions ever attached *)
}

type t = {
  machine : Machine.t;
  registry : Registry.t;
  keystore : Keystore.t;
  sessions_by_client : (int, session) Hashtbl.t;
  sessions_by_handle : (int, session) Hashtbl.t;
  mutable sessions_by_sid : session list option;
      (* [sessions_by_client] sorted by sid for the poller; [None] from a
         registration or detach until the next sweep sorts it again *)
  mutable next_sid : int;
  mutable next_pool_serial : int;
  mutable toctou : toctou_mitigation;
  mutable fast_path : bool;
  mutable broker : (Smod_kern.Proc.t -> Registry.entry -> Credential.t -> int option) option;
  mutable policy_cache : Policy_cache.t option;
  mutable remove_hooks : (m_id:int -> unit) list;
  mutable compile_policies : bool;
  mutable fuse_policies : bool;
  mutable vectorize_policies : bool;
  mutable dispatch_gate : (unit -> unit) option;
  mutable spin_budget : int;
  mutable poller : poller option;
  mutable mux : mux option;
  mutable mux_enabled : bool;
}

exception Access_denied of string

(* Observability (lib/metrics): the SMOD dispatch path itself — call
   volume, denials, session churn, and the per-call latency distribution
   that Figure 8 summarises as a single mean. *)
let m_scope = Smod_metrics.scope "secmodule"
let m_calls = Smod_metrics.Scope.counter m_scope "calls"
let m_calls_denied = Smod_metrics.Scope.counter m_scope "calls_denied"
let m_sessions_started = Smod_metrics.Scope.counter m_scope "sessions_started"
let m_sessions_detached = Smod_metrics.Scope.counter m_scope "sessions_detached"
let m_handle_scrubs = Smod_metrics.Scope.counter m_scope "handle_scrubs"
let m_scrub_bytes = Smod_metrics.Scope.counter m_scope "scrub_bytes"

(* Per-function dispatch accounting: dynamic counters named
   secmodule.func_calls.<module>.<function> (and .func_denied...) are the
   evidence `smodctl audit` reads to find granted-but-never-dispatched
   functions.  Metrics only — no cost-model charge, so simulated timings
   are byte-for-byte what the baselines measured. *)
let count_func ~denied ~mod_name ~func_name =
  let kind = if denied then "func_denied" else "func_calls" in
  Smod_metrics.Counter.incr
    (Smod_metrics.counter (String.concat "." [ "secmodule"; kind; mod_name; func_name ]))

let m_call_us =
  Smod_metrics.Scope.histogram m_scope "call_us"
    ~edges:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

(* ring.* scope: the shared-memory fast path (setups/teardowns are
   counted by the kernel in lib/kern/machine.ml). *)
let m_ring_scope = Smod_metrics.scope "ring"
let m_ring_submits = Smod_metrics.Scope.counter m_ring_scope "submits"
let m_ring_batches = Smod_metrics.Scope.counter m_ring_scope "batches"
let m_ring_denied = Smod_metrics.Scope.counter m_ring_scope "denied"
let m_ring_doorbell_wakes = Smod_metrics.Scope.counter m_ring_scope "doorbell_wakes"

let m_ring_doorbell_fallbacks =
  Smod_metrics.Scope.counter m_ring_scope "doorbell_fallbacks"

let m_ring_spin_wakeups = Smod_metrics.Scope.counter m_ring_scope "spin_wakeups"
let m_ring_block_wakeups = Smod_metrics.Scope.counter m_ring_scope "block_wakeups"
let m_ring_stale_drops = Smod_metrics.Scope.counter m_ring_scope "stale_drops"

let m_ring_batch_size =
  Smod_metrics.Scope.histogram m_ring_scope "batch_size"
    ~edges:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

(* poller.* scope: the SQPOLL-style zero-trap path and the effects
   multiplexer that serves it (E22). *)
let m_poll_scope = Smod_metrics.scope "poller"
let m_poll_sweeps = Smod_metrics.Scope.counter m_poll_scope "sweeps"
let m_poll_slots = Smod_metrics.Scope.counter m_poll_scope "slots_stamped"
let m_poll_parks = Smod_metrics.Scope.counter m_poll_scope "parks"
let m_poll_wakes = Smod_metrics.Scope.counter m_poll_scope "wakes"
let m_poll_doorbells = Smod_metrics.Scope.counter m_poll_scope "doorbells"
let m_mux_attached = Smod_metrics.Scope.counter m_poll_scope "mux_sessions_attached"

let machine t = t.machine
let keystore t = t.keystore
let registry t = t.registry
let set_toctou_mitigation t m = t.toctou <- m
let set_call_fast_path t b = t.fast_path <- b
let call_fast_path t = t.fast_path
let set_dispatch_gate t gate = t.dispatch_gate <- gate

(* Drop every registry entry's compiled programs, every live session's
   program slot and every cached decision, so the next call decides
   afresh under the current keystore, switches and module set. *)
let drop_programs_and_decisions t =
  List.iter Registry.flush_compiled (Registry.entries t.registry);
  Hashtbl.iter (fun _ s -> s.program <- None) t.sessions_by_client;
  Option.iter (fun cache -> ignore (Policy_cache.flush cache)) t.policy_cache

(* The engines may disagree (an [origin_module] literal naming no module
   denies only when compiled), so a cached decision outlives no switch. *)
let set_policy_compile t b =
  if b <> t.compile_policies then begin
    t.compile_policies <- b;
    drop_programs_and_decisions t
  end

let policy_compile_enabled t = t.compile_policies

(* A program carries a fused plan only if fusion was on when it compiled. *)
let set_policy_fuse t b =
  if b <> t.fuse_policies then begin
    t.fuse_policies <- b;
    drop_programs_and_decisions t
  end

let policy_fuse_enabled t = t.fuse_policies
let set_policy_vectorize t b = t.vectorize_policies <- b
let policy_vectorize_enabled t = t.vectorize_policies
let toctou_mitigation t = t.toctou

let secret_stack_top = Layout.secret_base + (Layout.secret_pages * Layout.page_size)

(* The kernel caches the client's pid at the base of the secret segment so
   the converted getpid can answer without a nested trap (§4.3). *)
let client_pid_cache_addr = Layout.secret_base

let session_of_client t ~client_pid = Hashtbl.find_opt t.sessions_by_client client_pid
let session_of_handle t ~handle_pid = Hashtbl.find_opt t.sessions_by_handle handle_pid

let active_sessions t =
  Hashtbl.fold (fun _ s acc -> if s.detached then acc else s :: acc) t.sessions_by_client []

(* A mux session's handle context is its fiber's, not the mux daemon's. *)
let handle_aspace t (session : session) =
  match session.kind with
  | Mux ms -> ms.ms_aspace
  | Forked _ | Pooled _ -> (Machine.proc_exn t.machine session.handle_pid).Proc.aspace

(* The handle's queue pair; a mux fiber has none. *)
let queues session =
  match session.kind with
  | Forked q | Pooled { ph_queues = q; _ } -> Some q
  | Mux _ -> None

let handle_alive t session =
  match Machine.proc t.machine session.handle_pid with
  | Some h -> not (Proc.is_zombie h)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Registration (trusted tool chain)                                   *)
(* ------------------------------------------------------------------ *)

(* A program compiled before this registration may have failed closed on
   an [origin_module] literal naming the new module, so every program and
   every decision it made goes. *)
let register t ~image ?(protection = Registry.Unmap_only) ?(policy = Policy.Session_lifetime)
    ?(admin_principal = "root") ?kernel_key ?kernel_nonce ?link () =
  let entry =
    Registry.add t.registry ~image ~protection ~policy ~admin_principal ?kernel_key
      ?kernel_nonce ?link ()
  in
  drop_programs_and_decisions t;
  entry

let bind_native t ~m_id ~name fn =
  match Registry.find_by_id t.registry m_id with
  | None -> raise (Registry.Not_registered (Printf.sprintf "m_id %d" m_id))
  | Some entry -> Registry.bind_native entry ~name fn

(* ------------------------------------------------------------------ *)
(* Session teardown                                                    *)
(* ------------------------------------------------------------------ *)

(* Requests travel as mtype 1; a detach control message for a pooled
   handle as mtype 2.  The handle drains its queue in arrival order, so an
   in-flight request is always served before the detach is honoured.
   mtype 3 is the ring doorbell: a zero-byte kick for a handle still
   blocked in msgrcv when ring work is stamped. *)
let pool_detach_mtype = 2
let ring_doorbell_mtype = 3

(* Hand a mux session's freshly stamped work (or its detach) to the mux:
   enqueue the sid once and wake the mux proc.  The wake is a no-op when
   the mux is already running — it drains the ready queue before
   blocking again. *)
let mux_notify t session ms =
  match t.mux with
  | Some mx when Hashtbl.mem mx.mx_sessions session.sid ->
      if not ms.ms_queued then begin
        ms.ms_queued <- true;
        Queue.push session.sid mx.mx_ready
      end;
      ignore (Machine.wake t.machine mx.mx_wq)
  | Some _ | None -> ()

let detach_session t session =
  if not session.detached then begin
    session.detached <- true;
    (* Unregister the client's exit hook, or a client that opens and
       closes sessions in a loop keeps every closed one alive. *)
    (match (session.client_exit_hook, Machine.proc t.machine session.client_pid) with
    | Some hook, Some client -> Proc.remove_exit_hook client hook
    | _ -> ());
    session.client_exit_hook <- None;
    Smod_metrics.Counter.incr m_sessions_detached;
    Trace.emit (Machine.trace t.machine) ~clock:(Machine.clock t.machine) ~actor:"kernel"
      (Machine.Detach_session
         { sid = session.sid; module_name = session.entry.Registry.image.Smof.mod_name });
    Hashtbl.remove t.sessions_by_client session.client_pid;
    Hashtbl.remove t.sessions_by_handle session.handle_pid;
    t.sessions_by_sid <- None;
    (* Tear the dispatch ring down first: count what a client that died
       mid-batch left behind (Submitted/Claimed slots nobody will ever
       complete), unblock both sides of the spin-then-block protocol, and
       drop the kernel's registration so a recycled handle can never
       claim from it again — the next tenant registers a fresh ring that
       syscall 321 re-arms zeroed. *)
    (match session.ring with
    | Some rs ->
        (try
           let stale = Ring.stale_submitted rs.r_ring in
           if stale > 0 then Smod_metrics.Counter.add m_ring_stale_drops stale
         with Aspace.Segv _ | Aspace.Prot_violation _ -> ());
        session.ring <- None;
        ignore (Machine.wake t.machine rs.r_client_wq);
        ignore (Machine.wake t.machine rs.r_handle_wq)
    | None -> ());
    Machine.ring_teardown t.machine ~pid:session.client_pid;
    (* A client still waiting for the handshake wakes to find the session
       gone. *)
    if session.client_waiting_handshake then begin
      session.client_waiting_handshake <- false;
      Machine.wakeup t.machine session.client_pid
    end;
    (* Break the client half of the VM pairing so future faults no longer
       share. *)
    (match Machine.proc t.machine session.client_pid with
    | Some client ->
        Aspace.set_peer client.Proc.aspace None;
        client.Proc.role <- Proc.Standalone
    | None -> ());
    match session.kind with
    | Forked q ->
        (* Remove the pair's queues, so a client blocked mid-call wakes
           with EIDRM instead of hanging on a dead handle, then kill the
           handle. *)
        (match
           List.find_map (Machine.proc t.machine) [ session.client_pid; session.handle_pid ]
         with
        | Some p ->
            (try Machine.msgctl_remove t.machine p ~qid:q.req_qid with Errno.Error _ -> ());
            (try Machine.msgctl_remove t.machine p ~qid:q.rep_qid with Errno.Error _ -> ())
        | None -> ());
        (match Machine.proc t.machine session.handle_pid with
        | Some handle ->
            Aspace.set_peer handle.Proc.aspace None;
            (try Machine.kill t.machine ~pid:session.handle_pid ~signal:Signal.sigkill
             with Errno.Error _ -> ())
        | None -> ())
    | Pooled ph ->
        (* The handle unshares and scrubs itself on the way back to the
           pool, so its queues and process survive for the next tenant.
           A handle already dead or dying gets no detach message: its exit
           hook removes the queues and reports the death to smodd. *)
        if (not ph.ph_dead) && handle_alive t session then begin
          (* msgsnd needs a process context; the client may already be a
             zombie (exit-hook detach), in which case the handle itself —
             blocked in msgrcv on this very queue — serves as sender. *)
          let sender =
            match Machine.proc t.machine session.client_pid with
            | Some c when not (Proc.is_zombie c) -> c
            | Some _ | None -> Machine.proc_exn t.machine session.handle_pid
          in
          try
            Machine.msgsnd t.machine sender ~qid:ph.ph_queues.req_qid ~mtype:pool_detach_mtype
              (Bytes.create 0)
          with Errno.Error _ -> ()
        end
    | Mux ms ->
        (* A fiber, not a process: never kill the mux proc.  Orphan the
           session's handle context and kick the mux so the fiber observes
           [detached] and finishes (dropping its continuation). *)
        Aspace.set_peer ms.ms_aspace None;
        mux_notify t session ms
  end

(* The death rule every handle kind shares: when a handle process dies,
   each session it still serves is detached, so no client is left
   waiting on a dead enforcement point. *)
let detach_served t (handle : Proc.t) =
  Hashtbl.fold
    (fun _ s acc -> if s.handle_pid = handle.Proc.pid then s :: acc else acc)
    t.sessions_by_client []
  |> List.sort (fun a b -> compare a.sid b.sid)
  |> List.iter (detach_session t)

(* A session lives as long as its client: the client's exit detaches it,
   and detaching unregisters the hook. *)
let detach_on_client_exit t (p : Proc.t) session =
  let hook _ = detach_session t session in
  session.client_exit_hook <- Some hook;
  Proc.add_exit_hook p hook

(* ------------------------------------------------------------------ *)
(* The handle body: smod_std_handle() (§4, step 2)                     *)
(* ------------------------------------------------------------------ *)

let execute_function t session (handle : Proc.t) (req : Wire.request) =
  let clock = Machine.clock t.machine in
  let exec_start = Clock.now_cycles clock in
  let account (reply : Wire.reply) =
    session.handle_exec_us <- session.handle_exec_us +. Clock.elapsed_us clock ~since:exec_start;
    if reply.Wire.status <> 0 then session.faulted_calls <- session.faulted_calls + 1;
    reply
  in
  let entry = session.entry in
  match Registry.symbol_of_func_id entry req.Wire.func_id with
  | None -> account { Wire.status = 2; retval = 0 }
  | Some sym -> account (
      (* smod_stub_receive: running on the secret stack, repoint to the
         shared stack just above arg1 (Figure 3, step 3). *)
      Clock.charge clock Cost.Stub_receive;
      let saved_sp = handle.Proc.sp and saved_fp = handle.Proc.fp in
      handle.Proc.sp <- req.Wire.args_base;
      handle.Proc.fp <- req.Wire.client_fp;
      let finish_frame () =
        (* Step 4: restore the exact frame the client stub built. *)
        Clock.charge clock Cost.Stub_return;
        handle.Proc.sp <- saved_sp;
        handle.Proc.fp <- saved_fp
      in
      let result =
        match sym.Smof.sym_kind with
        | Smof.Bytecode -> (
            let env =
              Interp.make_env ~aspace:handle.Proc.aspace ~clock
                ~syscall:(fun ~nr args -> Machine.syscall t.machine handle nr args)
                ()
            in
            try
              (* The whole module text is addressable so relocated
                 intra-module calls can land on sibling functions. *)
              Ok
                (Interp.run env ~code_base:Layout.module_text_base
                   ~code_len:(Bytes.length entry.Registry.image.Smof.text)
                   ~entry:sym.Smof.sym_offset ~args_base:req.Wire.args_base ())
            with
            | Interp.Fault _ -> Error 1
            | Aspace.Segv _ | Aspace.Prot_violation _ -> Error 1)
        | Smof.Native native_name -> (
            match Registry.native entry native_name with
            | None -> Error 3
            | Some fn -> (
                (* Integrity: the mapped image bytes must still be the
                   registered native stand-in — a client cannot have
                   substituted other code.  Reading them can fault like
                   the call itself, with the same status. *)
                try
                  let intact =
                    Aspace.equal_bytes handle.Proc.aspace
                      ~addr:(Layout.module_text_base + sym.Smof.sym_offset)
                      (Registry.native_image entry ~func_id:req.Wire.func_id)
                  in
                  if not intact then Error 4
                  else Ok (fn t.machine handle ~args_base:req.Wire.args_base)
                with
                | Aspace.Segv _ | Aspace.Prot_violation _ -> Error 1
                | Errno.Error _ -> Error 1))
      in
      finish_frame ();
      match result with
      | Ok retval -> { Wire.status = 0; retval = retval land 0xFFFFFFFF }
      | Error status -> { Wire.status; retval = 0 })

(* How many yield-and-recheck iterations the serve loop burns before
   giving up the CPU for real (the adaptive spin-then-block).  The same
   budget paces the kernel poller's spin/park policy: after this many
   consecutive empty sweeps it sets the rings' need-wakeup flags and
   parks.  Configurable via {!set_spin_budget}; 4 is the historical
   constant every baseline was measured with. *)
let default_spin_budget = 4

let set_spin_budget t n =
  if n < 1 then invalid_arg "Smod.set_spin_budget: budget must be >= 1";
  t.spin_budget <- n

let spin_budget t = t.spin_budget

(* Drain every claimable slot: pull the next admission record from the
   kernel-private shadow (identity + verdict as stamped — whatever the
   client has since scribbled on the ring words), execute, complete in
   place.  One wake of the client's wait queue per drain, however many
   slots it covered — that is the amortization. *)
let drain_ring t session (handle : Proc.t) rs =
  let drained = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Machine.ring_claim_next t.machine ~pid:session.client_pid with
    | Some (seq, m_id, func_id) ->
        let slot = Ring.claim_stamped rs.r_ring ~seq ~m_id ~func_id in
        let req =
          {
            Wire.func_id = slot.Ring.func_id;
            args_base = slot.Ring.args_base;
            client_sp = slot.Ring.client_sp;
            client_fp = slot.Ring.client_fp;
          }
        in
        let reply = execute_function t session handle req in
        Ring.complete rs.r_ring ~seq:slot.Ring.seq ~status:reply.Wire.status
          ~retval:reply.Wire.retval;
        incr drained
    | None -> continue_ := false
  done;
  if !drained > 0 then ignore (Machine.wake t.machine rs.r_client_wq);
  !drained

let ring_work_available t session _rs =
  Machine.ring_claimable t.machine ~pid:session.client_pid

(* The handle's serve loop, shared by cold-fork and pooled handles.
   Starts in plain msgq mode; once the session has a bound ring it
   becomes ring-first: drain, then poll the queue (never blocking in
   msgrcv again — control messages are found via depth), then
   spin-then-block on the handle wait queue.  Returns when a pooled
   detach control message (mtype 2) arrives; cold-fork handles are
   simply killed at detach. *)
let serve_session t session (handle : Proc.t) { req_qid; rep_qid } =
  let clock = Machine.clock t.machine in
  let serve_msgq_request payload =
    let reply =
      match Wire.request_of_bytes_res payload with
      | Ok req -> execute_function t session handle req
      | Error _ -> { Wire.status = 5; retval = 0 }
    in
    Machine.msgsnd t.machine handle ~qid:rep_qid ~mtype:1 (Wire.reply_to_bytes reply)
  in
  let rec serve () =
    match session.ring with
    | None ->
        let mtype, payload = Machine.msgrcv t.machine handle ~qid:req_qid ~mtype:0 in
        if mtype = pool_detach_mtype then ()
        else begin
          if mtype <> ring_doorbell_mtype then serve_msgq_request payload;
          serve ()
        end
    | Some rs ->
        rs.r_handle_engaged <- true;
        ring_serve rs
  and ring_serve rs =
    (* Detach first: once the tenant is gone its address space — and the
       ring that lives in it — may already be torn down, so the handle
       must never touch the ring again. *)
    if session.detached then ()
    else begin
      let drained = drain_ring t session handle rs in
      if Machine.msgq_depth t.machine ~qid:req_qid > 0 then begin
        let mtype, payload = Machine.msgrcv t.machine handle ~qid:req_qid ~mtype:0 in
        if mtype = pool_detach_mtype then ()
        else begin
          if mtype <> ring_doorbell_mtype then serve_msgq_request payload;
          ring_serve rs
        end
      end
      else if drained > 0 then ring_serve rs
      else spin rs t.spin_budget
    end
  and spin rs budget =
    if budget = 0 then begin
      Sched.wait_on rs.r_handle_wq handle.Proc.pid;
      Smod_metrics.Counter.incr m_ring_block_wakeups;
      ring_serve rs
    end
    else begin
      Clock.charge clock Cost.Ring_spin;
      Sched.yield ();
      if
        session.detached
        || ring_work_available t session rs
        || Machine.msgq_depth t.machine ~qid:req_qid > 0
      then begin
        Smod_metrics.Counter.incr m_ring_spin_wakeups;
        ring_serve rs
      end
      else spin rs (budget - 1)
    end
  in
  serve ()

let handle_main t session queues (handle : Proc.t) =
  (* First: move onto the secret stack (Figure 2) — the standard stack
     location is about to be replaced by the client's pages. *)
  handle.Proc.sp <- secret_stack_top - 16;
  handle.Proc.fp <- handle.Proc.sp;
  (* Announce readiness; the kernel force-shares the address spaces. *)
  ignore (Machine.syscall t.machine handle Sysno.smod_session_info [| 0 |]);
  (* Serve until killed. *)
  serve_session t session handle queues

(* ------------------------------------------------------------------ *)
(* Pooled handles (the smodd service layer, lib/pool)                  *)
(* ------------------------------------------------------------------ *)

let scrub_pooled_handle t ph =
  let clock = Machine.clock t.machine in
  (* Drop every mapping the departed tenant's force-share left in the
     handle (releasing the client's frames) and break the pairing. *)
  Aspace.remove_range ph.ph_aspace ~start_addr:Layout.share_lo
    ~size:(Layout.share_hi - Layout.share_lo);
  Aspace.set_peer ph.ph_aspace None;
  (* Zero the secret segment so the next tenant cannot observe the
     previous tenant's secret stack or pid cache. *)
  let zeroed =
    Aspace.zero_materialized ph.ph_aspace ~start_addr:Layout.secret_base
      ~size:(Layout.secret_pages * Layout.page_size)
  in
  (* Reset the module's rw data segment to its freshly-installed image:
     under the paper's cold-fork model every session starts with pristine
     module globals, so a pooled handle must not let one tenant's writes
     (state or data) survive into the next session.  Zero first so the
     page-aligned slack beyond the image is covered too. *)
  let data = (Registry.linked_image ph.ph_entry).Smof.data in
  let data_len = Bytes.length data in
  let data_cleared =
    if data_len = 0 then 0
    else begin
      let cleared =
        Aspace.zero_materialized ph.ph_aspace ~start_addr:Layout.module_data_base
          ~size:(Layout.page_align_up data_len)
      in
      Aspace.write_bytes ph.ph_aspace ~addr:Layout.module_data_base data;
      cleared + data_len
    end
  in
  Clock.charge clock (Cost.Copy_bytes (zeroed + data_cleared));
  Smod_metrics.Counter.incr m_handle_scrubs;
  Smod_metrics.Counter.add m_scrub_bytes (zeroed + data_cleared)

(* The body of a pooled handle: park → recycle for the assigned tenant →
   handshake → serve until the detach control message → scrub → park. *)
let pooled_handle_main t ph (handle : Proc.t) =
  let clock = Machine.clock t.machine in
  let rec loop () =
    (match ph.ph_session with
    | None when not ph.ph_dead ->
        if not ph.ph_reserved then ph.ph_on_park ph;
        while ph.ph_session = None && not ph.ph_dead do
          Effect.perform (Sched.Block (Sched.Pool_park ph.ph_entry.Registry.m_id))
        done
    | Some _ | None -> ());
    if ph.ph_dead then raise (Sched.Proc_exit 0);
    match ph.ph_session with
    | None -> loop ()
    | Some session ->
        (* Recycle for the new tenant: drop any stale messages, return to
           the secret stack, refresh the cached client pid (§4.3). *)
        ignore (Machine.msgq_flush t.machine ~qid:ph.ph_queues.req_qid);
        ignore (Machine.msgq_flush t.machine ~qid:ph.ph_queues.rep_qid);
        handle.Proc.sp <- secret_stack_top - 16;
        handle.Proc.fp <- handle.Proc.sp;
        Aspace.write_word ph.ph_aspace ~addr:client_pid_cache_addr session.client_pid;
        Clock.charge clock Cost.Handle_recycle;
        ignore (Machine.syscall t.machine handle Sysno.smod_session_info [| 0 |]);
        serve_session t session handle ph.ph_queues;
        scrub_pooled_handle t ph;
        ph.ph_session <- None;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* sys_smod_start_session (320)                                        *)
(* ------------------------------------------------------------------ *)

let read_descriptor clock (p : Proc.t) desc_addr =
  let word addr = Aspace.read_word p.Proc.aspace ~addr in
  let name_len = word desc_addr in
  if name_len < 0 || name_len > 256 then Errno.raise_errno Errno.EINVAL "descriptor name";
  let after_name = desc_addr + 4 + name_len in
  let cred_len = word (after_name + 4) in
  if cred_len < 0 || cred_len > 65536 then Errno.raise_errno Errno.EINVAL "descriptor cred";
  let total = 4 + name_len + 8 + cred_len in
  Clock.charge clock (Cost.Copy_bytes total);
  match Wire.descriptor_of_bytes_res (Aspace.read_bytes p.Proc.aspace ~addr:desc_addr ~len:total) with
  | Ok d -> d
  | Error m -> Errno.raise_errno Errno.EINVAL ("smod_start_session: " ^ m)

(* SHA-256 over the credential's canonical byte form, memoised in the
   session: the caches' identity for "same principal presenting the same
   assertions". *)
let session_cred_digest session =
  match session.cred_digest with
  | Some d -> d
  | None ->
      let d =
        Bytes.to_string (Smod_crypto.Sha256.digest (Credential.to_bytes session.credential))
      in
      session.cred_digest <- Some d;
      d

(* ------------------------------------------------------------------ *)
(* Caller provenance                                                   *)
(* ------------------------------------------------------------------ *)

(* Resolved from kernel-held state only: the session table says whether
   the calling process is itself some module's handle (a nested module
   call) and the proc table says which protection ring it runs in.  A
   client cannot influence any of it from user space, which is what makes
   origin predicates trustworthy post-compromise. *)
let origin_of_client t ~client_pid ~transport =
  let o_module =
    match session_of_handle t ~handle_pid:client_pid with
    | Some inner -> inner.entry.Registry.image.Smof.mod_name
    | None -> "user"
  in
  let o_ring =
    match Machine.proc t.machine client_pid with
    | Some p -> p.Proc.ring
    | None -> 3
  in
  { Fuse.o_module; o_ring; o_transport = transport }

(* The same provenance as attribute pairs, appended to every admission
   query so origin predicates resolve identically under the interpreted,
   compiled, and fused engines.  Appending is free (no cost-model charge)
   and invisible to policies that never name an origin attribute. *)
let origin_attr_pairs (origin : Fuse.origin) =
  [
    ("origin_module", origin.Fuse.o_module);
    ("origin_ring", string_of_int origin.Fuse.o_ring);
    ("origin_transport", origin.Fuse.o_transport);
  ]

(* The session's program prepared for [origin]'s transport, or [None]
   when compilation is off.  Steady state is the session's slot (two
   integer and one string compare).  A stale slot charges one
   [Policy_cache_probe] and takes the registry entry's program, the one
   program cache shared across sessions, or compiles, charging the
   one-time flattening and hoisted signature checks.  A transport switch
   re-prepares the slot's program without a probe: [origin_transport]
   differs per admission path and one session can mix paths. *)
let program_of t session ~origin ~attrs =
  if not t.compile_policies then None
  else begin
    let entry = session.entry in
    let rev = entry.Registry.policy_rev in
    let gen = Keystore.generation t.keystore in
    let transport = origin.Fuse.o_transport in
    match session.program with
    | Some (r, g, _, tr, prepared) when r = rev && g = gen && tr = transport -> Some prepared
    | slot ->
        let clock = Machine.clock t.machine in
        let compiled =
          match slot with
          | Some (r, g, compiled, _, _) when r = rev && g = gen -> compiled
          | Some _ | None -> (
              Clock.charge clock Cost.Policy_cache_probe;
              let key =
                Registry.compiled_key ~cred_digest:(session_cred_digest session)
                  ~policy_rev:rev ~keystore_gen:gen
              in
              match Registry.find_compiled entry key with
              | Some c -> c
              | None ->
                  let origin_env =
                    {
                      KCompile.known_modules =
                        List.map
                          (fun e -> e.Registry.image.Smof.mod_name)
                          (Registry.entries t.registry);
                    }
                  in
                  let c =
                    Policy.compile ~fuse:t.fuse_policies ~origin_env ~clock
                      ~keystore:t.keystore ~credential:session.credential entry.Registry.policy
                  in
                  Registry.store_compiled entry key c;
                  c)
        in
        let prepared = Policy.prepare ~clock ~origin ~attrs compiled in
        session.program <- Some (rev, gen, compiled, transport, prepared);
        Some prepared
  end

(* ------------------------------------------------------------------ *)
(* Admission: the one access-control decision per call (§3.1)          *)
(* ------------------------------------------------------------------ *)

(* What one call, ring batch or poller sweep of a session decides
   against: the caller's origin, the batch-invariant attributes, the
   program when fusion fetched it up front, and which shortcuts may
   answer. *)
type admission = {
  a_session : session;
  a_origin : Fuse.origin;
  a_attrs : (string * string) list;  (* phase, module and the origin pairs *)
  a_program : Policy.prepared option;
  a_fast_path : bool;
  a_cacheable : bool;
  a_cache : Policy_cache.t option;
}

(* The program has two fetch points.  With fusion on, admission prepares
   it before any shortcut answers: the batch paths' charge order depends
   on the prefix being charged first, even when a shortcut then answers
   every call.  With fusion off there is no prefix, and the first decision
   no shortcut answers fetches it ([decide]): smodd's decision cache
   answers most of a pooled session's calls without a program, so fetching
   here would add a probe per session and move the session-churn
   workload's latencies. *)
let admission t session ~transport =
  let policy = session.entry.Registry.policy in
  let origin = origin_of_client t ~client_pid:session.client_pid ~transport in
  let attrs =
    ("phase", "call")
    :: ("module", session.entry.Registry.image.Smof.mod_name)
    :: origin_attr_pairs origin
  in
  let program = if t.fuse_policies then program_of t session ~origin ~attrs else None in
  (* A decision is reusable — by smodd's cache, the batch memo and the
     vector pre-pass's function dedupe — only when it is a pure function
     of (credential, origin, module, function, policy revision): neither
     the policy nor the credential may read a per-call attribute. *)
  let cacheable = Policy.cacheable policy && Policy.credential_cacheable session.credential in
  {
    a_session = session;
    a_origin = origin;
    a_attrs = attrs;
    a_program = program;
    (* The §5 future-work fast path skips the re-verification only when
       the policy is stateless-permissive: its answer cannot change after
       session establishment. *)
    a_fast_path =
      (t.fast_path
      &&
      match policy with
      | Policy.Always_allow | Policy.Session_lifetime -> true
      | Policy.Call_quota _ | Policy.Rate_limit _ | Policy.Time_window _ | Policy.Keynote _
      | Policy.All_of _ ->
          false);
    a_cacheable = cacheable;
    a_cache = (if cacheable then t.policy_cache else None);
  }

let call_attrs a ~func_name =
  ("function", func_name) :: ("calls_so_far", string_of_int a.a_session.calls) :: a.a_attrs

(* The EACCES text for a denial, formatted only where a denied call or
   session establishment raises it: the ring paths record a denied slot's
   status and never format one. *)
let denial_message (d : Policy.denial) =
  Printf.sprintf "policy %s: %s" (Policy.describe d.Policy.policy) d.Policy.reason

(* One call's verdict: the stateless fast path, then smodd's decision
   cache, then the session's program or the interpreted policy, whose
   verdict goes back into the cache.  Every input of a cacheable decision
   is in the cache's key (credential, origin, module, function), recorded
   in its entry (policy revision, keystore generation) or dropped with the
   programs ([drop_programs_and_decisions]: engine switches, the module
   set). *)
let decide t a ~func_name =
  let session = a.a_session in
  let shortcut =
    if a.a_fast_path then Some Policy_cache.Allow
    else
      match a.a_cache with
      | Some cache ->
          Policy_cache.lookup cache ~cred_digest:(session_cred_digest session)
            ~origin:a.a_origin ~func_name ~m_id:session.m_id
            ~policy_rev:session.entry.Registry.policy_rev
            ~keystore_gen:(Keystore.generation t.keystore)
      | None -> None
  in
  match shortcut with
  | Some d -> d
  | None ->
      let clock = Machine.clock t.machine in
      let credential = session.credential and state = session.policy_state in
      let attrs = call_attrs a ~func_name in
      let program =
        match a.a_program with
        | Some _ as p -> p
        | None -> program_of t session ~origin:a.a_origin ~attrs:a.a_attrs
      in
      let verdict =
        match program with
        | Some program ->
            (* The credential chain was verified when the program was
               compiled and any invariant prefix was charged when it was
               prepared, so this call pays no Cred_check and only the
               opcodes left to run. *)
            Policy.check_compiled ~clock ~now_us:(Clock.now_us clock) ~credential
              ~origin:a.a_origin ~attrs program state
        | None ->
            (* Per-call revalidation: the kernel "will then verify that p
               did provide the proper credentials" (§3.1). *)
            Clock.charge clock Cost.Cred_check;
            Policy.check ~clock ~now_us:(Clock.now_us clock) ~credential ~attrs
              session.entry.Registry.policy state
      in
      let d =
        match verdict with
        | Ok () -> Policy_cache.Allow
        | Error denial -> Policy_cache.Deny denial
      in
      (match a.a_cache with
      | Some cache ->
          Policy_cache.store cache ~cred_digest:(session_cred_digest session)
            ~origin:a.a_origin ~func_name ~m_id:session.m_id
            ~policy_rev:session.entry.Registry.policy_rev
            ~keystore_gen:(Keystore.generation t.keystore) d
      | None -> ());
      d

(* ------------------------------------------------------------------ *)
(* Handle acquisition: cold fork, pooled attach, mux attach            *)
(* ------------------------------------------------------------------ *)

(* The handle context every acquire path builds: a private address space
   holding the module image and the secret stack/heap segment (never
   shared, never client-visible), with the client's pid cached at the
   segment's base once a client is known (§4.3).  Every install pays the
   kernel's decryption with the kernel-held key (§4.1) and a copy of the
   text, but the host decrypts, verifies and links once per seal, or
   once per registry entry that has none: each handle's text pages map
   that one linked text's chunks, as UVM maps one copy of an image's
   text into every process running it, and a kernel write to one
   handle's text copies only the chunk it touches.  The data segment is
   copied, since handles write it. *)
let handle_context t ~name ?client_pid entry =
  let clock = Machine.clock t.machine in
  let handle_aspace = Aspace.create ~phys:(Machine.phys t.machine) ~clock ~name in
  let image = entry.Registry.image in
  (* Decryption and relocation keep the text's length. *)
  let text_len = Bytes.length image.Smof.text in
  if image.Smof.encrypted then begin
    Clock.charge clock Cost.Aes_key_schedule;
    Clock.charge_n clock Cost.Aes_block ((text_len + 15) / 16)
  end;
  let linked = Registry.linked_image entry in
  let text_base = Layout.module_text_base and data_base = Layout.module_data_base in
  let text_size = Layout.page_align_up (max 1 text_len) in
  Aspace.add_entry handle_aspace ~start_addr:text_base ~size:text_size ~prot:Prot.rw
    ~kind:Aspace.Text ~name:("module:" ^ image.Smof.mod_name);
  Aspace.map_image handle_aspace ~addr:text_base (Registry.linked_text entry);
  Clock.charge clock (Cost.Copy_bytes text_len);
  Aspace.protect_range handle_aspace ~start_addr:text_base ~size:text_size ~prot:Prot.rx;
  if Bytes.length linked.Smof.data > 0 then begin
    let data_size = Layout.page_align_up (Bytes.length linked.Smof.data) in
    Aspace.add_entry handle_aspace ~start_addr:data_base ~size:data_size ~prot:Prot.rw
      ~kind:Aspace.Data ~name:("module-data:" ^ image.Smof.mod_name);
    Aspace.write_bytes handle_aspace ~addr:data_base linked.Smof.data;
    Clock.charge clock (Cost.Copy_bytes (Bytes.length linked.Smof.data))
  end;
  Aspace.add_entry handle_aspace ~start_addr:Layout.secret_base
    ~size:(Layout.secret_pages * Layout.page_size)
    ~prot:Prot.rw ~kind:Aspace.Secret ~name:"secret";
  Option.iter
    (fun pid -> Aspace.write_word handle_aspace ~addr:client_pid_cache_addr pid)
    client_pid;
  handle_aspace

(* §3.1: handle processes never dump core and can never be traced.  They
   are "periphery code" in the 80386 ring model the paper opens with
   (§2): ring 1, more privileged than any user process. *)
let harden_handle (h : Proc.t) =
  h.Proc.no_core_dump <- true;
  h.Proc.no_ptrace <- true;
  h.Proc.ring <- 1

(* A session of [client_pid] on [entry], not yet established. *)
let new_session ~sid ~entry ~client_pid ~credential ~handle_pid kind =
  {
    sid;
    m_id = entry.Registry.m_id;
    entry;
    client_pid;
    handle_pid;
    credential;
    policy_state = Policy.initial_state entry.Registry.policy;
    kind;
    established = false;
    detached = false;
    calls = 0;
    denied_calls = 0;
    faulted_calls = 0;
    handle_exec_us = 0.0;
    client_waiting_handshake = false;
    ring = None;
    cred_digest = None;
    program = None;
    client_exit_hook = None;
  }

(* Every acquire path ends here: refuse a second session for the client,
   number the new one and let [acquire] build it on its handle, charging
   exactly what that path charges; then index it, pair the roles, tie it
   to the client's lifetime and report it. *)
let register_session t (p : Proc.t) ~acquire =
  if Hashtbl.mem t.sessions_by_client p.Proc.pid then
    Errno.raise_errno Errno.EEXIST "smod_start_session: client already has a session";
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let session = acquire sid in
  p.Proc.role <- Proc.Smod_client { handle_pid = session.handle_pid };
  Hashtbl.replace t.sessions_by_client p.Proc.pid session;
  t.sessions_by_sid <- None;
  (match session.kind with
  | Forked _ | Pooled _ ->
      (Machine.proc_exn t.machine session.handle_pid).Proc.role <-
        Proc.Smod_handle { client_pid = p.Proc.pid };
      Hashtbl.replace t.sessions_by_handle session.handle_pid session
  | Mux _ ->
      (* Thousands of fibers share the mux pid, so the by-handle index (a
         1:1 map) stays out of it; the mux installs each fiber's role as
         it runs it. *)
      ());
  detach_on_client_exit t p session;
  Trace.emit (Machine.trace t.machine) ~clock:(Machine.clock t.machine) ~actor:"kernel"
    (Machine.Start_session
       {
         sid;
         module_name = session.entry.Registry.image.Smof.mod_name;
         client = p.Proc.pid;
         handle = session.handle_pid;
       });
  Smod_metrics.Counter.incr m_sessions_started;
  sid

(* Spawn a reusable handle for [entry], owned by the smodd service layer.
   Everything a cold fork would build per session — address space, module
   image (decrypted once), secret segment, queue pair, the fork itself —
   is paid here, off the client's start_session path. *)
let spawn_pooled_handle t ~entry ~on_park ~on_death =
  let clock = Machine.clock t.machine in
  let serial = t.next_pool_serial in
  t.next_pool_serial <- t.next_pool_serial + 1;
  let mod_name = entry.Registry.image.Smof.mod_name in
  let handle_aspace =
    handle_context t ~name:(Printf.sprintf "pool-handle-%s-%d" mod_name serial) entry
  in
  Clock.charge clock Cost.Fork_base;
  (* The body needs the pooled_handle record, which needs the pid: tie the
     knot through a ref — the body cannot run before spawn returns. *)
  let ph_ref = ref None in
  let handle =
    Machine.spawn t.machine ~daemon:true ~aspace:handle_aspace
      ~name:(Printf.sprintf "smod-pool-%s-%d" mod_name serial)
      (fun h -> pooled_handle_main t (Option.get !ph_ref) h)
  in
  handle.Proc.role <- Proc.Smod_handle { client_pid = 0 };
  harden_handle handle;
  let req_qid = Machine.msgget t.machine handle ~key:(0x5D0D0000 lor (serial * 2)) in
  let rep_qid = Machine.msgget t.machine handle ~key:(0x5D0D0000 lor ((serial * 2) + 1)) in
  let ph =
    {
      ph_entry = entry;
      ph_pid = handle.Proc.pid;
      ph_queues = { req_qid; rep_qid };
      ph_aspace = handle_aspace;
      ph_session = None;
      ph_dead = false;
      ph_reserved = false;
      ph_tenants = 0;
      ph_on_park = on_park;
      ph_on_death = on_death;
    }
  in
  ph_ref := Some ph;
  Proc.add_exit_hook handle (fun h ->
      ph.ph_dead <- true;
      detach_served t h;
      ph.ph_session <- None;
      (try Machine.msgctl_remove t.machine h ~qid:req_qid with Errno.Error _ -> ());
      (try Machine.msgctl_remove t.machine h ~qid:rep_qid with Errno.Error _ -> ());
      ph.ph_on_death ph);
  Trace.emit (Machine.trace t.machine) ~clock ~actor:"smodd"
    (Machine.Pooled_spawn { pid = handle.Proc.pid; module_name = mod_name });
  ph

let pooled_handle_pid ph = ph.ph_pid
let pooled_handle_entry ph = ph.ph_entry
let pooled_handle_busy ph = ph.ph_session <> None
let pooled_handle_dead ph = ph.ph_dead
let pooled_handle_tenants ph = ph.ph_tenants
let pooled_handle_aspace ph = ph.ph_aspace
let reserve_pooled_handle ph = ph.ph_reserved <- true
let unreserve_pooled_handle ph = ph.ph_reserved <- false

let retire_pooled_handle t ph =
  if not ph.ph_dead then begin
    ph.ph_dead <- true;
    Trace.emit (Machine.trace t.machine) ~clock:(Machine.clock t.machine) ~actor:"smodd"
      (Machine.Pooled_retire
         { pid = ph.ph_pid; module_name = ph.ph_entry.Registry.image.Smof.mod_name });
    match Machine.proc t.machine ph.ph_pid with
    | Some h when not (Proc.is_zombie h) -> (
        try Machine.kill t.machine ~pid:ph.ph_pid ~signal:Signal.sigkill
        with Errno.Error _ -> ())
    | Some _ | None -> ()
  end

(* Attach a new client session to a parked (or freshly spawned) pooled
   handle: the cheap path that replaces the cold fork. *)
let attach_pooled t (p : Proc.t) ph ~credential =
  if ph.ph_dead then invalid_arg "attach_pooled: handle is dead";
  if ph.ph_session <> None then invalid_arg "attach_pooled: handle is busy";
  register_session t p ~acquire:(fun sid ->
      let session =
        new_session ~sid ~entry:ph.ph_entry ~client_pid:p.Proc.pid ~credential
          ~handle_pid:ph.ph_pid (Pooled ph)
      in
      ph.ph_session <- Some session;
      ph.ph_reserved <- false;
      ph.ph_tenants <- ph.ph_tenants + 1;
      Clock.charge (Machine.clock t.machine) Cost.Pool_admission;
      (* A parked handle is blocked on Pool_park; a fresh spawn is already
         ready and this is a no-op. *)
      Machine.wakeup t.machine ph.ph_pid;
      session)

let set_session_broker t broker = t.broker <- broker
let set_policy_cache t cache = t.policy_cache <- cache
let add_module_remove_hook t hook = t.remove_hooks <- hook :: t.remove_hooks

let remove_module_remove_hook t hook =
  t.remove_hooks <- List.filter (fun h -> h != hook) t.remove_hooks

(* The paper's model (§4, step 2): forcibly fork a handle for this
   session alone, paired with its client by a fresh queue pair. *)
let cold_start_session t (p : Proc.t) entry credential =
  register_session t p ~acquire:(fun sid ->
      let handle_aspace =
        handle_context t ~name:(Printf.sprintf "handle-of-%d" p.Proc.pid) ~client_pid:p.Proc.pid
          entry
      in
      let req_qid = Machine.msgget t.machine p ~key:(0x5E550000 lor (sid * 2)) in
      let rep_qid = Machine.msgget t.machine p ~key:(0x5E550000 lor ((sid * 2) + 1)) in
      let queues = { req_qid; rep_qid } in
      let session =
        new_session ~sid ~entry ~client_pid:p.Proc.pid ~credential ~handle_pid:0 (Forked queues)
      in
      let handle =
        Machine.forced_fork t.machine p
          ~name:(Printf.sprintf "smod-handle-%d" sid)
          ~daemon:true
          ~role:(Proc.Smod_handle { client_pid = p.Proc.pid })
          ~aspace:handle_aspace
          ~body:(fun handle -> handle_main t session queues handle)
      in
      harden_handle handle;
      session.handle_pid <- handle.Proc.pid;
      Proc.add_exit_hook handle (detach_served t);
      session)

(* ------------------------------------------------------------------ *)
(* Effects-based handle multiplexer (E22)                              *)
(* ------------------------------------------------------------------ *)

let mux_finish_fiber t mx session ms =
  match ms.ms_fiber with
  | Fiber_done -> ()
  | Fiber_fresh | Fiber_running | Fiber_suspended _ ->
      ms.ms_fiber <- Fiber_done;
      Hashtbl.remove mx.mx_sessions session.sid;
      mx.mx_live <- mx.mx_live - 1;
      Aspace.destroy ms.ms_aspace;
      Trace.emit (Machine.trace t.machine) ~clock:(Machine.clock t.machine) ~actor:"smod-mux"
        (Machine.Fiber_done { sid = session.sid; live = mx.mx_live })

(* One session's serve loop as a fiber: drain the ring, suspend when it
   runs dry, finish when the session detaches.  Mirrors the ring half of
   [serve_session] minus the msgq legs — mux sessions are ring-only. *)
let mux_fiber_body t (mp : Proc.t) session =
  let rec serve () =
    if session.detached then ()
    else
      match session.ring with
      | None ->
          (* No ring bound yet (client still setting up): sleep until the
             stamp path notifies us. *)
          Effect.perform Mux_suspend;
          serve ()
      | Some rs ->
          rs.r_handle_engaged <- true;
          let drained =
            try drain_ring t session mp rs
            with Aspace.Segv _ | Aspace.Prot_violation _ -> 0
          in
          if drained = 0 then Effect.perform Mux_suspend;
          serve ()
  in
  serve ()

(* Run [resume] under the session's handle context: install its address
   space, secret stack and role on the mux proc, run until the fiber
   suspends or finishes, then put the mux baseline back.  A fiber that
   blocks in the scheduler mid-call (an unhandled [Sched.Block]) suspends
   the whole mux proc with the session context installed — exactly what a
   dedicated handle process would do. *)
let mux_run_fiber (mp : Proc.t) session ms resume =
  let saved_aspace = mp.Proc.aspace
  and saved_sp = mp.Proc.sp
  and saved_fp = mp.Proc.fp
  and saved_role = mp.Proc.role in
  mp.Proc.aspace <- ms.ms_aspace;
  mp.Proc.sp <- ms.ms_sp;
  mp.Proc.fp <- ms.ms_fp;
  mp.Proc.role <- Proc.Smod_handle { client_pid = session.client_pid };
  resume ();
  ms.ms_sp <- mp.Proc.sp;
  ms.ms_fp <- mp.Proc.fp;
  mp.Proc.aspace <- saved_aspace;
  mp.Proc.sp <- saved_sp;
  mp.Proc.fp <- saved_fp;
  mp.Proc.role <- saved_role

let mux_start_fiber t mx (mp : Proc.t) session ms =
  mux_run_fiber mp session ms (fun () ->
      Effect.Deep.match_with
        (fun () -> mux_fiber_body t mp session)
        ()
        {
          Effect.Deep.retc = (fun () -> mux_finish_fiber t mx session ms);
          exnc =
            (fun e ->
              mux_finish_fiber t mx session ms;
              raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Mux_suspend ->
                  Some
                    (fun (k : (a, _) Effect.Deep.continuation) ->
                      ms.ms_fiber <- Fiber_suspended k)
              | _ -> None);
        })

let mux_main t mx (mp : Proc.t) =
  let rec loop () =
    while not (Queue.is_empty mx.mx_ready) do
      let sid = Queue.pop mx.mx_ready in
      match Hashtbl.find_opt mx.mx_sessions sid with
      | None -> ()
      | Some (session, ms) -> (
          ms.ms_queued <- false;
          match ms.ms_fiber with
          | Fiber_fresh ->
              ms.ms_fiber <- Fiber_running;
              mux_start_fiber t mx mp session ms
          | Fiber_suspended k ->
              ms.ms_fiber <- Fiber_running;
              mux_run_fiber mp session ms (fun () -> Effect.Deep.continue k ())
          | Fiber_running | Fiber_done -> ())
    done;
    Sched.wait_on mx.mx_wq mp.Proc.pid;
    loop ()
  in
  loop ()

let set_session_mux t enable =
  if enable then begin
    (match t.mux with
    | Some _ -> ()
    | None ->
        let mx =
          {
            mx_pid = 0;
            mx_wq = Sched.waitq "smod-mux";
            mx_ready = Queue.create ();
            mx_sessions = Hashtbl.create 64;
            mx_live = 0;
            mx_peak = 0;
            mx_attached = 0;
          }
        in
        t.mux <- Some mx;
        let mp = Machine.spawn t.machine ~daemon:true ~name:"smod-mux" (fun mp -> mux_main t mx mp) in
        harden_handle mp;
        mx.mx_pid <- mp.Proc.pid;
        (* Later sessions route as if the mux were off until it is enabled
           again; the fibers of a dead daemon will never run again. *)
        Proc.add_exit_hook mp (fun _ ->
            t.mux <- None;
            detach_served t mp;
            Hashtbl.fold (fun _ fiber acc -> fiber :: acc) mx.mx_sessions []
            |> List.iter (fun (session, ms) -> mux_finish_fiber t mx session ms)));
    t.mux_enabled <- true
  end
  else t.mux_enabled <- false

let session_mux_enabled t = t.mux_enabled && t.mux <> None

(* Attach a client as a mux fiber: per-session handle context (module
   image, secret segment, pid cache) but no process, no queue pair, no
   handshake trap — the kernel force-shares at attach time and the
   session is established immediately.  Ring-only by construction. *)
let mux_attach t (p : Proc.t) entry credential =
  let mx =
    match t.mux with
    | Some mx when t.mux_enabled -> mx
    | Some _ | None -> invalid_arg "Smod.mux_attach: multiplexer not enabled"
  in
  register_session t p ~acquire:(fun sid ->
      let ms_aspace =
        handle_context t ~name:(Printf.sprintf "mux-handle-%d" sid) ~client_pid:p.Proc.pid entry
      in
      let ms =
        {
          ms_aspace;
          ms_sp = secret_stack_top - 16;
          ms_fp = secret_stack_top - 16;
          ms_fiber = Fiber_fresh;
          ms_queued = false;
        }
      in
      let session =
        new_session ~sid ~entry ~client_pid:p.Proc.pid ~credential ~handle_pid:mx.mx_pid
          (Mux ms)
      in
      (* The handshake happens inline: there is one mux proc for all
         fibers, so the per-session force-share cannot wait for a
         handle-side session_info trap. *)
      Aspace.force_share ~client:p.Proc.aspace ~handle:ms_aspace ~lo:Layout.share_lo
        ~hi:Layout.share_hi;
      session.established <- true;
      Hashtbl.replace mx.mx_sessions sid (session, ms);
      mx.mx_live <- mx.mx_live + 1;
      mx.mx_attached <- mx.mx_attached + 1;
      if mx.mx_live > mx.mx_peak then mx.mx_peak <- mx.mx_live;
      Clock.charge (Machine.clock t.machine) Cost.Pool_admission;
      Smod_metrics.Counter.incr m_mux_attached;
      session)

type mux_status = {
  mxs_live : int;
  mxs_peak : int;
  mxs_attached : int;
  mxs_suspended : int;
}

let mux_status t =
  Option.map
    (fun mx ->
      let suspended =
        Hashtbl.fold
          (fun _ (_, ms) acc ->
            match ms.ms_fiber with Fiber_suspended _ -> acc + 1 | _ -> acc)
          mx.mx_sessions 0
      in
      {
        mxs_live = mx.mx_live;
        mxs_peak = mx.mx_peak;
        mxs_attached = mx.mx_attached;
        mxs_suspended = suspended;
      })
    t.mux

(* The cluster control plane (lib/cluster) hooks admission here: the gate
   runs before any credential or session state is consulted, so a dispatch
   can never race past a pending coherence sync and evaluate under a
   revoked keystore generation or stale policy revision. *)
let run_dispatch_gate t = match t.dispatch_gate with Some gate -> gate () | None -> ()

let sys_start_session t (p : Proc.t) ~desc_addr =
  run_dispatch_gate t;
  let clock = Machine.clock t.machine in
  if Hashtbl.mem t.sessions_by_client p.Proc.pid then
    Errno.raise_errno Errno.EEXIST "smod_start_session: client already has a session";
  let desc = read_descriptor clock p desc_addr in
  let entry =
    match
      Registry.find t.registry ~name:desc.Wire.module_name ~version:desc.Wire.module_version
    with
    | Some e -> e
    | None ->
        Errno.raise_errno Errno.ENOENT
          (Printf.sprintf "module %s v%d" desc.Wire.module_name desc.Wire.module_version)
  in
  Clock.charge clock Cost.Registry_lookup;
  let credential =
    match Credential.of_bytes desc.Wire.credential with
    | c -> c
    | exception Credential.Malformed m -> Errno.raise_errno Errno.EINVAL ("credential: " ^ m)
  in
  Clock.charge clock Cost.Cred_check;
  if not (Credential.verify_signatures t.keystore credential) then
    Errno.raise_errno Errno.EACCES "credential signature verification failed";
  (* Establishment-time policy check, always interpreted as in the paper
     (throwaway state: establishing a session must not consume per-call
     quota). *)
  (match
     Policy.check ~clock ~now_us:(Clock.now_us clock) ~credential
       ~attrs:
         ([
            ("phase", "session");
            ("module", entry.Registry.image.Smof.mod_name);
            ("principal", credential.Credential.principal);
          ]
         @ origin_attr_pairs (origin_of_client t ~client_pid:p.Proc.pid ~transport:"attach"))
       entry.Registry.policy
       (Policy.initial_state entry.Registry.policy)
   with
  | Ok () -> ()
  | Error denial -> Errno.raise_errno Errno.EACCES (denial_message denial));
  (* A module text that fails decryption or its digest check fails every
     path closed, before any handle state exists. *)
  (match Registry.linked_image entry with
  | _ -> ()
  | exception Smof.Malformed m -> Errno.raise_errno Errno.ENOEXEC ("smod_start_session: " ^ m));
  (* §4.1 approach 2: if the client had a plain image of this library
     mapped, forcibly unmap it and deny later re-mapping. *)
  List.iter
    (fun (e : Aspace.entry) ->
      if e.Aspace.name = "lib:" ^ entry.Registry.image.Smof.mod_name then
        Aspace.remove_range p.Proc.aspace ~start_addr:e.Aspace.start_addr
          ~size:(e.Aspace.end_addr - e.Aspace.start_addr))
    (Aspace.entries p.Proc.aspace);
  (* Routing: the effects multiplexer (when enabled) takes every new
     session as a fiber; else with smodd installed the broker multiplexes
     this client onto the pool; otherwise (or if it declines) fork a
     fresh handle per session, the paper's own model. *)
  if session_mux_enabled t then mux_attach t p entry credential
  else
    match Option.bind t.broker (fun broker -> broker p entry credential) with
    | Some sid -> sid
    | None -> cold_start_session t p entry credential

(* ------------------------------------------------------------------ *)
(* sys_smod_session_info (303) — handle side                           *)
(* ------------------------------------------------------------------ *)

let sys_session_info t (p : Proc.t) =
  let session =
    match session_of_handle t ~handle_pid:p.Proc.pid with
    | Some s -> s
    | None -> Errno.raise_errno Errno.EPERM "smod_session_info: caller is not a handle"
  in
  let client = Machine.proc_exn t.machine session.client_pid in
  (* Forcibly unmap the handle's data/heap/stack and share the client's
     pages over the same range (uvmspace_force_share). *)
  Aspace.force_share ~client:client.Proc.aspace ~handle:p.Proc.aspace ~lo:Layout.share_lo
    ~hi:Layout.share_hi;
  session.established <- true;
  Trace.emit (Machine.trace t.machine) ~clock:(Machine.clock t.machine) ~actor:p.Proc.name
    (Machine.Session_info { client = session.client_pid; handle = session.handle_pid });
  if session.client_waiting_handshake then begin
    session.client_waiting_handshake <- false;
    Machine.wakeup t.machine session.client_pid
  end

(* ------------------------------------------------------------------ *)
(* sys_smod_handle_info (304) — client side                            *)
(* ------------------------------------------------------------------ *)

let sys_handle_info t (p : Proc.t) ~info_addr =
  let session =
    match session_of_client t ~client_pid:p.Proc.pid with
    | Some s -> s
    | None -> Errno.raise_errno Errno.EPERM "smod_handle_info: no session"
  in
  while not (session.established || session.detached) do
    session.client_waiting_handshake <- true;
    Effect.perform (Sched.Block (Sched.Custom "smod-handshake"))
  done;
  if session.detached then Errno.raise_errno Errno.EIDRM "smod_handle_info: session detached";
  (* A mux fiber has no queue pair; qid 0 names no queue. *)
  let q = Option.value (queues session) ~default:{ req_qid = 0; rep_qid = 0 } in
  let info =
    {
      Wire.m_id = session.m_id;
      handle_pid = session.handle_pid;
      req_qid = q.req_qid;
      rep_qid = q.rep_qid;
    }
  in
  Clock.charge (Machine.clock t.machine) (Cost.Copy_bytes Wire.handle_info_size);
  Aspace.write_bytes p.Proc.aspace ~addr:info_addr (Wire.handle_info_to_bytes info)

(* ------------------------------------------------------------------ *)
(* sys_smod_call (307) — the indirect dispatch (Figure 3)              *)
(* ------------------------------------------------------------------ *)

(* The prologue every session trap opens with, each failure naming the
   trap: the caller has a session, and it is established. *)
let trap_session t (p : Proc.t) ~trap =
  match session_of_client t ~client_pid:p.Proc.pid with
  | None -> Errno.raise_errno Errno.EPERM (trap ^ ": no session")
  | Some s when s.detached || not s.established ->
      Errno.raise_errno Errno.EINVAL (trap ^ ": session not established")
  | Some s -> s

(* A dispatching trap then checks that the session's handle is alive — a
   dead one detaches the session — and that the call names its module. *)
let check_handle t session ~trap ~m_id =
  if not (handle_alive t session) then begin
    detach_session t session;
    Errno.raise_errno Errno.EIDRM (trap ^ ": handle process is gone")
  end;
  if session.m_id <> m_id then Errno.raise_errno Errno.EINVAL (trap ^ ": wrong module id")

type saved_prot = { entry_start : int; entry_size : int; old_prot : Prot.t }

let apply_call_mitigation t (client : Proc.t) =
  match t.toctou with
  | No_mitigation -> `None
  | Dequeue_client_threads ->
      `Dequeued (Machine.suspend_address_space t.machine client.Proc.aspace ~except:client.Proc.pid)
  | Unmap_during_call ->
      (* Revoke the client's own access to its data/heap/stack for the
         duration of the call; the handle's mappings are unaffected. *)
      let saved =
        List.filter_map
          (fun (e : Aspace.entry) ->
            match e.Aspace.kind with
            | Aspace.Data | Aspace.Heap | Aspace.Stack ->
                let s =
                  {
                    entry_start = e.Aspace.start_addr;
                    entry_size = e.Aspace.end_addr - e.Aspace.start_addr;
                    old_prot = e.Aspace.prot;
                  }
                in
                Aspace.protect_range client.Proc.aspace ~start_addr:s.entry_start
                  ~size:s.entry_size ~prot:Prot.none;
                Some s
            | Aspace.Text | Aspace.Secret | Aspace.Mmap -> None)
          (Aspace.entries client.Proc.aspace)
      in
      `Protected saved

let undo_call_mitigation t (client : Proc.t) = function
  | `None -> ()
  | `Dequeued pids -> Machine.resume_pids t.machine pids
  | `Protected saved ->
      List.iter
        (fun s ->
          Aspace.protect_range client.Proc.aspace ~start_addr:s.entry_start ~size:s.entry_size
            ~prot:s.old_prot)
        saved

let sys_call t (p : Proc.t) ~framep ~rtnaddr ~m_id ~func_id =
  run_dispatch_gate t;
  let clock = Machine.clock t.machine in
  let t0_us = Clock.now_us clock in
  let session = trap_session t p ~trap:"smod_call" in
  (* Mux fibers have no queue pair; the scalar path would hang. *)
  let q =
    match queues session with
    | Some q -> q
    | None -> Errno.raise_errno Errno.EPERM "smod_call: mux sessions are ring-only"
  in
  check_handle t session ~trap:"smod_call" ~m_id;
  let func_name =
    match Registry.symbol_of_func_id session.entry func_id with
    | Some sym -> sym.Smof.sym_name
    | None -> Errno.raise_errno Errno.EINVAL "smod_call: bad funcID"
  in
  let mod_name = session.entry.Registry.image.Smof.mod_name in
  (match decide t (admission t session ~transport:"msgq") ~func_name with
  | Policy_cache.Allow -> ()
  | Policy_cache.Deny denial ->
      session.denied_calls <- session.denied_calls + 1;
      Smod_metrics.Counter.incr m_calls_denied;
      count_func ~denied:true ~mod_name ~func_name;
      Errno.raise_errno Errno.EACCES (denial_message denial));
  session.calls <- session.calls + 1;
  Smod_metrics.Counter.incr m_calls;
  count_func ~denied:false ~mod_name ~func_name;
  let mitigation = apply_call_mitigation t p in
  let request =
    {
      Wire.func_id;
      (* Figure 3: the kernel technically only needs client_FP_1; arg1
         sits two words above the saved frame pointer. *)
      args_base = framep + 8;
      client_sp = p.Proc.sp;
      client_fp = framep;
    }
  in
  ignore rtnaddr;
  Machine.msgsnd t.machine p ~qid:q.req_qid ~mtype:1 (Wire.request_to_bytes request);
  (* Mixed-mode: a ring-engaged handle never blocks in msgrcv — it finds
     queued requests by depth from its serve loop — so kick its waitq. *)
  (match session.ring with
  | Some rs -> ignore (Machine.wake t.machine rs.r_handle_wq)
  | None -> ());
  let _, payload = Machine.msgrcv t.machine p ~qid:q.rep_qid ~mtype:1 in
  undo_call_mitigation t p mitigation;
  Smod_metrics.Histogram.observe m_call_us (Clock.now_us clock -. t0_us);
  let reply = Wire.reply_of_bytes payload in
  match reply.Wire.status with
  | 0 -> reply.Wire.retval
  | 1 -> Errno.raise_errno Errno.EFAULT "smod_call: module function faulted"
  | 2 -> Errno.raise_errno Errno.EINVAL "smod_call: no such function"
  | 3 -> Errno.raise_errno Errno.ENOSYS "smod_call: native body not bound"
  | 4 -> Errno.raise_errno Errno.EACCES "smod_call: module text integrity check failed"
  | s -> Errno.raise_errno Errno.EINVAL (Printf.sprintf "smod_call: bad status %d" s)

(* ------------------------------------------------------------------ *)
(* sys_smod_call_batch (322) — the dispatch-ring fast path             *)
(* ------------------------------------------------------------------ *)

(* Bind the session to its client's registered ring, once: on the first
   batch trap or doorbell after syscall 321, or the first poller sweep
   that finds it.  The kernel attaches its own view over the client's
   pages — the client is looked up from the session, never trusted from
   a trap frame — with the geometry pinned at setup: a header nslots word
   rewritten since then is tampering, not a bigger ring, and
   [Ring.of_registration] rejects the mismatch.  The two wait queues are
   created here and live for the session.  [sender] is the process
   context for the doorbell below. *)
let bind_ring t (sender : Proc.t) session =
  match session.ring with
  | Some rs -> Ok rs
  | None -> (
      match
        ( Machine.ring_registration t.machine ~pid:session.client_pid,
          Machine.proc t.machine session.client_pid )
      with
      | None, _ | _, None -> Error `Unregistered
      | Some (base, nslots), Some client -> (
          match Ring.of_registration client.Proc.aspace ~base ~nslots with
          | None -> Error `Corrupt
          | Some ring ->
              let rs =
                {
                  r_ring = ring;
                  r_client_wq = Sched.waitq (Printf.sprintf "ring-client-%d" session.sid);
                  r_handle_wq = Sched.waitq (Printf.sprintf "ring-handle-%d" session.sid);
                  r_handle_engaged = false;
                }
              in
              session.ring <- Some rs;
              (* A process-backed handle may still be parked in a legacy
                 blocking msgrcv from before the ring existed; a zero-byte
                 doorbell bounces it into the ring-aware serve loop. *)
              Option.iter
                (fun q ->
                  try
                    Machine.msgsnd t.machine sender ~qid:q.req_qid ~mtype:ring_doorbell_mtype
                      (Bytes.create 0)
                  with Errno.Error _ -> ())
                (queues session);
              Ok rs))

(* A trap that finds no ring to bind fails with EINVAL. *)
let trap_ring t (p : Proc.t) session ~trap =
  match bind_ring t p session with
  | Ok rs -> rs
  | Error `Unregistered -> Errno.raise_errno Errno.EINVAL (trap ^ ": no ring registered")
  | Error `Corrupt -> Errno.raise_errno Errno.EINVAL (trap ^ ": ring header corrupt")

(* E25 batch-major pass: when vectorization is on and the session's
   prepared program is vector-eligible, the batch's verdicts are computed
   lane-major before the stamp loop runs — one lane per slot, from the
   kernel's own read of each submitted slot, one vector pass per residue
   opcode.  Returns [(seq, func_id, verdict)] per lane, or [] (the
   slot-major decider runs as usual) when the batch cannot benefit or
   cannot be proven equivalent:

   - fewer than two evaluable lanes (honest scalar fallback at N=1);
   - the stateless fast path or the smodd decision cache already reduces
     the batch to cheaper-than-vector work;
   - the program is not {!Policy.vector_eligible} (no planned arm,
     volatile residue reads, clock-dependent arms, unplanned arms);
   - a cacheable admission's batch has fewer than two distinct functions —
     the decider's memo already evaluates once per function, so
     vectorizing a single-function batch would be a regression.

   A cacheable admission takes one lane per distinct function, at the
   function's first slot: the memo's evaluation count and state
   (cacheable policies have none). *)
let vector_verdicts t a ring ~stamped0 ~limit =
  let session = a.a_session in
  if (not t.vectorize_policies) || limit - stamped0 < 2 || a.a_fast_path || a.a_cache <> None
  then []
  else
    match a.a_program with
    | Some program when Policy.vector_eligible program ->
        (* Gather the function column.  Slots that fail the structural
           checks (torn write, wrong m_id, unknown function) are left to the
           stamp loop, which denies them before any policy evaluation —
           exactly the slot-major order, and the lane-divergence ladder's
           "deny early" case. *)
        let slots = ref [] in
        for seq = limit - 1 downto stamped0 do
          match Ring.submitted_info ring ~seq with
          | Some (slot_m_id, func_id) when slot_m_id = session.m_id -> (
              match Registry.symbol_of_func_id session.entry func_id with
              | Some sym -> slots := (seq, func_id, sym.Smof.sym_name) :: !slots
              | None -> ())
          | Some _ | None -> ()
        done;
        let keys =
          if not a.a_cacheable then !slots
          else
            List.fold_left
              (fun acc ((_, f, _) as slot) ->
                if List.exists (fun (_, g, _) -> g = f) acc then acc else slot :: acc)
              [] !slots
            |> List.rev
        in
        if List.length keys < 2 then []
        else begin
          let lanes =
            Array.of_list
              (List.map
                 (fun (_, _, func_name) ->
                   { Vexec.l_origin = a.a_origin; l_attrs = call_attrs a ~func_name })
                 keys)
          in
          let clock = Machine.clock t.machine in
          let verdicts =
            Policy.check_vector ~clock ~now_us:(Clock.now_us clock)
              ~credential:session.credential ~lanes program session.policy_state
          in
          List.mapi
            (fun i (seq, func_id, _) ->
              match verdicts.(i) with
              | Ok () -> (seq, func_id, Policy_cache.Allow)
              | Error denial -> (seq, func_id, Policy_cache.Deny denial))
            keys
        end
    | Some _ | None -> []

(* The slot decider for one ring batch or poller sweep over the slots
   [stamped0, limit), with its one verdict table.  Cacheable admissions
   are decided once per distinct function in the batch — the per-batch
   amortization of the policy cost — so their table is a memo keyed by
   funcID.  The rest (quota, rate, time-window, a policy or credential
   reading [calls_so_far]) are decided per slot so their ordering matches
   the per-call path; their table is keyed by seq and holds only the
   vector pass's verdicts.  Each entry keeps the funcID it decided, and a
   slot naming another function falls back to [decide].  The table is
   fresh per call, so each sweep/batch amortizes within itself only. *)
let batch_decider t a ring ~stamped0 ~limit =
  let key ~seq func_id = if a.a_cacheable then func_id else seq in
  let table : (int, int * Policy_cache.decision) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (seq, func_id, d) -> Hashtbl.replace table (key ~seq func_id) (func_id, d))
    (vector_verdicts t a ring ~stamped0 ~limit);
  fun ~seq func_id ->
    match Registry.symbol_of_func_id a.a_session.entry func_id with
    | None ->
        Policy_cache.Deny
          { Policy.reason = "no such function"; policy = a.a_session.entry.Registry.policy }
    | Some sym -> (
        match Hashtbl.find_opt table (key ~seq func_id) with
        | Some (f, d) when f = func_id -> d
        | Some _ | None ->
            let d = decide t a ~func_name:sym.Smof.sym_name in
            if a.a_cacheable then Hashtbl.replace table func_id (func_id, d);
            d)

(* Stamp every submitted-but-unstamped slot in [stamped0, limit):
   identical charge order on the trap path ([per_slot] is a no-op there)
   and the poller path (which charges {!Cost.Poll_slot_scan} per slot).
   [decide] is the batch's {!batch_decider}.  Returns (slots examined,
   slots admitted). *)
let stamp_submitted t session ring ~decide ~per_slot ~stamped0 ~limit =
  let pid = session.client_pid in
  let n = ref 0 and allowed = ref 0 in
  for seq = stamped0 to limit - 1 do
    per_slot ();
    incr n;
    (* Every decision is recorded in the kernel-private shadow
       (Machine.ring_record_stamp) — that record, not the ring words
       rewritten below, is what the handle's claim acts on. *)
    (match Ring.submitted_info ring ~seq with
    | None ->
        (* Torn or never-written slot below head: fail it kernel-side so
           the client's in-order reap is never stuck on garbage. *)
        Machine.ring_record_stamp t.machine ~pid ~seq ~m_id:0 ~func_id:0 ~allow:false;
        Ring.kernel_complete ring ~seq ~status:5
    | Some (slot_m_id, func_id) ->
        if slot_m_id <> session.m_id then begin
          session.denied_calls <- session.denied_calls + 1;
          Smod_metrics.Counter.incr m_calls_denied;
          Smod_metrics.Counter.incr m_ring_denied;
          Machine.ring_record_stamp t.machine ~pid ~seq ~m_id:slot_m_id ~func_id
            ~allow:false;
          Ring.kernel_complete ring ~seq ~status:6
        end
        else begin
          let count_slot ~denied =
            match Registry.symbol_of_func_id session.entry func_id with
            | Some sym ->
                count_func ~denied ~mod_name:session.entry.Registry.image.Smof.mod_name
                  ~func_name:sym.Smof.sym_name
            | None -> ()
          in
          match decide ~seq func_id with
          | Policy_cache.Allow ->
              session.calls <- session.calls + 1;
              Smod_metrics.Counter.incr m_calls;
              count_slot ~denied:false;
              incr allowed;
              Machine.ring_record_stamp t.machine ~pid ~seq ~m_id:slot_m_id ~func_id
                ~allow:true;
              Ring.stamp ring ~seq ~allow:true
          | Policy_cache.Deny _ ->
              session.denied_calls <- session.denied_calls + 1;
              Smod_metrics.Counter.incr m_calls_denied;
              Smod_metrics.Counter.incr m_ring_denied;
              count_slot ~denied:true;
              Machine.ring_record_stamp t.machine ~pid ~seq ~m_id:slot_m_id ~func_id
                ~allow:false;
              Ring.kernel_complete ring ~seq ~status:6
        end)
  done;
  (!n, !allowed)

(* Post-stamp wake: hand the freshly admitted slots to whoever executes
   them.  Mux sessions go to the fiber scheduler; process-backed sessions
   get their handle waitq woken, falling back to an mtype-3 doorbell
   message while the handle is still in its legacy blocking msgrcv.  An
   engaged handle that is mid-spin needs no kick: it sees the stamped
   slots on its next work-available check.  [sender] supplies the process
   context msgsnd needs — the trapping client on the batch path, the
   poller proc on the zero-trap path. *)
let wake_session_server t (sender : Proc.t) (session : session) rs =
  match session.kind with
  | Mux ms -> mux_notify t session ms
  | Forked q | Pooled { ph_queues = q; _ } ->
      let woken = Machine.wake t.machine rs.r_handle_wq in
      if woken > 0 then Smod_metrics.Counter.incr m_ring_doorbell_wakes
      else if not rs.r_handle_engaged then begin
        (* Handle is still in its legacy blocking msgrcv: only a message
           can unblock it.  This costs one msgsnd — once, on the first
           batch of a session — and nothing on the steady-state path. *)
        Smod_metrics.Counter.incr m_ring_doorbell_fallbacks;
        try
          Machine.msgsnd t.machine sender ~qid:q.req_qid ~mtype:ring_doorbell_mtype
            (Bytes.create 0)
        with Errno.Error _ -> ()
      end

let sys_call_batch t (p : Proc.t) ~m_id ~max_slots =
  run_dispatch_gate t;
  let session = trap_session t p ~trap:"smod_call_batch" in
  check_handle t session ~trap:"smod_call_batch" ~m_id;
  (* The TOCTOU mitigations bracket each call with an unmap/dequeue of
     the client — meaningless when the client keeps running to submit
     more slots.  Force such configurations onto the per-call path. *)
  if t.toctou <> No_mitigation then
    Errno.raise_errno Errno.EPERM "smod_call_batch: TOCTOU mitigation forces per-call path";
  let rs = trap_ring t p session ~trap:"smod_call_batch" in
  let ring = rs.r_ring in
  let a = admission t session ~transport:"ring" in
  let stamped0 = Machine.ring_stamped t.machine ~pid:p.Proc.pid in
  (* [head] is a client-writable header word and [max_slots] an
     arbitrary trap argument: clamp the per-trap work by the registered
     geometry so a forged head (or a huge max_slots) cannot drive one
     trap through an unbounded kernel loop. *)
  let budget = max 0 (min max_slots (Ring.nslots ring)) in
  let limit = min (Ring.head ring) (stamped0 + budget) in
  let decide = batch_decider t a ring ~stamped0 ~limit in
  let n, allowed = stamp_submitted t session ring ~decide ~per_slot:ignore ~stamped0 ~limit in
  if n > 0 then begin
    Smod_metrics.Counter.incr m_ring_batches;
    Smod_metrics.Counter.add m_ring_submits n;
    Smod_metrics.Histogram.observe m_ring_batch_size (float_of_int n)
  end;
  if allowed > 0 then wake_session_server t p session rs;
  n

(* The client stub's slow-path block while waiting for completions:
   returns immediately when no ring is bound (detach tore it down — the
   caller rechecks [session.detached]). *)
let ring_client_wait _t session (p : Proc.t) =
  match session.ring with
  | Some rs -> Sched.wait_on rs.r_client_wq p.Proc.pid
  | None -> ()

let session_ring session =
  match session.ring with Some rs -> Some rs.r_ring | None -> None

(* ------------------------------------------------------------------ *)
(* SQPOLL-style kernel poller (E22)                                    *)
(* ------------------------------------------------------------------ *)

(* Stable sweep order: live established sessions sorted by sid, so a
   sweep's charge sequence is a deterministic function of the session
   population, never of hash-table iteration order.  The sort runs only
   after the population changed. *)
let poller_sessions t =
  let by_sid =
    match t.sessions_by_sid with
    | Some sessions -> sessions
    | None ->
        let sessions =
          Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions_by_client []
          |> List.sort (fun a b -> compare a.sid b.sid)
        in
        t.sessions_by_sid <- Some sessions;
        sessions
  in
  List.filter (fun s -> (not s.detached) && s.established) by_sid

(* One sweep over every live session's ring: charge the fixed sweep
   overhead, then per examined slot the scan cost (stamping charges
   Ring_stamp on top, exactly as the trap path does).  Returns the number
   of slots stamped. *)
let poller_sweep t po (pp : Proc.t) =
  let clock = Machine.clock t.machine in
  Clock.charge clock Cost.Poll_sweep;
  po.p_sweeps <- po.p_sweeps + 1;
  Smod_metrics.Counter.incr m_poll_sweeps;
  let stamped = ref 0 in
  List.iter
    (fun session ->
      try
        if session.detached || not session.established then ()
        else
          (* A client gets its EINVAL for a forged geometry the moment it
             traps the doorbell or batch syscall; here there is no trap to
             fail, so the poller counts the reject and skips the ring. *)
          match bind_ring t pp session with
          | Error `Unregistered -> ()
          | Error `Corrupt -> po.p_geometry_rejects <- po.p_geometry_rejects + 1
          | Ok rs ->
              let ring = rs.r_ring in
              let stamped0 = Machine.ring_stamped t.machine ~pid:session.client_pid in
              (* Same forged-head clamp as the trap path: at most one
                 ring's worth of slots per session per sweep. *)
              let limit = min (Ring.head ring) (stamped0 + Ring.nslots ring) in
              if limit > stamped0 then begin
                let a = admission t session ~transport:"poller" in
                let decide = batch_decider t a ring ~stamped0 ~limit in
                let n, allowed =
                  stamp_submitted t session ring ~decide
                    ~per_slot:(fun () -> Clock.charge clock Cost.Poll_slot_scan)
                    ~stamped0 ~limit
                in
                stamped := !stamped + n;
                po.p_slots <- po.p_slots + n;
                Smod_metrics.Counter.add m_poll_slots n;
                Hashtbl.replace po.p_session_slots session.sid
                  (n + Option.value ~default:0 (Hashtbl.find_opt po.p_session_slots session.sid));
                if allowed > 0 then wake_session_server t pp session rs
              end
      with Aspace.Segv _ | Aspace.Prot_violation _ ->
        (* Client died between snapshot and scan: its exit-hook detach
           will drop the stale slots; skip it this sweep. *)
        ())
    (poller_sessions t);
  !stamped

let poller_set_flags t v =
  Hashtbl.iter
    (fun _ s ->
      match s.ring with
      | Some rs -> (
          try Ring.set_need_wakeup rs.r_ring v
          with Aspace.Segv _ | Aspace.Prot_violation _ -> ())
      | None -> ())
    t.sessions_by_client

(* Submissions that raced the park decision: any bound ring whose head is
   past the stamp cursor.  Checked after the flags go up, before the
   poller actually blocks — the no-lost-wakeup handshake. *)
let poller_pending t =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      ||
      (not s.detached) && s.established
      &&
      match s.ring with
      | Some rs -> (
          try Ring.head rs.r_ring > Machine.ring_stamped t.machine ~pid:s.client_pid
          with Aspace.Segv _ | Aspace.Prot_violation _ -> false)
      | None -> false)
    t.sessions_by_client false

let poller_loop t po (pp : Proc.t) =
  let rec loop streak =
    if po.p_run then begin
      let stamped = poller_sweep t po pp in
      if stamped > 0 then begin
        Sched.yield ();
        loop 0
      end
      else begin
        po.p_empty_sweeps <- po.p_empty_sweeps + 1;
        let streak = streak + 1 in
        if streak < t.spin_budget then begin
          Sched.yield ();
          loop streak
        end
        else begin
          (* Park: raise the need-wakeup flags first, then re-check for a
             submission that raced the decision.  No yield between the
             two — the recheck and the block are one scheduling turn, so
             a submitter either finds the flag up (and doorbells) or its
             head bump is seen here. *)
          poller_set_flags t true;
          if poller_pending t then begin
            poller_set_flags t false;
            Sched.yield ();
            loop 0
          end
          else begin
            po.p_parked <- true;
            po.p_parks <- po.p_parks + 1;
            Smod_metrics.Counter.incr m_poll_parks;
            Sched.wait_on po.p_wq pp.Proc.pid;
            po.p_parked <- false;
            if po.p_run then begin
              po.p_wakes <- po.p_wakes + 1;
              Smod_metrics.Counter.incr m_poll_wakes
            end;
            poller_set_flags t false;
            loop 0
          end
        end
      end
    end
    (* else: disabled — fall through and let the proc exit. *)
  in
  loop 0

let kernel_poller_enabled t = t.poller <> None

let set_kernel_poller t enable =
  match t.poller, enable with
  | Some _, true | None, false -> ()
  | Some po, false ->
      po.p_run <- false;
      ignore (Machine.wake t.machine po.p_wq);
      t.poller <- None
  | None, true ->
      let po =
        {
          p_run = true;
          p_pid = 0;
          p_parked = false;
          p_wq = Sched.waitq "smod-poller";
          p_sweeps = 0;
          p_empty_sweeps = 0;
          p_parks = 0;
          p_wakes = 0;
          p_slots = 0;
          p_geometry_rejects = 0;
          p_doorbells = 0;
          p_session_slots = Hashtbl.create 16;
        }
      in
      t.poller <- Some po;
      let pp =
        Machine.spawn t.machine ~daemon:true ~name:"smod-poller" (fun pp ->
            poller_loop t po pp)
      in
      (* The poller is kernel code: ring 0, untouchable. *)
      pp.Proc.no_core_dump <- true;
      pp.Proc.no_ptrace <- true;
      pp.Proc.ring <- 0;
      po.p_pid <- pp.Proc.pid

(* sys_smod_poll_doorbell (323): the one trap the zero-trap path ever
   pays.  Binds (and thereby validates) the caller's ring exactly as the
   batch trap would — forged geometry stays EINVAL under poller mode —
   then wakes the parked poller. *)
let sys_poll_doorbell t (p : Proc.t) =
  let session = trap_session t p ~trap:"smod_poll_doorbell" in
  let rs = trap_ring t p session ~trap:"smod_poll_doorbell" in
  Clock.charge (Machine.clock t.machine) Cost.Poll_doorbell;
  Ring.set_need_wakeup rs.r_ring false;
  (match t.poller with
  | Some po ->
      po.p_doorbells <- po.p_doorbells + 1;
      Smod_metrics.Counter.incr m_poll_doorbells;
      ignore (Machine.wake t.machine po.p_wq)
  | None -> ());
  0

type poller_status = {
  ps_parked : bool;
  ps_spin_budget : int;
  ps_sweeps : int;
  ps_empty_sweeps : int;
  ps_parks : int;
  ps_wakes : int;
  ps_slots_stamped : int;
  ps_geometry_rejects : int;
  ps_doorbells : int;
  ps_session_slots : (int * int) list;  (* sid, slots stamped; sorted *)
}

let poller_status t =
  Option.map
    (fun po ->
      {
        ps_parked = po.p_parked;
        ps_spin_budget = t.spin_budget;
        ps_sweeps = po.p_sweeps;
        ps_empty_sweeps = po.p_empty_sweeps;
        ps_parks = po.p_parks;
        ps_wakes = po.p_wakes;
        ps_slots_stamped = po.p_slots;
        ps_geometry_rejects = po.p_geometry_rejects;
        ps_doorbells = po.p_doorbells;
        ps_session_slots =
          Hashtbl.fold (fun sid n acc -> (sid, n) :: acc) po.p_session_slots []
          |> List.sort compare;
      })
    t.poller

(* ------------------------------------------------------------------ *)
(* sys_smod_find / add / remove                                        *)
(* ------------------------------------------------------------------ *)

let sys_find t (p : Proc.t) ~name_addr ~version =
  Clock.charge (Machine.clock t.machine) Cost.Registry_lookup;
  let name = Aspace.read_string p.Proc.aspace ~addr:name_addr ~max_len:256 in
  match Registry.find t.registry ~name ~version with
  | Some entry -> entry.Registry.m_id
  | None -> Errno.raise_errno Errno.ENOENT (Printf.sprintf "module %s v%d" name version)

let sys_add t (p : Proc.t) ~info_addr =
  let clock = Machine.clock t.machine in
  if p.Proc.uid <> 0 then Errno.raise_errno Errno.EPERM "smod_add: not root";
  let len = Aspace.read_word p.Proc.aspace ~addr:info_addr in
  if len <= 0 || len > 4 * 1024 * 1024 then Errno.raise_errno Errno.EINVAL "smod_add: size";
  Clock.charge clock (Cost.Copy_bytes len);
  let image_bytes = Aspace.read_bytes p.Proc.aspace ~addr:(info_addr + 4) ~len in
  let image =
    match Smof.of_bytes image_bytes with
    | i -> i
    | exception Smof.Malformed m -> Errno.raise_errno Errno.ENOEXEC ("smod_add: " ^ m)
  in
  if image.Smof.encrypted then
    Errno.raise_errno Errno.EINVAL "smod_add: encrypted images need the trusted tool chain";
  let entry = register t ~image () in
  entry.Registry.m_id

let sys_remove t (p : Proc.t) ~m_id ~cred_addr ~cred_size =
  let clock = Machine.clock t.machine in
  let entry =
    match Registry.find_by_id t.registry m_id with
    | Some e -> e
    | None -> Errno.raise_errno Errno.ENOENT "smod_remove"
  in
  Clock.charge clock (Cost.Copy_bytes cred_size);
  let cred_bytes = Aspace.read_bytes p.Proc.aspace ~addr:cred_addr ~len:cred_size in
  let credential =
    match Credential.of_bytes cred_bytes with
    | c -> c
    | exception Credential.Malformed m -> Errno.raise_errno Errno.EINVAL ("credential: " ^ m)
  in
  Clock.charge clock Cost.Cred_check;
  if not (Credential.verify_signatures t.keystore credential) then
    Errno.raise_errno Errno.EACCES "smod_remove: bad credential signature";
  if credential.Credential.principal <> entry.Registry.admin_principal then
    Errno.raise_errno Errno.EACCES "smod_remove: not the module administrator";
  (* Tear down any sessions using the module, notify the pool layer
     (smodd kills the module's parked handles), then drop it. *)
  List.iter
    (fun s -> if s.m_id = m_id then detach_session t s)
    (active_sessions t);
  List.iter (fun hook -> hook ~m_id) t.remove_hooks;
  (* A program naming the module in an [origin_module] literal no longer
     matches the module set it was checked against, and the module's
     decisions go with every other. *)
  drop_programs_and_decisions t;
  Registry.remove t.registry ~m_id

(* ------------------------------------------------------------------ *)
(* Compiled-policy introspection (smodctl policy status)               *)
(* ------------------------------------------------------------------ *)

type compile_status = {
  cs_m_id : int;
  cs_module : string;
  cs_policy : string;
  cs_policy_rev : int;
  cs_cached : int;
  cs_hits : int;
  cs_misses : int;
  cs_invalidations : int;
  cs_stats : Policy.compiled_stats option;
  cs_fusion : Fuse.stats option;
}

let policy_compile_status t =
  Registry.entries t.registry
  |> List.map (fun (e : Registry.entry) ->
         let stats =
           Hashtbl.fold
             (fun _ c acc ->
               match acc with Some _ -> acc | None -> Some (Policy.compiled_stats c))
             e.Registry.compiled_cache None
         in
         let fusion =
           Hashtbl.fold
             (fun _ c acc ->
               match acc with Some _ -> acc | None -> Policy.fusion_stats c)
             e.Registry.compiled_cache None
         in
         {
           cs_m_id = e.Registry.m_id;
           cs_module = e.Registry.image.Smof.mod_name;
           cs_policy = Policy.describe e.Registry.policy;
           cs_policy_rev = e.Registry.policy_rev;
           cs_cached = Hashtbl.length e.Registry.compiled_cache;
           cs_hits = e.Registry.compile_hits;
           cs_misses = e.Registry.compile_misses;
           cs_invalidations = e.Registry.compile_invalidations;
           cs_stats = stats;
           cs_fusion = fusion;
         })
  |> List.sort (fun a b -> compare a.cs_m_id b.cs_m_id)

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

let install machine ?keystore () =
  let t =
    {
      machine;
      registry = Registry.create ();
      keystore = (match keystore with Some k -> k | None -> Keystore.create ());
      sessions_by_client = Hashtbl.create 16;
      sessions_by_handle = Hashtbl.create 16;
      sessions_by_sid = Some [];
      next_sid = 1;
      next_pool_serial = 1;
      toctou = No_mitigation;
      fast_path = false;
      broker = None;
      policy_cache = None;
      remove_hooks = [];
      compile_policies = false;
      fuse_policies = false;
      vectorize_policies = false;
      dispatch_gate = None;
      spin_budget = default_spin_budget;
      poller = None;
      mux = None;
      mux_enabled = false;
    }
  in
  (* Keystore rotation invalidates every compiled program and cached
     decision in the same step as the rotation itself: hooks fire
     synchronously from [Keystore.add_principal], before any further call
     can observe the new generation with a stale program or decision. *)
  Keystore.on_change t.keystore (fun () -> drop_programs_and_decisions t);
  Machine.register_syscall machine Sysno.smod_find ~name:"smod_find" (fun _m p args ->
      sys_find t p ~name_addr:args.(0) ~version:args.(1));
  Machine.register_syscall machine Sysno.smod_start_session ~name:"smod_start_session"
    (fun _m p args -> sys_start_session t p ~desc_addr:args.(0));
  Machine.register_syscall machine Sysno.smod_session_info ~name:"smod_session_info"
    (fun _m p _args ->
      sys_session_info t p;
      0);
  Machine.register_syscall machine Sysno.smod_handle_info ~name:"smod_handle_info"
    (fun _m p args ->
      sys_handle_info t p ~info_addr:args.(0);
      0);
  Machine.register_syscall machine Sysno.smod_call ~name:"smod_call" (fun _m p args ->
      sys_call t p ~framep:args.(0) ~rtnaddr:args.(1) ~m_id:args.(2) ~func_id:args.(3));
  Machine.register_syscall machine Sysno.smod_call_batch ~name:"smod_call_batch"
    (fun _m p args -> sys_call_batch t p ~m_id:args.(0) ~max_slots:args.(1));
  Machine.register_syscall machine Sysno.smod_poll_doorbell ~name:"smod_poll_doorbell"
    (fun _m p _args -> sys_poll_doorbell t p);
  Machine.register_syscall machine Sysno.smod_add ~name:"smod_add" (fun _m p args ->
      sys_add t p ~info_addr:args.(0));
  Machine.register_syscall machine Sysno.smod_remove ~name:"smod_remove" (fun _m p args ->
      sys_remove t p ~m_id:args.(0) ~cred_addr:args.(1) ~cred_size:args.(2);
      0);
  (* §4.3 execve: detach the requesting client, kill the handle, then let
     the exec proceed. *)
  Machine.add_exec_hook machine (fun _m p _image ->
      match session_of_client t ~client_pid:p.Proc.pid with
      | Some session -> detach_session t session
      | None -> ());
  t
