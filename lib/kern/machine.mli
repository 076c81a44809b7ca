(** The simulated machine: one kernel, one CPU, many processes.

    Processes are cooperative coroutines driven by a FIFO scheduler.
    Kernel facilities needed by SecModule — SysV message queues, syscall
    dispatch with trap accounting, forced forks, ptrace and core-dump
    restrictions — live here.  The SecModule syscalls themselves (numbers
    301–320) are registered by the [secmodule] library through
    {!register_syscall}, mirroring how the paper extends
    [syscalls.master] (Figure 4). *)

exception Deadlock of string

type t

type syscall_handler = t -> Proc.t -> int array -> int

(** {1 Trace events}

    What the machine and the SecModule layer record in {!trace}, one
    constructor per kind.  A payload holds only ints and strings the
    emitter already holds (names, pids, session ids), never a session,
    process or address space, so a recorded event keeps nothing else
    alive; at about 7 words an event, the trace's full 256-event window
    ({!Smod_sim.Trace.create}'s default) holds about 1,700 words. *)

type event =
  | Exit of Sched.exit_status
  | Core_dumped of int  (** the fatal signal *)
  | Abort of { errno : Errno.t; context : string }
      (** an unhandled syscall failure aborted the program *)
  | Fork of { child : int; name : string }
  | Forced_fork of { parent : string; child : int; name : string }
      (** the kernel forked [parent] into a handle (Figure 1) *)
  | Execve of string  (** the new image *)
  | Start_session of { sid : int; module_name : string; client : int; handle : int }
  | Session_info of { client : int; handle : int }
      (** the pair now shares the forced-share window *)
  | Detach_session of { sid : int; module_name : string }
  | Pooled_spawn of { pid : int; module_name : string }
  | Pooled_retire of { pid : int; module_name : string }
  | Fiber_done of { sid : int; live : int }
      (** a mux fiber finished, leaving [live] fibers *)

val render_event : event -> string
(** The event's trace label, e.g. ["detach session 1 (module seclibc)"].
    Called only when the trace is read. *)

val create : ?seed:int64 -> ?jitter:float -> ?limit_frames:int -> unit -> t
val clock : t -> Smod_sim.Clock.t

val trace : t -> event Smod_sim.Trace.t
(** The machine's event trace, rendered with {!render_event}. *)

val phys : t -> Smod_vmem.Phys.t

(** {1 Processes} *)

val standard_aspace : t -> name:string -> Smod_vmem.Aspace.t
(** Fresh address space with the conventional text / data / stack entries
    of Figure 2 and the break set just above the static data. *)

val spawn :
  t ->
  ?daemon:bool ->
  ?aspace:Smod_vmem.Aspace.t ->
  ?uid:int ->
  name:string ->
  (Proc.t -> unit) ->
  Proc.t
(** Create a process (initially ready).  Without [?aspace] a standard one
    is built.  The body runs when the scheduler reaches it. *)

val spawn_thread : t -> Proc.t -> name:string -> (Proc.t -> unit) -> Proc.t
(** A second flow of control in the {e same} address space — the paper's
    multi-threaded client (§4.4). *)

val proc : t -> int -> Proc.t option
val proc_exn : t -> int -> Proc.t
val current : t -> Proc.t option
val live_procs : t -> Proc.t list

(** {1 Scheduling} *)

val step : t -> bool
(** Run one ready process until it blocks, yields or exits.  False when
    the ready queue is empty. *)

val run : t -> unit
(** Run until the ready queue drains.  Raises {!Deadlock} if a non-daemon
    process is still blocked at that point. *)

val wakeup : t -> int -> unit
(** Move a blocked process to the ready queue. *)

val wake : t -> Sched.waitq -> int
(** Drain a {!Sched.waitq}, waking every pid on it; returns how many were
    woken.  The blocking half is [Sched.wait_on] — together they are the
    dispatch ring's spin-then-block slow path. *)

val suspend_address_space : t -> Smod_vmem.Aspace.t -> except:int -> int list
(** TOCTOU mitigation 2 (§4.4): forcibly remove every runnable process
    sharing the address space (except [except]) from the ready queue.
    Returns the suspended pids. *)

val resume_pids : t -> int list -> unit

(** {1 Process lifecycle} *)

val sys_exit : t -> Proc.t -> int -> 'a
val kill : t -> pid:int -> signal:int -> unit
(** SIGKILL terminates (discontinuing any stored continuation); other
    signals are left pending on the target. *)

val sys_wait : t -> Proc.t -> Sched.exit_status * int
(** Blocks until a child exits; returns (status, pid) and reaps it. *)

val sys_fork : t -> Proc.t -> name:string -> child_body:(Proc.t -> unit) -> Proc.t
(** Forks: the child receives a clone of the parent's address space.
    (Simulator note: the child runs [child_body] rather than resuming the
    parent's continuation — one-shot continuations cannot be resumed
    twice.  Call sites pass the post-fork behaviour explicitly.) *)

val forced_fork :
  t ->
  Proc.t ->
  name:string ->
  daemon:bool ->
  role:Proc.role ->
  aspace:Smod_vmem.Aspace.t ->
  body:(Proc.t -> unit) ->
  Proc.t
(** The kernel-initiated fork used by [sys_smod_start_session] (paper §4,
    step 2): the kernel "forcibly forks the child process" with an
    explicitly prepared address space, role and body. *)

val sys_execve : t -> Proc.t -> image:string -> unit
(** Runs registered exec hooks (SecModule uses one to detach the session
    and kill the handle, §4.3), resets the address space, and charges the
    exec cost.  The caller-supplied body keeps running afterwards,
    representing the new image. *)

val add_exec_hook : t -> (t -> Proc.t -> string -> unit) -> unit

(** {1 Syscall dispatch} *)

val register_syscall : t -> int -> name:string -> syscall_handler -> unit
val syscall : t -> Proc.t -> int -> int array -> int
(** Trap into the kernel: charges trap enter/exit around the handler.
    Raises {!Errno.Error} as the handler does. *)

val set_syscall_filter :
  t -> (Proc.t -> int -> int array -> [ `Allow | `Deny of Errno.t ]) option -> unit
(** Interpose on every trap before the handler runs (the hook the
    Systrace substrate uses).  A [`Deny e] decision makes the syscall fail
    with [e]; trap costs are charged either way. *)

val sys_getpid : t -> Proc.t -> int
(** Via the numeric table; for a handle process this returns the client's
    pid (paper §4.3). *)

val sys_obreak : t -> Proc.t -> int -> unit
val sys_ptrace_attach : t -> Proc.t -> target_pid:int -> unit

(** {1 SysV message queues} *)

val msgget : t -> Proc.t -> key:int -> int
(** Returns the queue id, creating the queue if needed. *)

val msgsnd : t -> Proc.t -> qid:int -> mtype:int -> bytes -> unit
(** Blocks while the queue is full.  [mtype] must be positive. *)

val msgrcv : t -> Proc.t -> qid:int -> mtype:int -> int * bytes
(** Blocks until a matching message arrives.  [mtype] = 0 takes the head;
    positive takes the first of that type; negative takes the lowest type
    ≤ [-mtype].  Returns (mtype, payload). *)

val msgctl_remove : t -> Proc.t -> qid:int -> unit

val msgq_flush : t -> qid:int -> int
(** Discard every pending message and wake blocked senders, keeping the
    queue itself alive.  Used when a pooled handle is recycled between
    tenants so no stale request or reply can leak across sessions.
    Returns the number of messages dropped (kernel bookkeeping; the
    recycle cost is charged by the caller). *)

val msgq_depth : t -> qid:int -> int
(** Messages currently queued (introspection; no charge). *)

(** {1 Dispatch rings}

    [sys_smod_ring_setup] (syscall 321, registered by {!create}) pins one
    shared-memory dispatch ring per client pid: it validates that the
    ring lies wholly inside the force-share window and is mapped, then
    re-arms it zeroed so nothing the client pre-wrote survives
    registration.  Everything admission-relevant lives kernel-side: at
    stamp time [sys_smod_call_batch] (lib/secmodule) records each slot's
    (seq, moduleID, funcID, verdict) in a kernel-private shadow, and the
    handle claims from that shadow via {!ring_claim_next} — never from
    the client-writable ring words — so post-stamp rewrites of a slot's
    identity, verdict, or state, and rewinds of the shared cursor words,
    cannot change what executes or replay an executed slot. *)

val ring_registration : t -> pid:int -> (int * int) option
(** [(base, nslots)] of the ring registered to this client, if any.
    This pinned geometry — not the client-writable header word — is what
    kernel and handle views of the ring must be built from. *)

val ring_stamped : t -> pid:int -> int
(** Kernel-private admission cursor (0 when no ring is registered). *)

val ring_record_stamp :
  t -> pid:int -> seq:int -> m_id:int -> func_id:int -> allow:bool -> unit
(** Record the kernel's admission decision for slot [seq] and advance the
    stamped cursor past it.  Kernel-side callers only (the batch
    syscall's stamping loop); denied and malformed slots are recorded
    with [allow:false] so the handle's claim walks over them. *)

val ring_claim_next : t -> pid:int -> (int * int * int) option
(** Hand the handle the next allow-stamped slot as [(seq, m_id, func_id)]
    from the kernel-private shadow, advancing the kernel-private claim
    cursor (skipping denied/malformed/stale records).  [None] when the
    handle has caught up with the stamped cursor. *)

val ring_claimable : t -> pid:int -> bool
(** Whether the claim cursor is behind the stamped cursor (cheap
    work-available probe for the handle's spin loop). *)

val ring_teardown : t -> pid:int -> unit
(** Drop the registration (detach, scrub, or client death).  The memory
    itself belongs to the client and is scrubbed by the caller. *)

val max_ring_slots : int

(** {1 Introspection} *)

val context_switches : t -> int
val syscall_count : t -> int
val core_dumps : t -> (int * string) list
(** (pid, name) of processes that dumped core. *)

val pp_procs : Format.formatter -> t -> unit
