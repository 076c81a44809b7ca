(** Client-side stubs.

    {!connect} performs the crt0 initialization sequence of Figure 1
    (find → start_session → handle_info); {!call} performs the stack
    choreography of Figure 3: push the arguments, the return address and
    the saved frame pointer, push the [(moduleID, funcID)] pair, duplicate
    the two words the kernel needs, then trap into [sys_smod_call].
    On return the stub unwinds exactly what it pushed. *)

type conn

val connect :
  Smod.t ->
  Smod_kern.Proc.t ->
  module_name:string ->
  version:int ->
  credential:Credential.t ->
  conn
(** Raises {!Smod_kern.Errno.Error} as the underlying syscalls do
    (ENOENT unknown module, EACCES bad credential, ...). *)

val conn_info : conn -> Wire.handle_info
val session_id : conn -> int
val func_id : conn -> string -> int option
(** The module's {!Registry.func_id}, the table its stubs are built from. *)

val call : ?on_step:(int -> unit) -> conn -> func:string -> int array -> int
(** Invoke a module function with word arguments.  [on_step] fires after
    Figure 3 states 1 (frame built), 2 (kernel view pushed) and 4
    (frame restored) so tests can inspect the simulated stack.  Raises
    [Invalid_argument] for an unknown function name and
    {!Smod_kern.Errno.Error} for kernel-side failures. *)

val call_id : ?on_step:(int -> unit) -> conn -> func_id:int -> int array -> int

(** {1 Dispatch-ring fast path}

    {!arm_ring} grows the heap by one ring (obreak inside an established
    pair maps the new pages on both sides), then registers it with
    [sys_smod_ring_setup] — the kernel re-zeros the region and pins the
    geometry.  {!call_batch} then submits N calls with one trap per
    ring-capacity chunk: the kernel stamps admission verdicts (one policy
    evaluation per distinct function per batch for cacheable policies),
    the handle drains the ring in one wakeup, and the client reaps
    completions in submission order with an adaptive spin-then-block
    wait.  No message-queue traffic on the steady-state path. *)

val arm_ring : ?nslots:int -> conn -> Smod_ring.Ring.t
(** Idempotent; default 64 slots.  Raises {!Smod_kern.Errno.Error} as
    [sys_smod_ring_setup] does (EEXIST on conflicting geometry, EINVAL
    on bad placement). *)

val ring : conn -> Smod_ring.Ring.t option
(** The client's view of the armed ring, if any. *)

val call_batch :
  conn -> func:string -> int array list -> (int, Smod_kern.Errno.t * string) result list
(** Submit every argument vector as one batched call to [func]; results
    come back in submission order, [Ok retval] or [Error (errno, msg)]
    per slot — a denied slot fails alone instead of failing the batch.
    Arms a default ring on first use.  Raises [Invalid_argument] for an
    unknown function name, {!Smod_kern.Errno.Error} EIDRM if the session
    detaches mid-batch, EPERM if a TOCTOU mitigation is active. *)

val call_batch_id :
  conn -> func_id:int -> int array list -> (int, Smod_kern.Errno.t * string) result list

val call_batch_funcs :
  conn -> (int * int array) list -> (int, Smod_kern.Errno.t * string) result list
(** Like {!call_batch_id}, but each element names its own [(func_id,
    args)] — one batch carrying a mixed function column, the shape the
    vectorized admission path (E25) gathers into lanes.  Unknown
    function ids fail their slot alone ([Error (EINVAL, _)]), exactly as
    a denied slot does. *)

val close : conn -> unit
(** Detach the session (kills the handle). *)
