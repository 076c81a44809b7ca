module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno
module Sched = Smod_kern.Sched
module Aspace = Smod_vmem.Aspace
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Ring = Smod_ring.Ring

type conn = {
  smod : Smod.t;
  proc : Proc.t;
  info : Wire.handle_info;
  session : Smod.session;
  mutable ring : Ring.t option;  (** the client's view, armed by {!arm_ring} *)
}

(* A recognisable synthetic return address for the frames the stub builds. *)
let synthetic_return_address = 0x0000BEE4

let write_to_stack (p : Proc.t) data =
  p.Proc.sp <- p.Proc.sp - ((Bytes.length data + 3) land lnot 3);
  Aspace.write_bytes p.Proc.aspace ~addr:p.Proc.sp data;
  p.Proc.sp

let connect smod proc ~module_name ~version ~credential =
  let machine = Smod.machine smod in
  (* Every step writes below the saved stack pointer; the words are
     dropped again whether the handshake completes or a step fails. *)
  let saved_sp = proc.Proc.sp in
  let info =
    Fun.protect
      ~finally:(fun () -> proc.Proc.sp <- saved_sp)
      (fun () ->
        (* Step 1 (Figure 1): ask the kernel whether the module exists. *)
        let name_addr = write_to_stack proc (Bytes.of_string (module_name ^ "\000")) in
        let m_id = Machine.syscall machine proc Sysno.smod_find [| name_addr; version |] in
        ignore m_id;
        (* Write the session descriptor into client memory and start the
           session; the kernel forcibly forks the handle. *)
        let desc =
          Wire.descriptor_to_bytes
            {
              Wire.module_name;
              module_version = version;
              credential = Credential.to_bytes credential;
            }
        in
        let desc_addr = write_to_stack proc desc in
        let _sid = Machine.syscall machine proc Sysno.smod_start_session [| desc_addr |] in
        (* Complete the handshake; the kernel writes the handle info back. *)
        let info_addr = write_to_stack proc (Bytes.make Wire.handle_info_size '\000') in
        ignore (Machine.syscall machine proc Sysno.smod_handle_info [| info_addr |]);
        Wire.handle_info_of_bytes
          (Aspace.read_bytes proc.Proc.aspace ~addr:info_addr ~len:Wire.handle_info_size))
  in
  let session =
    match Smod.session_of_client smod ~client_pid:proc.Proc.pid with
    | Some s -> s
    | None -> assert false
  in
  { smod; proc; info; session; ring = None }

let conn_info c = c.info
let session_id c = c.session.Smod.sid
(* One client stub per ' F ' symbol (§4.2), numbered as the kernel does. *)
let func_id c name = Registry.func_id c.session.Smod.entry name

let call_id ?on_step c ~func_id args =
  let machine = Smod.machine c.smod in
  let clock = Machine.clock machine in
  let p = c.proc in
  let nargs = Array.length args in
  Clock.charge clock (Cost.Stub_push_args nargs);
  let entry_sp = p.Proc.sp and entry_fp = p.Proc.fp in
  (* State 1: argN..arg1, return address, saved FP (which FP now names). *)
  for i = nargs - 1 downto 0 do
    Proc.push_word p args.(i)
  done;
  Proc.push_word p synthetic_return_address;
  Proc.push_word p entry_fp;
  p.Proc.fp <- p.Proc.sp;
  (match on_step with Some f -> f 1 | None -> ());
  (* State 2: moduleID, funcID, then the duplicated return address and
     client FP so the kernel sees the relevant words at the stack top. *)
  Proc.push_word p c.info.Wire.m_id;
  Proc.push_word p func_id;
  Proc.push_word p synthetic_return_address;
  Proc.push_word p entry_fp;
  (match on_step with Some f -> f 2 | None -> ());
  let result =
    match
      Machine.syscall machine p Sysno.smod_call
        [| p.Proc.fp; synthetic_return_address; c.info.Wire.m_id; func_id |]
    with
    | r -> r
    | exception e ->
        (* A failed call (EACCES, EFAULT, EIDRM, ...) drops the whole frame
           by restoring the entry registers, without reading it back. *)
        p.Proc.sp <- entry_sp;
        p.Proc.fp <- entry_fp;
        raise e
  in
  (* Unwind: drop the duplicates and ids, restore FP, drop the frame. *)
  ignore (Proc.pop_word p);
  ignore (Proc.pop_word p);
  ignore (Proc.pop_word p);
  ignore (Proc.pop_word p);
  let saved_fp = Proc.pop_word p in
  ignore (Proc.pop_word p) (* return address *);
  p.Proc.sp <- p.Proc.sp + (4 * nargs);
  p.Proc.fp <- saved_fp;
  (match on_step with Some f -> f 4 | None -> ());
  assert (p.Proc.sp = entry_sp);
  result

let call ?on_step c ~func args =
  match func_id c func with
  | Some id -> call_id ?on_step c ~func_id:id args
  | None -> invalid_arg (Printf.sprintf "Stub.call: no function %S in module" func)

(* ------------------------------------------------------------------ *)
(* Dispatch-ring fast path (PR 3)                                      *)
(* ------------------------------------------------------------------ *)

let default_ring_slots = 64
let client_spin_budget = 4

let arm_ring ?(nslots = default_ring_slots) c =
  match c.ring with
  | Some r -> r
  | None ->
      let machine = Smod.machine c.smod in
      let p = c.proc in
      (* Carve the ring out of the heap, cache-line aligned: obreak
         growth inside an established pair installs shared mappings on
         both sides, so the handle addresses the same frames. *)
      let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
      let size = Ring.size_bytes ~nslots in
      ignore (Machine.syscall machine p Sysno.obreak [| base + size |]);
      (* Materialize the pages client-side, then register with the
         kernel — which re-zeros the region (nothing pre-written is
         trusted) and pins the geometry. *)
      let ring = Ring.init p.Proc.aspace ~base ~nslots in
      ignore (Machine.syscall machine p Sysno.smod_ring_setup [| base; nslots |]);
      c.ring <- Some ring;
      (* SQPOLL mode: one doorbell at arm time binds the ring kernel-side
         and wakes the poller if it was parked before this session
         existed.  After this, submits are trap-free unless the ring's
         need-wakeup flag says the poller napped. *)
      if Smod.kernel_poller_enabled c.smod then
        ignore (Machine.syscall machine p Sysno.smod_poll_doorbell [||]);
      ring

let ring c = c.ring

let decode_slot ~status ~retval =
  match status with
  | 0 -> Ok retval
  | 1 -> Error (Errno.EFAULT, "module function faulted")
  | 2 -> Error (Errno.EINVAL, "no such function")
  | 3 -> Error (Errno.ENOSYS, "native body not bound")
  | 4 -> Error (Errno.EACCES, "module text integrity check failed")
  | 5 -> Error (Errno.EINVAL, "malformed slot")
  | 6 -> Error (Errno.EACCES, "policy denied")
  | s -> Error (Errno.EINVAL, Printf.sprintf "bad completion status %d" s)

(* Wait for the next in-order completion: spin (yielding the CPU each
   iteration so the handle can run), then block on the session's ring
   wait queue until the handle's next drain wakes us. *)
let reap_blocking c ring =
  let machine = Smod.machine c.smod in
  let clock = Machine.clock machine in
  let p = c.proc in
  let check_detached () =
    if c.session.Smod.detached then
      Errno.raise_errno Errno.EIDRM "smod_call_batch: session detached mid-batch"
  in
  let rec wait budget =
    check_detached ();
    match Ring.reap ring with
    | Some (_seq, status, retval) -> decode_slot ~status ~retval
    | None ->
        if budget > 0 then begin
          Clock.charge clock Cost.Ring_spin;
          Sched.yield ();
          wait (budget - 1)
        end
        else begin
          Smod.ring_client_wait c.smod c.session p;
          wait client_spin_budget
        end
  in
  wait client_spin_budget

(* The general batch loop: each element names its own function, so one
   batch can carry a mixed function column — what the vectorized
   admission path (E25) gathers into its lanes. *)
let call_batch_funcs c calls =
  let machine = Smod.machine c.smod in
  let clock = Machine.clock machine in
  let p = c.proc in
  let ring = arm_ring c in
  let calls = Array.of_list calls in
  let n_total = Array.length calls in
  let results = Array.make n_total (Error (Errno.EINVAL, "not completed")) in
  let next = ref 0 and reaped = ref 0 in
  while !reaped < n_total do
    (* Fill as many slots as the ring has room for. *)
    let chunk = ref 0 in
    let full = ref false in
    while (not !full) && !next < n_total do
      let func_id, args = calls.(!next) in
      Clock.charge clock (Cost.Stub_push_args (Array.length args));
      match
        Ring.try_submit ring ~m_id:c.info.Wire.m_id ~func_id ~client_sp:p.Proc.sp
          ~client_fp:p.Proc.fp ~args
      with
      | Some _seq ->
          incr next;
          incr chunk
      | None -> full := true
    done;
    (* One trap stamps the whole chunk and wakes the handle — unless the
       kernel poller is sweeping for us, in which case the submit is
       trap-free: the only reason to enter the kernel is a raised
       need-wakeup flag (a trap-free shared-memory read; the poller
       parked and wants its doorbell). *)
    if !chunk > 0 then begin
      if Smod.kernel_poller_enabled c.smod then begin
        if Ring.need_wakeup ring then
          ignore (Machine.syscall machine p Sysno.smod_poll_doorbell [||])
      end
      else
        ignore
          (Machine.syscall machine p Sysno.smod_call_batch [| c.info.Wire.m_id; !chunk |])
    end;
    (* Drain this chunk's completions in submission order before
       submitting more — frees the slots for the next chunk. *)
    let target = !reaped + !chunk in
    while !reaped < target do
      results.(!reaped) <- reap_blocking c ring;
      incr reaped
    done
  done;
  Array.to_list results

let call_batch_id c ~func_id argss =
  call_batch_funcs c (List.map (fun args -> (func_id, args)) argss)

let call_batch c ~func argss =
  match func_id c func with
  | Some id -> call_batch_id c ~func_id:id argss
  | None -> invalid_arg (Printf.sprintf "Stub.call_batch: no function %S in module" func)

let close c = Smod.detach_session c.smod c.session
