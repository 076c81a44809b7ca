(* A fixed-slot SPSC submission/completion ring in simulated shared
   memory — the io_uring-style fast path of PR 3.

   The ring lives in the client's data pages inside the force-share
   window, so both sides of a SecModule session address the same frames.
   One producer (the client stub) submits call slots; one consumer (the
   handle) claims and completes them; the kernel is the only writer of
   the per-slot admission verdict, stamped during [sys_smod_call_batch].

   Memory layout (32-bit little-endian words through Aspace):

     header  8 words:  magic  nslots  head  claimed  completed  reaped  needwake  -
     slot   16 words:  state seq m_id func verdict nargs csp cfp
                       arg0 arg1 arg2 arg3 status retval  -  -

   Sequence numbers are monotonically increasing; slot index is
   [seq mod nslots] (wrap handling).  A slot walks
   Free -> Submitted -> Claimed -> Completed -> Free, except that the
   kernel completes *denied* slots directly (Submitted -> Completed) so
   a rejected call never reaches the handle.

   Trust: everything here is client-mapped memory, so nothing the client
   writes is believed.  Admission state never round-trips through these
   words: at stamp time the kernel records (seq, moduleID, funcID,
   verdict) in its private per-registration shadow (Machine.ring_reg),
   and the handle claims from that shadow — [claim_stamped] takes the
   authoritative identity as arguments rather than re-reading it here.
   The verdict/state words below are written only so the *client* can
   observe progress; cursors the kernel or handle act on (stamped,
   claimed) live kernel-side.  Kernel and handle views are built from
   the geometry pinned at sys_smod_ring_setup ([of_registration]), not
   from the client-writable nslots header word. *)

module Aspace = Smod_vmem.Aspace
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model

let magic = 0x52494E47 (* "RING" *)
let header_words = 8
let slot_words = 16
let max_args = 4
let header_bytes = header_words * 4
let slot_bytes = slot_words * 4
let size_bytes ~nslots = header_bytes + (nslots * slot_bytes)

(* Slot states. *)
let st_free = 0
let st_submitted = 1
let st_claimed = 2
let st_completed = 3

(* Admission verdicts (kernel-written). *)
let verdict_none = 0
let verdict_allow = 1
let verdict_deny = 2

type t = { aspace : Aspace.t; base : int; nslots : int }

type slot = {
  seq : int;
  m_id : int;
  func_id : int;
  nargs : int;
  client_sp : int;
  client_fp : int;
  args_base : int;
}

let clock t = Aspace.clock t.aspace
let base t = t.base
let nslots t = t.nslots
let hdr t i = Aspace.read_word t.aspace ~addr:(t.base + (4 * i))
let set_hdr t i v = Aspace.write_word t.aspace ~addr:(t.base + (4 * i)) v
let slot_addr t seq = t.base + header_bytes + ((seq mod t.nslots) * slot_bytes)
let slot_word t seq i = Aspace.read_word t.aspace ~addr:(slot_addr t seq + (4 * i))

let set_slot_word t seq i v =
  Aspace.write_word t.aspace ~addr:(slot_addr t seq + (4 * i)) v

(* Header word indices. *)
let h_head = 2
let h_claimed = 3
let h_completed = 4
let h_reaped = 5
let h_need_wakeup = 6

(* Slot word indices. *)
let s_state = 0
let s_seq = 1
let s_m_id = 2
let s_func = 3
let s_verdict = 4
let s_nargs = 5
let s_csp = 6
let s_cfp = 7
let s_arg0 = 8
let s_status = 12
let s_retval = 13

let head t = hdr t h_head
let claimed t = hdr t h_claimed
let completed t = hdr t h_completed
let reaped t = hdr t h_reaped

(* SQPOLL-style need-wakeup flag (kernel-written, client-read without a
   trap — the IORING_SQ_NEED_WAKEUP idiom).  Like every header word it
   lives in client-writable memory, so the kernel never *trusts* it: a
   client forging 0 merely stalls its own calls until the next honest
   doorbell; forging 1 makes itself trap unnecessarily.  Admission is
   unaffected either way. *)
let need_wakeup t = hdr t h_need_wakeup <> 0
let set_need_wakeup t v = set_hdr t h_need_wakeup (if v then 1 else 0)
let in_flight t = head t - reaped t
let space t = t.nslots - in_flight t

(* One write of the whole region: the same pages fault, with write access
   and in the same order, as a word-at-a-time clear would. *)
let zero t =
  Aspace.write_bytes t.aspace ~addr:t.base (Bytes.make (size_bytes ~nslots:t.nslots) '\000');
  set_hdr t 0 magic;
  set_hdr t 1 t.nslots

let init aspace ~base ~nslots =
  if nslots <= 0 then invalid_arg "Ring.init: nslots must be positive";
  let t = { aspace; base; nslots } in
  zero t;
  t

let attach aspace ~base =
  match Aspace.read_word aspace ~addr:base with
  | m when m <> magic -> None
  | exception _ -> None
  | _ ->
      let nslots = Aspace.read_word aspace ~addr:(base + 4) in
      if nslots <= 0 || nslots > 65536 then None else Some { aspace; base; nslots }

let of_registration aspace ~base ~nslots =
  if nslots <= 0 then None
  else
    match Aspace.read_word aspace ~addr:base with
    | exception _ -> None
    | m when m <> magic -> None
    | _ ->
        (* The geometry comes from the kernel's registration; a header
           word that disagrees is client tampering, not a bigger ring. *)
        if Aspace.read_word aspace ~addr:(base + 4) <> nslots then None
        else Some { aspace; base; nslots }

let reset = zero

(* ------------------------------ client ----------------------------- *)

let try_submit t ~m_id ~func_id ~client_sp ~client_fp ~args =
  if Array.length args > max_args then
    invalid_arg "Ring.try_submit: too many inline args"
  else if space t <= 0 then None
  else begin
    let seq = head t in
    assert (slot_word t seq s_state = st_free);
    Clock.charge (clock t) Cost.Ring_submit;
    set_slot_word t seq s_seq seq;
    set_slot_word t seq s_m_id m_id;
    set_slot_word t seq s_func func_id;
    set_slot_word t seq s_verdict verdict_none;
    set_slot_word t seq s_nargs (Array.length args);
    set_slot_word t seq s_csp client_sp;
    set_slot_word t seq s_cfp client_fp;
    Array.iteri (fun i a -> set_slot_word t seq (s_arg0 + i) a) args;
    set_slot_word t seq s_status 0;
    set_slot_word t seq s_retval 0;
    set_slot_word t seq s_state st_submitted;
    set_hdr t h_head (seq + 1);
    Some seq
  end

let reap t =
  let r = reaped t in
  if r >= head t then None
  else if slot_word t r s_state <> st_completed then None
  else begin
    Clock.charge (clock t) Cost.Ring_reap;
    let status = slot_word t r s_status and retval = slot_word t r s_retval in
    set_slot_word t r s_state st_free;
    set_hdr t h_reaped (r + 1);
    Some (r, status, retval)
  end

(* ------------------------------ kernel ----------------------------- *)

let submitted_info t ~seq =
  if seq < 0 || seq >= head t then None
  else if slot_word t seq s_state <> st_submitted then None
  else Some (slot_word t seq s_m_id, slot_word t seq s_func)

let stamp t ~seq ~allow =
  Clock.charge (clock t) Cost.Ring_stamp;
  set_slot_word t seq s_verdict (if allow then verdict_allow else verdict_deny)

let kernel_complete t ~seq ~status =
  (* Kernel-side completion of a slot that must not reach the handle
     (denied, or malformed beyond dispatch): status is delivered to the
     client's reap; the handle's claim cursor skips over it. *)
  set_slot_word t seq s_verdict verdict_deny;
  set_slot_word t seq s_status status;
  set_slot_word t seq s_retval 0;
  set_slot_word t seq s_state st_completed;
  set_hdr t h_completed (completed t + 1)

(* ------------------------------ handle ----------------------------- *)

let claim_stamped t ~seq ~m_id ~func_id =
  (* The caller (the handle, via Machine.ring_claim_next) holds the
     kernel-private admission record for [seq]: identity and verdict are
     passed in, not re-read from the slot, so post-stamp rewrites of the
     client-writable identity/verdict/state words change nothing.  Only
     the call's *data* — arg count, frame pointers, inline args — comes
     from shared memory, exactly as the legacy msgq path reads argument
     words from the shared client stack at call time. *)
  Clock.charge (clock t) Cost.Ring_claim;
  set_slot_word t seq s_state st_claimed;
  (* Shared claim word is a progress mirror for the client and pp only;
     nothing reads it for admission. *)
  if seq + 1 > claimed t then set_hdr t h_claimed (seq + 1);
  {
    seq;
    m_id;
    func_id;
    nargs = slot_word t seq s_nargs;
    client_sp = slot_word t seq s_csp;
    client_fp = slot_word t seq s_cfp;
    args_base = slot_addr t seq + (s_arg0 * 4);
  }

let complete t ~seq ~status ~retval =
  Clock.charge (clock t) Cost.Ring_complete;
  set_slot_word t seq s_status status;
  set_slot_word t seq s_retval (retval land 0xFFFFFFFF);
  set_slot_word t seq s_state st_completed;
  set_hdr t h_completed (completed t + 1)

(* --------------------------- introspection ------------------------- *)

let slot_state t i =
  Aspace.read_word t.aspace ~addr:(t.base + header_bytes + (i * slot_bytes))

let occupancy t =
  let n = ref 0 in
  for i = 0 to t.nslots - 1 do
    if slot_state t i <> st_free then incr n
  done;
  !n

let stale_submitted t =
  let n = ref 0 in
  for i = 0 to t.nslots - 1 do
    let st = slot_state t i in
    if st = st_submitted || st = st_claimed then incr n
  done;
  !n

let pp ppf t =
  Format.fprintf ppf
    "ring@@0x%08x slots=%d head=%d claimed=%d completed=%d reaped=%d occ=%d"
    t.base t.nslots (head t) (claimed t) (completed t) (reaped t) (occupancy t)
