(* Dispatch-ring tests (PR 3): SPSC slot lifecycle and wrap handling at
   the unit level, then the end-to-end batched fast path — including the
   trust-model cases (kernel re-zero at setup, forged verdicts, denied
   slots failing alone) and the setup syscall's validation. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Ring = Smod_ring.Ring
open Smod_bench_kit
open Secmodule

(* ---------------------------- unit level ---------------------------- *)

let mk_aspace ?(nslots = 4) () =
  let m = M.create () in
  let a = M.standard_aspace m ~name:"ring-test" in
  let base = (Aspace.brk a + 63) land lnot 63 in
  Aspace.obreak a (base + Ring.size_bytes ~nslots);
  (a, base)

let test_slot_lifecycle () =
  let a, base = mk_aspace () in
  let r = Ring.init a ~base ~nslots:4 in
  Alcotest.(check int) "empty" 0 (Ring.occupancy r);
  let seq = Ring.try_submit r ~m_id:1 ~func_id:7 ~client_sp:0 ~client_fp:0 ~args:[| 41 |] in
  Alcotest.(check (option int)) "first seq is 0" (Some 0) seq;
  Ring.stamp r ~seq:0 ~allow:true;
  (* The handle claims with the identity the kernel recorded at stamp
     time (here: the test playing the kernel) — never from the slot. *)
  let slot = Ring.claim_stamped r ~seq:0 ~m_id:1 ~func_id:7 in
  Alcotest.(check int) "func id" 7 slot.Ring.func_id;
  Alcotest.(check int) "nargs" 1 slot.Ring.nargs;
  Alcotest.(check int) "arg inline" 41 (Aspace.read_word a ~addr:slot.Ring.args_base);
  Ring.complete r ~seq:slot.Ring.seq ~status:0 ~retval:42;
  (match Ring.reap r with
  | Some (0, 0, 42) -> ()
  | Some (seq, st, rv) -> Alcotest.failf "reap got (%d,%d,%d)" seq st rv
  | None -> Alcotest.fail "reap found nothing");
  Alcotest.(check int) "empty again" 0 (Ring.occupancy r)

let test_wrap_and_full () =
  let a, base = mk_aspace () in
  let r = Ring.init a ~base ~nslots:4 in
  (* Push 10 calls through a 4-slot ring, one in flight at a time past
     the first fill: sequence numbers grow monotonically while slot
     indices wrap. *)
  for seq = 0 to 9 do
    (match Ring.try_submit r ~m_id:1 ~func_id:0 ~client_sp:0 ~client_fp:0 ~args:[| seq |] with
    | Some s -> Alcotest.(check int) "monotonic seq" seq s
    | None -> Alcotest.failf "ring full at seq %d" seq);
    Ring.stamp r ~seq ~allow:true;
    let slot = Ring.claim_stamped r ~seq ~m_id:1 ~func_id:0 in
    Ring.complete r ~seq:slot.Ring.seq ~status:0 ~retval:(100 + seq);
    match Ring.reap r with
    | Some (s, 0, rv) ->
        Alcotest.(check int) "in-order reap" seq s;
        Alcotest.(check int) "retval" (100 + seq) rv
    | _ -> Alcotest.failf "reap failed at seq %d" seq
  done;
  (* Fill it completely: the 5th concurrent submit must refuse. *)
  for i = 0 to 3 do
    match Ring.try_submit r ~m_id:1 ~func_id:0 ~client_sp:0 ~client_fp:0 ~args:[| i |] with
    | Some _ -> ()
    | None -> Alcotest.failf "submit %d refused with space left" i
  done;
  Alcotest.(check bool) "full ring refuses" true
    (Ring.try_submit r ~m_id:1 ~func_id:0 ~client_sp:0 ~client_fp:0 ~args:[||] = None);
  Alcotest.(check int) "stale submissions visible" 4 (Ring.stale_submitted r)

let test_kernel_complete_skipped_by_claim () =
  let a, base = mk_aspace () in
  let r = Ring.init a ~base ~nslots:4 in
  ignore (Ring.try_submit r ~m_id:1 ~func_id:0 ~client_sp:0 ~client_fp:0 ~args:[||]);
  ignore (Ring.try_submit r ~m_id:1 ~func_id:1 ~client_sp:0 ~client_fp:0 ~args:[||]);
  (* Kernel denies slot 0, allows slot 1: the denied slot never reaches
     the handle (its claim walks the kernel shadow, which skips it), yet
     the client still reaps both in order, the denial first. *)
  Ring.kernel_complete r ~seq:0 ~status:6;
  Ring.stamp r ~seq:1 ~allow:true;
  let slot = Ring.claim_stamped r ~seq:1 ~m_id:1 ~func_id:1 in
  Alcotest.(check int) "claimed past denial" 1 slot.Ring.seq;
  Ring.complete r ~seq:1 ~status:0 ~retval:0;
  (match Ring.reap r with
  | Some (0, 6, _) -> ()
  | _ -> Alcotest.fail "denied slot not reaped first");
  match Ring.reap r with
  | Some (1, 0, _) -> ()
  | _ -> Alcotest.fail "completed slot not reaped second"

(* The claim discipline — refuse unstamped, skip denied, never hand out
   the same seq twice — lives in the kernel-private shadow, where a
   client rewriting ring words (or rewinding the shared claim-cursor
   word) cannot reach it. *)
let test_shadow_claim_discipline () =
  let machine = M.create () in
  let checked = ref false in
  ignore
    (M.spawn machine ~name:"shadow-probe" (fun p ->
         let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
         Aspace.obreak p.Proc.aspace (base + Ring.size_bytes ~nslots:4);
         ignore (M.syscall machine p Sysno.smod_ring_setup [| base; 4 |]);
         let pid = p.Proc.pid in
         Alcotest.(check bool) "nothing claimable before any stamp" false
           (M.ring_claimable machine ~pid);
         Alcotest.(check bool) "claim refuses unstamped" true
           (M.ring_claim_next machine ~pid = None);
         (* Kernel denies seq 0 and allows seq 1. *)
         M.ring_record_stamp machine ~pid ~seq:0 ~m_id:1 ~func_id:9 ~allow:false;
         M.ring_record_stamp machine ~pid ~seq:1 ~m_id:1 ~func_id:7 ~allow:true;
         Alcotest.(check bool) "work visible" true (M.ring_claimable machine ~pid);
         (match M.ring_claim_next machine ~pid with
         | Some (1, 1, 7) -> ()
         | Some (s, m, f) -> Alcotest.failf "claimed (%d,%d,%d)" s m f
         | None -> Alcotest.fail "allow-stamped slot not claimable");
         (* Replay: the claim cursor is kernel-private and only moves
            forward — an executed seq can never be handed out again. *)
         Alcotest.(check bool) "no replay" true (M.ring_claim_next machine ~pid = None);
         Alcotest.(check bool) "drained" false (M.ring_claimable machine ~pid);
         (* Seq 6 wraps onto seq 2's slot of the four.  The walk from seq
            2 meets a record stamped for a later seq (slot 2), a slot
            never stamped (3), seq 0's denial (seq 4) and seq 1's allow
            record, stale for seq 5: only seq 6's own record is handed
            out. *)
         M.ring_record_stamp machine ~pid ~seq:6 ~m_id:1 ~func_id:8 ~allow:true;
         (match M.ring_claim_next machine ~pid with
         | Some (6, 1, 8) -> ()
         | Some (s, m, f) -> Alcotest.failf "claimed (%d,%d,%d) past stale records" s m f
         | None -> Alcotest.fail "wrapped allow record not claimable");
         Alcotest.(check bool) "drained after the wrap" true
           (M.ring_claim_next machine ~pid = None);
         checked := true));
  M.run machine;
  Alcotest.(check bool) "probe ran" true !checked

(* The shadow is flat int columns, fixed at registration: registering a
   16-slot ring and stamping every slot twice over retains at most 4
   words per slot plus 8, registration record and table bucket included,
   where a boxed record per stamped slot would cost 7 words a slot. *)
let test_shadow_words () =
  let machine = M.create () in
  let nslots = 16 in
  let p = M.spawn machine ~name:"shadow-words" ignore in
  let pid = p.Proc.pid in
  let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
  Aspace.obreak p.Proc.aspace (base + Ring.size_bytes ~nslots);
  (* Write the ring memory first, so the growth below is the kernel's. *)
  ignore (Ring.init p.Proc.aspace ~base ~nslots);
  let words () = Obj.reachable_words (Obj.repr machine) in
  let before = words () in
  ignore (M.syscall machine p Sysno.smod_ring_setup [| base; nslots |]);
  for seq = 0 to (2 * nslots) - 1 do
    M.ring_record_stamp machine ~pid ~seq ~m_id:1 ~func_id:seq ~allow:(seq mod 3 <> 0)
  done;
  let grown = words () - before and bound = (4 * nslots) + 8 in
  let label = Printf.sprintf "%d words for a registered 16-slot ring, at most %d" grown bound in
  Alcotest.(check bool) label true (grown <= bound)

(* ------------------------- setup validation ------------------------- *)

let setup_errno body =
  let machine = M.create () in
  let result = ref None in
  ignore
    (M.spawn machine ~name:"setup-probe" (fun p ->
         result :=
           Some
             (try
                ignore (M.syscall machine p Sysno.smod_ring_setup (body p));
                Ok ()
              with Errno.Error (e, _) -> Error e)));
  M.run machine;
  match !result with Some r -> r | None -> Alcotest.fail "probe never ran"

let test_setup_validation () =
  (* Outside the share window: the kernel would be stamping into memory
     the handle can never see. *)
  Alcotest.(check bool) "text-segment base refused" true
    (setup_errno (fun _p -> [| Layout.text_base; 8 |]) = Error Errno.EINVAL);
  Alcotest.(check bool) "misaligned base refused" true
    (setup_errno (fun _p -> [| Layout.data_base + 2; 8 |]) = Error Errno.EINVAL);
  Alcotest.(check bool) "zero slots refused" true
    (setup_errno (fun _p -> [| Layout.data_base; 0 |]) = Error Errno.EINVAL);
  Alcotest.(check bool) "oversized ring refused" true
    (setup_errno (fun _p -> [| Layout.data_base; M.max_ring_slots + 1 |]) = Error Errno.EINVAL);
  (* Inside the window but unmapped. *)
  Alcotest.(check bool) "unmapped base refused" true
    (setup_errno (fun _p -> [| Layout.data_base + 0x0100_0000; 8 |]) = Error Errno.EFAULT);
  (* A mapped, aligned, in-window ring registers fine. *)
  Alcotest.(check bool) "valid ring accepted" true
    (setup_errno (fun p ->
         let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
         Aspace.obreak p.Proc.aspace (base + Ring.size_bytes ~nslots:8);
         [| base; 8 |])
    = Ok ())

let test_setup_rezeroes () =
  (* Nothing the client pre-writes into the ring region survives
     registration: a pre-faked head/verdict is erased kernel-side. *)
  let machine = M.create () in
  let checked = ref false in
  ignore
    (M.spawn machine ~name:"rezero-probe" (fun p ->
         let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
         Aspace.obreak p.Proc.aspace (base + Ring.size_bytes ~nslots:8);
         let r = Ring.init p.Proc.aspace ~base ~nslots:8 in
         ignore (Ring.try_submit r ~m_id:9 ~func_id:9 ~client_sp:0 ~client_fp:0 ~args:[| 9 |]);
         Aspace.write_word p.Proc.aspace ~addr:(base + 8) 5 (* forged head *);
         ignore (M.syscall machine p Sysno.smod_ring_setup [| base; 8 |]);
         (match Ring.attach p.Proc.aspace ~base with
         | None -> Alcotest.fail "re-armed ring header unreadable"
         | Some r' ->
             Alcotest.(check int) "head reset" 0 (Ring.head r');
             Alcotest.(check int) "occupancy reset" 0 (Ring.occupancy r'));
         Alcotest.(check int) "stamped cursor starts at 0" 0
           (M.ring_stamped machine ~pid:p.Proc.pid);
         checked := true));
  M.run machine;
  Alcotest.(check bool) "probe ran" true !checked

(* ------------------------- end-to-end batches ------------------------ *)

let ok_or_fail i = function
  | Ok v -> v
  | Error (_, m) -> Alcotest.failf "slot %d failed: %s" i m

let test_batch_end_to_end () =
  let world = World.create ~with_rpc:false () in
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"ring-client" (fun _p conn ->
      let inputs = List.init 16 (fun i -> [| i |]) in
      results := Stub.call_batch conn ~func:"test_incr" inputs);
  World.run world;
  Alcotest.(check int) "16 results" 16 (List.length !results);
  List.iteri
    (fun i r -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i + 1) (ok_or_fail i r))
    !results

let test_batch_chunks_over_small_ring () =
  (* 10 calls through a 4-slot ring: three traps, same results. *)
  let world = World.create ~with_rpc:false () in
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"chunk-client" (fun _p conn ->
      ignore (Stub.arm_ring ~nslots:4 conn);
      results := Stub.call_batch conn ~func:"test_incr" (List.init 10 (fun i -> [| i * 3 |])));
  World.run world;
  Alcotest.(check int) "10 results" 10 (List.length !results);
  List.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "slot %d" i) ((i * 3) + 1) (ok_or_fail i r))
    !results

let test_mixed_ring_and_msgq () =
  (* A ring-engaged handle still serves plain msgq calls: batch, then a
     legacy call, then another batch, all on one session. *)
  let world = World.create ~with_rpc:false () in
  let ok = ref false in
  World.spawn_seclibc_client world ~name:"mixed-client" (fun _p conn ->
      let r1 = Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |] ] in
      let legacy = Stub.call conn ~func:"test_incr" [| 10 |] in
      let r2 = Stub.call_batch conn ~func:"test_incr" [ [| 20 |] ] in
      Alcotest.(check (list int)) "first batch" [ 2; 3 ]
        (List.mapi ok_or_fail r1);
      Alcotest.(check int) "legacy call between batches" 11 legacy;
      Alcotest.(check (list int)) "second batch" [ 21 ] (List.mapi ok_or_fail r2);
      ok := true);
  World.run world;
  Alcotest.(check bool) "client finished" true !ok

let test_stateful_policy_denies_per_slot () =
  (* Call_quota is stateful, so the batch path evaluates it per slot:
     the first 3 slots pass, the last 2 fail alone with EACCES — the
     batch itself succeeds. *)
  let world = World.create ~with_rpc:false ~policy:(Policy.Call_quota 3) () in
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"quota-client" (fun _p conn ->
      results := Stub.call_batch conn ~func:"test_incr" (List.init 5 (fun i -> [| i |])));
  World.run world;
  let statuses =
    List.map (function Ok _ -> `Ok | Error (e, _) -> `Err e) !results
  in
  Alcotest.(check int) "5 results" 5 (List.length statuses);
  List.iteri
    (fun i s ->
      if i < 3 then Alcotest.(check bool) (Printf.sprintf "slot %d allowed" i) true (s = `Ok)
      else
        Alcotest.(check bool)
          (Printf.sprintf "slot %d denied EACCES" i)
          true
          (s = `Err Errno.EACCES))
    statuses

(* Busy-reap from a raw client ring view, yielding so the handle runs. *)
let rec reap_yielding r budget =
  if budget = 0 then Alcotest.fail "no completion arrived"
  else
    match Ring.reap r with
    | Some (_seq, status, retval) -> (status, retval)
    | None ->
        Smod_kern.Sched.yield ();
        reap_yielding r (budget - 1)

let svm_runs () = Option.value ~default:0 (Smod_metrics.counter_value "svm.runs")

let test_forged_verdict_overwritten () =
  (* Two slots under a one-call quota: policy admits slot 0 and denies
     slot 1, whose verdict word the client stamps "allowed" before
     trapping and again after.  The kernel must complete slot 1 itself
     with status 6, and the handle, woken for slot 0, must never run it.
     Reaping slot 0 first lets the handle drain the ring before slot 1
     is read, so a handle that claimed the denied slot would have
     overwritten its status by then. *)
  let world = World.create ~with_rpc:false ~policy:(Policy.Call_quota 1) () in
  let results = ref [] and runs = ref 0 in
  World.spawn_seclibc_client world ~name:"forger" (fun p conn ->
      let r = Stub.arm_ring conn in
      let m_id = (Stub.conn_info conn).Wire.m_id in
      List.iter
        (fun v ->
          ignore
            (Ring.try_submit r ~m_id ~func_id:0 ~client_sp:p.Proc.sp ~client_fp:p.Proc.fp
               ~args:[| v |]))
        [ 41; 1 ];
      (* Slot 1's verdict word: header (32 B), one slot (64 B), 4 words in. *)
      let forge () = Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 32 + 64 + 16) 1 in
      forge ();
      let runs0 = svm_runs () in
      ignore (M.syscall world.World.machine p Sysno.smod_call_batch [| m_id; 2 |]);
      forge ();
      let first = reap_yielding r 10_000 in
      results := [ first; reap_yielding r 10_000 ];
      runs := svm_runs () - runs0);
  World.run world;
  Alcotest.(check (list (pair int int)))
    "slot 0 served, forged slot 1 denied kernel-side" [ (0, 42); (6, 0) ] !results;
  Alcotest.(check int) "the handle ran slot 0 only" 1 !runs

let test_func_swap_after_stamp_ignored () =
  (* TOCTOU on the identity words: the client submits test_incr (func 0),
     lets the kernel stamp it allowed, then rewrites the slot to abs
     (func 1) and re-forges verdict/state before the handle runs.  The
     handle must execute what was admitted — test_incr(41) = 42, not
     abs(41) = 41. *)
  let world = World.create ~with_rpc:false () in
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"func-swapper" (fun p conn ->
      let r = Stub.arm_ring conn in
      let m_id = (Stub.conn_info conn).Wire.m_id in
      Alcotest.(check (option int)) "abs is func 1" (Some 1) (Stub.func_id conn "abs");
      ignore
        (Ring.try_submit r ~m_id ~func_id:0 ~client_sp:p.Proc.sp ~client_fp:p.Proc.fp
           ~args:[| 41 |]);
      ignore
        (M.syscall world.World.machine p Sysno.smod_call_batch [| m_id; 1 |]);
      (* Slot 0 sits at header (32 B): state +0, func +12, verdict +16;
         shared claim-cursor word is header word 3. *)
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 32 + 12) 1;
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 32 + 16) 1;
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 32) 1;
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 12) 0;
      results := [ reap_yielding r 10_000 ]);
  World.run world;
  match !results with
  | [ (0, 42) ] -> ()
  | [ (st, rv) ] -> Alcotest.failf "swapped slot returned (%d,%d), wanted (0,42)" st rv
  | _ -> Alcotest.fail "no result"

let test_header_nslots_forgery_rejected () =
  (* Growing the header's nslots word after setup must not widen the
     kernel/handle view past the registered, validated region: the batch
     trap refuses the mismatched header outright. *)
  let world = World.create ~with_rpc:false () in
  let err = ref None in
  World.spawn_seclibc_client world ~name:"geom-forger" (fun p conn ->
      let r = Stub.arm_ring conn in
      let m_id = (Stub.conn_info conn).Wire.m_id in
      ignore
        (Ring.try_submit r ~m_id ~func_id:0 ~client_sp:p.Proc.sp ~client_fp:p.Proc.fp
           ~args:[| 1 |]);
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 4) 65536;
      match M.syscall world.World.machine p Sysno.smod_call_batch [| m_id; 1 |] with
      | _ -> err := Some `No_error
      | exception Errno.Error (e, _) -> err := Some (`Errno e));
  World.run world;
  Alcotest.(check bool) "batch refused with EINVAL" true
    (!err = Some (`Errno Errno.EINVAL))

let test_forged_head_bounded () =
  (* A forged head of 2^20 plus a huge max_slots must not drive one trap
     through a 2^20-iteration kernel loop: per-trap work is clamped by
     the registered slot count. *)
  let world = World.create ~with_rpc:false () in
  let stamped = ref (-1) in
  World.spawn_seclibc_client world ~name:"head-forger" (fun p conn ->
      let r = Stub.arm_ring ~nslots:4 conn in
      let m_id = (Stub.conn_info conn).Wire.m_id in
      ignore
        (Ring.try_submit r ~m_id ~func_id:0 ~client_sp:p.Proc.sp ~client_fp:p.Proc.fp
           ~args:[| 1 |]);
      Aspace.write_word p.Proc.aspace ~addr:(Ring.base r + 8) 0x100000;
      stamped :=
        M.syscall world.World.machine p Sysno.smod_call_batch [| m_id; 0x40000000 |]);
  World.run world;
  Alcotest.(check int) "one trap covers at most nslots slots" 4 !stamped

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ring"
    [
      ( "spsc ring",
        [
          tc "slot lifecycle" test_slot_lifecycle;
          tc "wrap + full" test_wrap_and_full;
          tc "claim skips kernel-completed" test_kernel_complete_skipped_by_claim;
          tc "shadow claim discipline" test_shadow_claim_discipline;
          tc "shadow words per slot" test_shadow_words;
        ] );
      ( "setup syscall",
        [
          tc "validation" test_setup_validation;
          tc "re-zeroes client writes" test_setup_rezeroes;
        ] );
      ( "batched dispatch",
        [
          tc "end-to-end" test_batch_end_to_end;
          tc "chunking over a small ring" test_batch_chunks_over_small_ring;
          tc "mixed ring + msgq" test_mixed_ring_and_msgq;
          tc "stateful policy denies per-slot" test_stateful_policy_denies_per_slot;
          tc "forged verdict overwritten" test_forged_verdict_overwritten;
          tc "func swap after stamp ignored" test_func_swap_after_stamp_ignored;
          tc "header nslots forgery rejected" test_header_nslots_forgery_rejected;
          tc "forged head bounded" test_forged_head_bounded;
        ] );
    ]
