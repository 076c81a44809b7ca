(* Checks shared by the tests of the three kinds of handle that serve a
   session: a cold forced fork, a pooled smodd handle and a mux fiber.
   Each check runs on a World whose encrypted seclibc is routed through
   one of them; [call conn v] runs seclibc's test_incr over whichever
   transport that kind serves. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Sched = Smod_kern.Sched
module Errno = Smod_kern.Errno
module Signal = Smod_kern.Signal
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Phys = Smod_vmem.Phys
module Smof = Smod_modfmt.Smof
module World = Smod_bench_kit.World
module Seclibc = Smod_libc.Seclibc
module Smodd = Smod_pool.Smodd
open Secmodule

let alice = Credential.make ~principal:"alice" ()

(* Encrypted under one key and registered under another: the text can
   never pass its digest check. *)
let register_wrong_key smod =
  let nonce = Bytes.make 16 'n' in
  let image =
    Smof.encrypt_text
      (Toolchain.assemble_module ~name:"wk" ~version:1 [ ("f", "push 7\nret\n") ])
      ~key:"0123456789abcdef" ~nonce
  in
  Smod.register smod ~image ~protection:Registry.Encrypted ~kernel_key:"fedcba9876543210"
    ~kernel_nonce:nonce ()

(* Two connects to that module both fail with ENOEXEC and leave no
   session, process, frame, pooled handle or stored image behind; the
   correctly keyed seclibc then still serves on the same world. *)
let check_fails_closed world ~call =
  let m = world.World.machine and smod = world.World.smod in
  let wk = register_wrong_key smod in
  let pooled_handles () =
    match world.World.pool with
    | Some pool -> (Smodd.status pool).Smodd.st_total_handles
    | None -> 0
  in
  let errnos = ref [] and served = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         (* Touch the top stack page first, so the stub's own writes there
            cannot pass for a frame that a failed connect left behind. *)
         Proc.push_word p 0;
         ignore (Proc.pop_word p);
         let state () =
           (List.length (M.live_procs m), Phys.live_frames (M.phys m), pooled_handles ())
         in
         let before = state () in
         for _ = 1 to 2 do
           match Stub.connect smod p ~module_name:"wk" ~version:1 ~credential:alice with
           | _ -> Alcotest.fail "connected to a module whose text fails verification"
           | exception Errno.Error (e, _) -> errnos := Errno.to_string e :: !errnos
         done;
         Alcotest.(check (triple int int int))
           "processes, frames, pooled handles" before (state ());
         Alcotest.(check int) "no session" 0 (List.length (Smod.active_sessions smod));
         let conn =
           Stub.connect smod p ~module_name:Seclibc.module_name ~version:Seclibc.version
             ~credential:alice
         in
         served := call conn 41;
         Stub.close conn));
  World.run world;
  Alcotest.(check (list string)) "both connects" [ "ENOEXEC"; "ENOEXEC" ] !errnos;
  Alcotest.(check bool) "entry stores no image" true (wk.Registry.linked = None);
  Alcotest.(check int) "seclibc still serves" 42 !served

(* Five sessions held open together, so each is a fresh install: every
   call returns the one stored linked image, and every handle's text
   pages, slack included, read byte-equal to the linked text read back
   from its chunks. *)
let check_installs_share_linked_image world ~call =
  let smod = world.World.smod and entry = world.World.libc_entry in
  let tenants = 5 in
  let images = ref [] and aspaces = ref [] and connected = ref 0 and served = ref 0 in
  for i = 1 to tenants do
    World.spawn_seclibc_client world ~name:(Printf.sprintf "tenant-%d" i) (fun p conn ->
        let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
        let aspace = Smod.handle_aspace smod session in
        let linked = Registry.linked_image entry in
        let len = Layout.page_align_up (Bytes.length entry.Registry.image.Smof.text) in
        let text = Phys.read_image (Registry.linked_text entry) ~pos:0 ~len in
        let mapped = Aspace.read_bytes aspace ~addr:Layout.module_text_base ~len in
        Alcotest.(check bool) "handle text is the linked text" true
          (len > 0 && Bytes.equal text mapped);
        images := linked :: !images;
        aspaces := aspace :: !aspaces;
        incr connected;
        while !connected < tenants do
          Sched.yield ()
        done;
        if call conn i = i + 1 then incr served)
  done;
  World.run world;
  let unique x = List.length (List.filter (( == ) x) !aspaces) = 1 in
  Alcotest.(check int) "every tenant served" tenants !served;
  Alcotest.(check bool) "one install per session" true
    (List.length !aspaces = tenants && List.for_all unique !aspaces);
  Alcotest.(check bool) "one linked image" true
    (List.for_all (( == ) (Registry.linked_image entry)) !images)

let msgq_call = Seclibc.Client.test_incr

(* One ring call of test_incr: its value, or the errno it failed with. *)
let ring_outcome conn v =
  match Stub.call_batch conn ~func:"test_incr" [ [| v |] ] with
  | [ Ok r ] -> Ok r
  | [ Error (e, _) ] -> Error e
  | _ -> Alcotest.fail "one call, one result"
  | exception Errno.Error (e, _) -> Error e

let ring_call conn v =
  match ring_outcome conn v with
  | Ok r -> r
  | Error e -> Alcotest.failf "ring call failed: %s" (Errno.to_string e)

let with_poller world =
  Smod.set_kernel_poller world.World.smod true;
  world

(* A handle killed after start_session but before its first
   session_info trap: the client waiting for the handshake gets an errno
   instead of waiting forever, and a later client is served. *)
let check_handshake_death world ~call =
  let m = world.World.machine and smod = world.World.smod in
  let waiter = ref (Ok ()) in
  let client =
    M.spawn m ~name:"client" (fun p ->
        match
          Stub.connect smod p ~module_name:Seclibc.module_name ~version:Seclibc.version
            ~credential:alice
        with
        | conn -> Stub.close conn
        | exception Errno.Error (e, _) -> waiter := Error e)
  in
  (* Queued after the client, the assassin runs once the client blocks
     in the handshake and before the handle's first turn. *)
  ignore
    (M.spawn m ~name:"assassin" (fun _ ->
         let session = Option.get (Smod.session_of_client smod ~client_pid:client.Proc.pid) in
         M.kill m ~pid:session.Smod.handle_pid ~signal:Signal.sigkill));
  (try World.run world with M.Deadlock d -> Alcotest.failf "deadlock: %s" d);
  Alcotest.(check bool) "the waiter gets an errno" true (Result.is_error !waiter);
  let late = ref 0 in
  World.spawn_seclibc_client world ~name:"late" (fun _p conn -> late := call conn 41);
  World.run world;
  Alcotest.(check int) "a later client is served" 42 !late

(* Five rounds of one session each, opened, used once as [call conn 128]
   and closed.  After every round no session is active, the live
   processes are back at the first round's count and physical frames are
   within 8 of it. *)
let check_release_conserves world ~call =
  let m = world.World.machine and smod = world.World.smod in
  let baseline = ref None in
  for round = 1 to 5 do
    World.spawn_seclibc_client world ~name:(Printf.sprintf "round-%d" round) (fun _p conn ->
        ignore (call conn 128));
    World.run world;
    let label what = Printf.sprintf "round %d: %s" round what in
    Alcotest.(check int) (label "no active session") 0
      (List.length (Smod.active_sessions smod));
    let procs = List.length (M.live_procs m) and frames = Phys.live_frames (M.phys m) in
    match !baseline with
    | None -> baseline := Some (procs, frames)
    | Some (procs0, frames0) ->
        Alcotest.(check int) (label "live processes") procs0 procs;
        Alcotest.(check bool)
          (label (Printf.sprintf "%d frames vs baseline %d" frames frames0))
          true
          (frames <= frames0 + 8)
  done

(* The death rule of every handle kind, over rings.  [world ()] builds a
   fresh world whose sessions all take one kind; [shared] says that kind
   serves every session from one handle (the mux).  The kernel kills a
   victim's handle, once between two of its batches and once while it
   waits mid-batch.  The victim gets an errno and World.run returns; a
   bystander session is still served or, on a shared handle, gets an
   errno too; a client that connects afterwards is served. *)
let check_handle_death ~world ~shared =
  List.iter
    (fun mid_batch ->
      let label what =
        Printf.sprintf "%s: %s" (if mid_batch then "mid-batch" else "between batches") what
      in
      let w = world () in
      let m = w.World.machine and smod = w.World.smod in
      let bystander_up = ref false and bystander_turn = Sched.waitq "bystander-turn" in
      let victim = ref (Ok 0) and bystander = ref (Ok 0) in
      World.spawn_seclibc_client w ~name:"bystander" (fun p conn ->
          ignore (ring_call conn 1);
          bystander_up := true;
          (* Blocked, not spinning: a victim that never wakes leaves
             World.run nothing to do, and it reports the deadlock. *)
          Sched.wait_on bystander_turn p.Proc.pid;
          bystander := ring_outcome conn 2);
      World.spawn_seclibc_client w ~name:"victim" (fun p conn ->
          while not !bystander_up do
            Sched.yield ()
          done;
          ignore (ring_call conn 1);
          let handle_pid =
            (Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid)).Smod.handle_pid
          in
          let kill () = M.kill m ~pid:handle_pid ~signal:Signal.sigkill in
          if mid_batch then begin
            (* Once the handle sleeps, an assassin spawned now runs before
               anything the batch wakes: it fires while the victim waits. *)
            while not (Proc.is_blocked (M.proc_exn m handle_pid)) do
              Sched.yield ()
            done;
            ignore (M.spawn m ~name:"assassin" (fun _ -> kill ()))
          end
          else kill ();
          victim := ring_outcome conn 2;
          ignore (M.wake m bystander_turn));
      let run () =
        try World.run w with M.Deadlock d -> Alcotest.failf "%s" (label ("deadlock: " ^ d))
      in
      run ();
      Alcotest.(check bool) (label "victim gets an errno") true (Result.is_error !victim);
      if shared then
        Alcotest.(check bool)
          (label "bystander gets an errno")
          true (Result.is_error !bystander)
      else Alcotest.(check bool) (label "bystander still served") true (!bystander = Ok 3);
      let late = ref 0 in
      World.spawn_seclibc_client w ~name:"late" (fun _p conn -> late := ring_call conn 41);
      run ();
      Alcotest.(check int) (label "a later client is served") 42 !late)
    [ false; true ]
