(* Checks shared by the tests of the three ways a module image gets
   installed into a handle: a cold forced fork, a pooled smodd spawn and
   a mux fiber.  Each check runs on a World whose encrypted seclibc is
   routed through one of them; [call conn v] runs seclibc's test_incr
   over whichever transport that path serves. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Sched = Smod_kern.Sched
module Errno = Smod_kern.Errno
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
   pages hold a byte-equal copy of its text. *)
let check_installs_share_linked_image world ~call =
  let smod = world.World.smod and entry = world.World.libc_entry in
  let tenants = 5 in
  let images = ref [] and aspaces = ref [] and connected = ref 0 and served = ref 0 in
  for i = 1 to tenants do
    World.spawn_seclibc_client world ~name:(Printf.sprintf "tenant-%d" i) (fun p conn ->
        let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
        let aspace = Smod.handle_aspace smod session in
        let linked = Registry.linked_image entry in
        let text = linked.Smof.text in
        Alcotest.(check bool) "handle text is the linked text" true
          (Bytes.equal text
             (Aspace.read_bytes aspace ~addr:Layout.module_text_base ~len:(Bytes.length text)));
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

let ring_call conn v =
  match Stub.call_batch conn ~func:"test_incr" [ [| v |] ] with
  | [ Ok r ] -> r
  | _ -> Alcotest.fail "ring call failed"
