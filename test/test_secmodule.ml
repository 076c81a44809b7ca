(* Tests for the SecModule core: registry, credentials, policies, the
   session lifecycle (Figures 1-2), the dispatch choreography (Figure 3),
   the syscall surface (Figure 4), text protection (§4.1), special
   functions (§4.3) and the TOCTOU attack with its mitigations (§4.4). *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Sched = Smod_kern.Sched
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno
module Signal = Smod_kern.Signal
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Phys = Smod_vmem.Phys
module Prot = Smod_vmem.Prot
module Smof = Smod_modfmt.Smof
module Keystore = Smod_keynote.Keystore
module Parse = Smod_keynote.Parse
module World = Smod_bench_kit.World
open Secmodule

let test_image ?(name = "testmod") () =
  let b = Smof.Builder.create ~name ~version:1 in
  ignore
    (Smof.Builder.add_function b ~name:"test_incr"
       ~code:(Smod_svm.Asm.assemble "loadarg 0\npush 1\nadd\nret")
       ());
  ignore
    (Smof.Builder.add_function b ~name:"add2"
       ~code:(Smod_svm.Asm.assemble "loadarg 0\nloadarg 1\nadd\nret")
       ());
  ignore
    (Smof.Builder.add_function b ~name:"crashy"
       ~code:(Smod_svm.Asm.assemble "push 1\npush 0\ndivu\nret")
       ());
  Smof.Builder.finish b

let cred name = Credential.make ~principal:name ()

let setup ?keystore ?protection ?policy () =
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m ?keystore () in
  let entry = Toolchain.package smod ~image:(test_image ()) ?protection ?policy () in
  (m, smod, entry)

let in_client ?(name = "client") m smod body =
  ignore
    (M.spawn m ~name (fun p ->
         Crt0.run_client smod p ~module_name:"testmod" ~version:1 ~credential:(cred "alice")
           (fun conn -> body p conn)));
  M.run m

(* ----------------------------- registry ---------------------------- *)

let test_registry_add_find () =
  let _, smod, entry = setup () in
  (match Registry.find (Smod.registry smod) ~name:"testmod" ~version:1 with
  | Some e -> Alcotest.(check int) "m_id" entry.Registry.m_id e.Registry.m_id
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "wrong version" true
    (Registry.find (Smod.registry smod) ~name:"testmod" ~version:2 = None)

let test_registry_collision () =
  let _, smod, _ = setup () in
  Alcotest.(check bool) "duplicate rejected" true
    (match Smod.register smod ~image:(test_image ()) () with
    | _ -> false
    | exception Registry.Already_registered _ -> true)

let test_registry_func_ids () =
  let _, _, entry = setup () in
  Alcotest.(check (option int)) "test_incr" (Some 0) (Registry.func_id entry "test_incr");
  Alcotest.(check (option int)) "add2" (Some 1) (Registry.func_id entry "add2");
  Alcotest.(check (option int)) "missing" None (Registry.func_id entry "nope");
  match Registry.symbol_of_func_id entry 0 with
  | Some s -> Alcotest.(check string) "id 0 name" "test_incr" s.Smof.sym_name
  | None -> Alcotest.fail "id 0 missing"

let test_registry_encrypted_needs_key () =
  let r = Registry.create () in
  let enc = Smof.encrypt_text (test_image ()) ~key:"0123456789abcdef" ~nonce:(Bytes.make 16 'n') in
  Alcotest.(check bool) "key required" true
    (match
       Registry.add r ~image:enc ~protection:Registry.Encrypted
         ~policy:Policy.Always_allow ~admin_principal:"root" ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_registry_remove () =
  let _, smod, entry = setup () in
  Registry.remove (Smod.registry smod) ~m_id:entry.Registry.m_id;
  Alcotest.(check bool) "gone" true
    (Registry.find_by_id (Smod.registry smod) entry.Registry.m_id = None);
  Alcotest.(check bool) "remove twice" true
    (match Registry.remove (Smod.registry smod) ~m_id:entry.Registry.m_id with
    | () -> false
    | exception Registry.Not_registered _ -> true)

(* ---------------------------- credentials -------------------------- *)

let test_credential_roundtrip () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"k";
  let a =
    Keystore.sign ks
      (Parse.assertion_of_string
         "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n\
          conditions: true -> \"allow\";\n")
  in
  let c = Credential.make ~principal:"alice" ~assertions:[ a ] () in
  let c2 = Credential.of_bytes (Credential.to_bytes c) in
  Alcotest.(check string) "principal" "alice" c2.Credential.principal;
  Alcotest.(check int) "assertions" 1 (List.length c2.Credential.assertions);
  Alcotest.(check bool) "signature survives" true (Credential.verify_signatures ks c2)

let test_credential_malformed () =
  Alcotest.(check bool) "empty" true
    (match Credential.of_bytes Bytes.empty with
    | _ -> false
    | exception Credential.Malformed _ -> true)

(* ------------------------------ policy ----------------------------- *)

let check_policy policy state attrs =
  let clock = Smod_sim.Clock.create ~jitter:0.0 () in
  Policy.check ~clock ~now_us:0.0 ~credential:(cred "alice") ~attrs policy state

let test_policy_always_allow () =
  let p = Policy.Always_allow in
  Alcotest.(check bool) "ok" true (check_policy p (Policy.initial_state p) [] = Ok ())

let test_policy_quota_counts_down () =
  let p = Policy.Call_quota 2 in
  let s = Policy.initial_state p in
  Alcotest.(check bool) "1st" true (check_policy p s [] = Ok ());
  Alcotest.(check bool) "2nd" true (check_policy p s [] = Ok ());
  Alcotest.(check bool) "3rd denied" true
    (match check_policy p s [] with Error _ -> true | Ok () -> false)

let test_policy_rate_limit_window () =
  let p = Policy.Rate_limit { max_calls = 2; window_us = 100.0 } in
  let s = Policy.initial_state p in
  let clock = Smod_sim.Clock.create ~jitter:0.0 () in
  let at t = Policy.check ~clock ~now_us:t ~credential:(cred "a") ~attrs:[] p s in
  Alcotest.(check bool) "1 ok" true (at 0.0 = Ok ());
  Alcotest.(check bool) "2 ok" true (at 1.0 = Ok ());
  Alcotest.(check bool) "3 denied in window" true (match at 2.0 with Error _ -> true | _ -> false);
  Alcotest.(check bool) "window reset" true (at 200.0 = Ok ())

let test_policy_time_window () =
  let p = Policy.Time_window { not_before_us = 10.0; not_after_us = 20.0 } in
  let clock = Smod_sim.Clock.create ~jitter:0.0 () in
  let at t =
    Policy.check ~clock ~now_us:t ~credential:(cred "a") ~attrs:[] p (Policy.initial_state p)
  in
  Alcotest.(check bool) "before" true (match at 5.0 with Error _ -> true | _ -> false);
  Alcotest.(check bool) "inside" true (at 15.0 = Ok ());
  Alcotest.(check bool) "after" true (match at 25.0 with Error _ -> true | _ -> false)

let test_policy_all_of () =
  let p = Policy.All_of [ Policy.Always_allow; Policy.Call_quota 1 ] in
  let s = Policy.initial_state p in
  Alcotest.(check bool) "first passes" true (check_policy p s [] = Ok ());
  Alcotest.(check bool) "quota member denies" true
    (match check_policy p s [] with Error _ -> true | _ -> false)

let test_policy_keynote_attrs () =
  let assertions =
    [
      Parse.assertion_of_string
        "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"alice\"\n\
         conditions: function == \"test_incr\" -> \"allow\";\n";
    ]
  in
  let p =
    Policy.Keynote
      { policy = assertions; levels = [| "deny"; "allow" |]; min_level = "allow"; attrs = [] }
  in
  let s = Policy.initial_state p in
  Alcotest.(check bool) "matching function" true
    (check_policy p s [ ("function", "test_incr") ] = Ok ());
  Alcotest.(check bool) "other function denied" true
    (match check_policy p s [ ("function", "crashy") ] with Error _ -> true | _ -> false)

(* --------------------------- session setup ------------------------- *)

let test_session_basic_call () =
  let m, smod, _ = setup () in
  let result = ref 0 in
  in_client m smod (fun _p conn -> result := Stub.call conn ~func:"test_incr" [| 41 |]);
  Alcotest.(check int) "42" 42 !result

let test_session_multiple_args () =
  let m, smod, _ = setup () in
  let result = ref 0 in
  in_client m smod (fun _p conn -> result := Stub.call conn ~func:"add2" [| 30; 12 |]);
  Alcotest.(check int) "add2" 42 !result

let test_session_unknown_module () =
  let m, smod, _ = setup () in
  let failed = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         match
           Stub.connect smod p ~module_name:"ghost" ~version:1 ~credential:(cred "a")
         with
         | _ -> ()
         | exception Errno.Error (Errno.ENOENT, _) -> failed := true));
  M.run m;
  Alcotest.(check bool) "ENOENT" true !failed

let test_session_wrong_version () =
  let m, smod, _ = setup () in
  let failed = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         match
           Stub.connect smod p ~module_name:"testmod" ~version:9 ~credential:(cred "a")
         with
         | _ -> ()
         | exception Errno.Error (Errno.ENOENT, _) -> failed := true));
  M.run m;
  Alcotest.(check bool) "version is part of identity" true !failed

let test_second_session_rejected () =
  let m, smod, _ = setup () in
  let failed = ref false in
  in_client m smod (fun p _conn ->
      match Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a") with
      | _ -> ()
      | exception Errno.Error (Errno.EEXIST, _) -> failed := true);
  Alcotest.(check bool) "EEXIST" true !failed

let test_handshake_trace_order () =
  (* Figure 1: start_session precedes session_info precedes first call. *)
  let m, smod, _ = setup () in
  in_client m smod (fun _p conn -> ignore (Stub.call conn ~func:"test_incr" [| 1 |]));
  let labels = Smod_sim.Trace.labels (M.trace m) in
  let index_of needle =
    let rec go i = function
      | [] -> -1
      | l :: rest ->
          let n = String.length needle in
          if String.length l >= n && String.sub l 0 n = needle then i else go (i + 1) rest
    in
    go 0 labels
  in
  let start = index_of "start_session" and info = index_of "session_info" in
  Alcotest.(check bool) "both traced" true (start >= 0 && info >= 0);
  Alcotest.(check bool) "ordered" true (start < info)

let test_session_roles_and_flags () =
  let m, smod, _ = setup () in
  in_client m smod (fun p _conn ->
      let session =
        match Smod.session_of_client smod ~client_pid:p.Proc.pid with
        | Some s -> s
        | None -> Alcotest.fail "session missing"
      in
      Alcotest.(check bool) "client role" true (Proc.is_smod_client p);
      let handle = M.proc_exn m session.Smod.handle_pid in
      Alcotest.(check bool) "handle role" true (Proc.is_smod_handle handle);
      Alcotest.(check bool) "handle no core" true handle.Proc.no_core_dump;
      Alcotest.(check bool) "handle no ptrace" true handle.Proc.no_ptrace;
      Alcotest.(check bool) "handle is daemon" true handle.Proc.daemon)

(* --------------------- Figure 2: address spaces --------------------- *)

let test_layout_shared_range () =
  let m, smod, _ = setup () in
  in_client m smod (fun p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      let session =
        Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid)
      in
      let handle_as = Smod.handle_aspace smod session in
      (* Stack pages (inside the share range) are the same frames. *)
      let stack_addr = p.Proc.sp land lnot (Layout.page_size - 1) in
      Alcotest.(check bool) "stack frame shared" true
        (Aspace.frame_id p.Proc.aspace stack_addr = Aspace.frame_id handle_as stack_addr);
      (* The secret segment exists only in the handle. *)
      Alcotest.(check bool) "secret in handle" true
        (Aspace.find_entry handle_as Layout.secret_base <> None);
      Alcotest.(check bool) "no secret in client" true
        (Aspace.find_entry p.Proc.aspace Layout.secret_base = None);
      (* Module text exists only in the handle. *)
      Alcotest.(check bool) "module text in handle" true
        (Aspace.find_entry handle_as 0x0060_0000 <> None);
      Alcotest.(check bool) "no module text in client" true
        (Aspace.find_entry p.Proc.aspace 0x0060_0000 = None))

let test_client_cannot_read_secret_segment () =
  let m, smod, _ = setup () in
  let faulted = ref false in
  in_client m smod (fun p _conn ->
      match Aspace.read_word p.Proc.aspace ~addr:Layout.secret_base with
      | _ -> ()
      | exception Aspace.Segv _ -> faulted := true);
  Alcotest.(check bool) "secret unreachable from client" true !faulted

let test_client_cannot_read_module_text () =
  let m, smod, _ = setup () in
  let faulted = ref false in
  in_client m smod (fun p _conn ->
      match Aspace.read_word p.Proc.aspace ~addr:0x0060_0000 with
      | _ -> ()
      | exception Aspace.Segv _ -> faulted := true);
  Alcotest.(check bool) "module text unreachable" true !faulted

(* --------------------- Figure 3: stack choreography ------------------ *)

let test_stack_choreography_words () =
  let m, smod, entry = setup () in
  in_client m smod (fun p conn ->
      let rd off = Aspace.read_word p.Proc.aspace ~addr:(p.Proc.sp + (4 * off)) in
      let sp_before = p.Proc.sp in
      let checked = ref 0 in
      let result =
        Stub.call conn
          ~on_step:(fun step ->
            match step with
            | 1 ->
                (* [saved FP; return addr; arg1] *)
                Alcotest.(check int) "state1 return addr" 0x0000BEE4 (rd 1);
                Alcotest.(check int) "state1 arg1" 41 (rd 2);
                Alcotest.(check int) "FP names saved-FP slot" p.Proc.sp p.Proc.fp;
                incr checked
            | 2 ->
                (* [dup FP; dup ret; funcID; moduleID; saved FP; ret; arg1] *)
                Alcotest.(check int) "dup return addr" 0x0000BEE4 (rd 1);
                Alcotest.(check int) "funcID" 0 (rd 2);
                Alcotest.(check int) "moduleID" entry.Registry.m_id (rd 3);
                Alcotest.(check int) "arg1 above frame" 41 (rd 6);
                incr checked
            | 4 ->
                Alcotest.(check int) "sp fully restored" sp_before p.Proc.sp;
                incr checked
            | _ -> ())
          ~func:"test_incr" [| 41 |]
      in
      Alcotest.(check int) "result" 42 result;
      Alcotest.(check int) "all steps observed" 3 !checked)

(* A keynote policy that licenses alice for every function but add2. *)
let deny_add2 =
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"alice\"\n\
             conditions: function != \"add2\" -> \"allow\";\n";
        ];
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [];
    }

(* A call that fails in the kernel unwinds its whole frame: 20,000
   denials (and a few faults) would otherwise leave 8 words each on the
   client stack, overrunning its 64 pages. *)
let test_failed_calls_unwind_frame () =
  let m, smod, _ = setup ~policy:deny_add2 () in
  let finished = ref false in
  in_client m smod (fun p conn ->
      let sp0 = p.Proc.sp and fp0 = p.Proc.fp in
      let pages0 = Aspace.mapped_page_count p.Proc.aspace in
      let denied = ref 0 and faulted = ref 0 in
      for i = 1 to 20_000 do
        match Stub.call conn ~func:"add2" [| i; i |] with
        | _ -> ()
        | exception Errno.Error (Errno.EACCES, _) -> incr denied
      done;
      for _ = 1 to 100 do
        match Stub.call conn ~func:"crashy" [||] with
        | _ -> ()
        | exception Errno.Error (Errno.EFAULT, _) -> incr faulted
      done;
      Alcotest.(check int) "every add2 denied" 20_000 !denied;
      Alcotest.(check int) "every crashy faulted" 100 !faulted;
      Alcotest.(check int) "sp unchanged" sp0 p.Proc.sp;
      Alcotest.(check int) "fp unchanged" fp0 p.Proc.fp;
      Alcotest.(check int) "no stack pages mapped" pages0
        (Aspace.mapped_page_count p.Proc.aspace);
      Alcotest.(check int) "next call works" 42 (Stub.call conn ~func:"test_incr" [| 41 |]);
      finished := true);
  Alcotest.(check bool) "client ran to the end" true !finished

let test_denied_connect_restores_sp () =
  let m, smod, _ = setup ~policy:deny_add2 () in
  let outcome = ref `Not_run in
  ignore
    (M.spawn m ~name:"mallory" (fun p ->
         let sp0 = p.Proc.sp in
         match
           Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "mallory")
         with
         | _ -> outcome := `Connected
         | exception Errno.Error (Errno.EACCES, _) -> outcome := `Denied (p.Proc.sp - sp0)));
  M.run m;
  Alcotest.(check bool) "denied with sp restored" true (!outcome = `Denied 0)

let test_args_read_from_shared_stack () =
  (* The handle reads args from the client's stack memory, not a copy:
     overwrite the stack slot from the handle side via a module function
     that returns its own argument address contents. *)
  let m, smod, _ = setup () in
  in_client m smod (fun _p conn ->
      Alcotest.(check int) "arg travels via memory" 100
        (Stub.call conn ~func:"test_incr" [| 99 |]))

let test_unknown_function_rejected () =
  let m, smod, _ = setup () in
  let bad_name = ref false and bad_id = ref false in
  in_client m smod (fun _p conn ->
      (match Stub.call conn ~func:"missing" [||] with
      | _ -> ()
      | exception Invalid_argument _ -> bad_name := true);
      match Stub.call_id conn ~func_id:99 [||] with
      | _ -> ()
      | exception Errno.Error (Errno.EINVAL, _) -> bad_id := true);
  Alcotest.(check bool) "unknown name" true !bad_name;
  Alcotest.(check bool) "unknown id -> EINVAL" true !bad_id

let test_module_fault_becomes_efault () =
  let m, smod, _ = setup () in
  let got = ref false in
  in_client m smod (fun _p conn ->
      match Stub.call conn ~func:"crashy" [||] with
      | _ -> ()
      | exception Errno.Error (Errno.EFAULT, _) -> got := true);
  Alcotest.(check bool) "EFAULT" true !got;
  (* The session survives a faulting call. *)
  let m2, smod2, _ = setup () in
  let after = ref 0 in
  in_client m2 smod2 (fun _p conn ->
      (try ignore (Stub.call conn ~func:"crashy" [||]) with Errno.Error _ -> ());
      after := Stub.call conn ~func:"test_incr" [| 1 |]);
  Alcotest.(check int) "session still works" 2 !after

(* ------------------------- policy enforcement ----------------------- *)

let test_quota_enforced_per_call () =
  let m, smod, _ = setup ~policy:(Policy.Call_quota 2) () in
  let results = ref [] in
  in_client m smod (fun _p conn ->
      for i = 1 to 3 do
        match Stub.call conn ~func:"test_incr" [| i |] with
        | v -> results := `Ok v :: !results
        | exception Errno.Error (Errno.EACCES, _) -> results := `Denied :: !results
      done);
  Alcotest.(check int) "three outcomes" 3 (List.length !results);
  Alcotest.(check bool) "third denied" true (List.hd !results = `Denied)

let test_keynote_policy_gates_session () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m ~keystore:ks () in
  let policy =
    Policy.Keynote
      {
        policy =
          [
            Parse.assertion_of_string
              "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
               conditions: module == \"testmod\" -> \"allow\";\n";
          ];
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  ignore (Toolchain.package smod ~image:(test_image ()) ~policy ());
  let license =
    Keystore.sign ks
      (Parse.assertion_of_string
         "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n\
          conditions: true -> \"allow\";\n")
  in
  let outcomes = ref [] in
  let attempt name credential =
    ignore
      (M.spawn m ~name (fun p ->
           match
             Crt0.run_client smod p ~module_name:"testmod" ~version:1 ~credential
               (fun conn -> Stub.call conn ~func:"test_incr" [| 1 |])
           with
           | v -> outcomes := (name, `Ok v) :: !outcomes
           | exception Errno.Error (Errno.EACCES, _) -> outcomes := (name, `Denied) :: !outcomes))
  in
  attempt "alice" (Credential.make ~principal:"alice" ~assertions:[ license ] ());
  attempt "mallory" (Credential.make ~principal:"mallory" ());
  M.run m;
  Alcotest.(check bool) "alice allowed" true (List.assoc "alice" !outcomes = `Ok 2);
  Alcotest.(check bool) "mallory denied" true (List.assoc "mallory" !outcomes = `Denied)

let test_forged_signature_rejected () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m ~keystore:ks () in
  ignore (Toolchain.package smod ~image:(test_image ()) ());
  let forged =
    let a =
      Keystore.sign ks
        (Parse.assertion_of_string
           "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n")
    in
    { a with Smod_keynote.Ast.licensees = Smod_keynote.Ast.L_principal "mallory" }
  in
  let denied = ref false in
  ignore
    (M.spawn m ~name:"mallory" (fun p ->
         match
           Stub.connect smod p ~module_name:"testmod" ~version:1
             ~credential:(Credential.make ~principal:"mallory" ~assertions:[ forged ] ())
         with
         | _ -> ()
         | exception Errno.Error (Errno.EACCES, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "forged credential rejected" true !denied

(* ----------------------- text protection (4.1) ---------------------- *)

let test_encrypted_module_executes () =
  let m, smod, _ = setup ~protection:Registry.Encrypted () in
  ignore smod;
  let result = ref 0 in
  in_client m smod (fun _p conn -> result := Stub.call conn ~func:"test_incr" [| 41 |]);
  Alcotest.(check int) "works through decryption" 42 !result

let test_registered_image_is_ciphertext () =
  let _, smod, entry = setup ~protection:Registry.Encrypted () in
  ignore smod;
  Alcotest.(check bool) "flag" true entry.Registry.image.Smof.encrypted;
  (* The stored text must differ from the plaintext build. *)
  let plain = test_image () in
  Alcotest.(check bool) "ciphertext differs" false
    (Bytes.equal entry.Registry.image.Smof.text plain.Smof.text)

let test_tampered_handle_text_detected () =
  (* What runs is what is mapped: a native's stand-in text is compared
     with the handle's mapped bytes on every call, so text the kernel
     rewrites between two calls is refused, while an untouched native and
     bytecode are still served. *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  ignore (Smod_libc.Seclibc.install smod ());
  let first = ref 0 and second = ref (Ok 0) and pid = ref 0 and client_pid = ref 0 in
  let incr = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         client_pid := p.Proc.pid;
         Crt0.run_client smod p ~module_name:"seclibc" ~version:1
           ~credential:(cred "alice") (fun conn ->
             let s = Smod_libc.Seclibc.Client.malloc conn 8 in
             Aspace.write_string p.Proc.aspace ~addr:s "abc";
             first := Smod_libc.Seclibc.Client.strlen conn s;
             (* Flip four bytes of 'strlen' in the handle's text, through
                the kernel: the whole module-text entry goes rw and back. *)
             let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
             let handle_as = Smod.handle_aspace smod session in
             let sym = Option.get (Smof.find_symbol session.Smod.entry.Registry.image "strlen") in
             let addr = Layout.module_text_base + sym.Smof.sym_offset in
             let text = Option.get (Aspace.find_entry handle_as addr) in
             let start_addr = text.Aspace.start_addr in
             let size = text.Aspace.end_addr - start_addr in
             let flipped = Bytes.map (fun c -> Char.chr (Char.code c lxor 0xff)) in
             Aspace.protect_range handle_as ~start_addr ~size ~prot:Prot.rw;
             let original = Aspace.read_bytes handle_as ~addr ~len:4 in
             Aspace.write_bytes handle_as ~addr (flipped original);
             Aspace.protect_range handle_as ~start_addr ~size ~prot:Prot.rx;
             (second :=
                match Smod_libc.Seclibc.Client.strlen conn s with
                | n -> Ok n
                | exception Errno.Error (e, _) -> Error e);
             pid := Smod_libc.Seclibc.Client.getpid conn;
             incr := Smod_libc.Seclibc.Client.test_incr conn 41)));
  M.run m;
  Alcotest.(check int) "strlen served before the rewrite" 3 !first;
  Alcotest.(check bool) "rewritten strlen -> EACCES" true (!second = Error Errno.EACCES);
  Alcotest.(check int) "getpid still served" !client_pid !pid;
  Alcotest.(check int) "test_incr still served" 42 !incr

let test_rewritten_bytecode_runs () =
  (* What runs is what is mapped, for bytecode too: an immediate the
     kernel rewrites in the handle's text between two calls is what the
     next call executes, and text made non-executable no longer runs. *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  ignore (Smod_libc.Seclibc.install smod ());
  let first = ref 0 and immediate = ref 0 and second = ref 0 in
  let third = ref (Ok 0) in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"seclibc" ~version:1
           ~credential:(cred "alice") (fun conn ->
             first := Smod_libc.Seclibc.Client.test_incr conn 41;
             let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
             let handle_as = Smod.handle_aspace smod session in
             let sym =
               Option.get (Smof.find_symbol session.Smod.entry.Registry.image "test_incr")
             in
             (* "loadarg 0" is two bytes; "push 1"'s immediate follows its opcode. *)
             let addr = Layout.module_text_base + sym.Smof.sym_offset + 3 in
             let text = Option.get (Aspace.find_entry handle_as addr) in
             let start_addr = text.Aspace.start_addr in
             let size = text.Aspace.end_addr - start_addr in
             immediate := Aspace.read_word handle_as ~addr;
             Aspace.protect_range handle_as ~start_addr ~size ~prot:Prot.rw;
             Aspace.write_word handle_as ~addr 100;
             Aspace.protect_range handle_as ~start_addr ~size ~prot:Prot.rx;
             second := Smod_libc.Seclibc.Client.test_incr conn 41;
             Aspace.protect_range handle_as ~start_addr ~size ~prot:Prot.r;
             third :=
               match Smod_libc.Seclibc.Client.test_incr conn 41 with
               | n -> Ok n
               | exception Errno.Error (e, _) -> Error e)));
  M.run m;
  Alcotest.(check int) "served before the rewrite" 42 !first;
  Alcotest.(check int) "push 1's immediate" 1 !immediate;
  Alcotest.(check int) "rewritten immediate runs" 141 !second;
  Alcotest.(check bool) "non-executable text -> EFAULT" true (!third = Error Errno.EFAULT)

(* Make the whole module-text entry of [handle_as] [prot], as the kernel
   would. *)
let protect_module_text handle_as prot =
  let text = Option.get (Aspace.find_entry handle_as Layout.module_text_base) in
  let start_addr = text.Aspace.start_addr in
  Aspace.protect_range handle_as ~start_addr ~size:(text.Aspace.end_addr - start_addr) ~prot

(* A native call on module text the handle cannot read fails as a
   bytecode call does, with EFAULT, and the handle and its session live
   on: the native stand-in check reads the mapped bytes under the same
   handler as the call. *)
let check_unreadable_text_efault world =
  let m = world.World.machine and smod = world.World.smod in
  let outcomes = ref [] and alive = ref false in
  World.spawn_seclibc_client world ~name:"client" (fun p conn ->
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      protect_module_text (Smod.handle_aspace smod session) Prot.x;
      let outcome call =
        match call conn with
        | n -> string_of_int n
        | exception Errno.Error (e, _) -> Errno.to_string e
      in
      let test_incr conn = Smod_libc.Seclibc.Client.test_incr conn 41 in
      outcomes := List.map outcome [ test_incr; Smod_libc.Seclibc.Client.getpid; test_incr ];
      let handle_alive =
        match M.proc m session.Smod.handle_pid with
        | Some h -> not (Proc.is_zombie h)
        | None -> false
      in
      alive := handle_alive && Smod.session_of_client smod ~client_pid:p.Proc.pid <> None);
  World.run world;
  let efault = [ "EFAULT"; "EFAULT"; "EFAULT" ] in
  Alcotest.(check (list string)) "test_incr, getpid, test_incr" efault !outcomes;
  Alcotest.(check bool) "handle and session alive" true !alive

let test_unreadable_text_efault_forked () =
  check_unreadable_text_efault (World.create ~jitter:0.0 ~with_rpc:false ())

let test_unreadable_text_efault_pooled () =
  check_unreadable_text_efault
    (World.create ~jitter:0.0 ~pool:Smod_pool.Smodd.default_config ~with_rpc:false ())

(* Every handle's text shares its entry's one linked text
   (Registry.linked_text): the kernel rewriting one handle's text, as in
   "rewritten bytecode runs", copies what it writes, so another open
   session and a later install still run the original and the linked
   text reads back unchanged. *)
let test_text_rewrite_stays_in_one_handle () =
  let world = World.create ~jitter:0.0 ~with_rpc:false () in
  let smod = world.World.smod and entry = world.World.libc_entry in
  let linked_text () =
    Phys.read_image (Registry.linked_text entry) ~pos:0
      ~len:(Bytes.length entry.Registry.image.Smof.text)
  in
  let original = linked_text () in
  let test_incr conn = Smod_libc.Seclibc.Client.test_incr conn 41 in
  let connected = ref 0 and rewritten = ref false in
  let rewritten_result = ref 0 and other = ref 0 and later = ref 0 in
  World.spawn_seclibc_client world ~name:"rewriter" (fun p conn ->
      incr connected;
      while !connected < 2 do
        Sched.yield ()
      done;
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      let handle_as = Smod.handle_aspace smod session in
      let sym = Option.get (Smof.find_symbol entry.Registry.image "test_incr") in
      protect_module_text handle_as Prot.rw;
      Aspace.write_word handle_as ~addr:(Layout.module_text_base + sym.Smof.sym_offset + 3) 100;
      protect_module_text handle_as Prot.rx;
      rewritten := true;
      rewritten_result := test_incr conn);
  World.spawn_seclibc_client world ~name:"other" (fun _ conn ->
      incr connected;
      while not !rewritten do
        Sched.yield ()
      done;
      other := test_incr conn);
  World.run world;
  World.spawn_seclibc_client world ~name:"later" (fun _ conn -> later := test_incr conn);
  World.run world;
  Alcotest.(check int) "rewritten handle runs the rewrite" 141 !rewritten_result;
  Alcotest.(check int) "other session runs the original" 42 !other;
  Alcotest.(check int) "a later install runs the original" 42 !later;
  Alcotest.(check bool) "linked text unchanged" true
    (Bytes.length original > 0 && Bytes.equal original (linked_text ()))

(* The cross-world twin: every world's seclibc handles map the one text
   linked when seclibc was sealed, so the kernel rewriting a handle's
   text in one world copies what it writes, and neither a handle of
   another world nor the shared text sees the rewrite. *)
let test_text_rewrite_stays_in_one_world () =
  let rewriting = World.create ~jitter:0.0 ~with_rpc:false () in
  let other = World.create ~jitter:0.0 ~with_rpc:false () in
  let entry = rewriting.World.libc_entry in
  let len = Bytes.length entry.Registry.image.Smof.text in
  let shared () = Phys.read_image (Registry.linked_text entry) ~pos:0 ~len in
  let original = shared () in
  let handle_text world p =
    let session = Option.get (Smod.session_of_client world.World.smod ~client_pid:p.Proc.pid) in
    Smod.handle_aspace world.World.smod session
  in
  let test_incr conn = Smod_libc.Seclibc.Client.test_incr conn 41 in
  let rewritten = ref 0 and served = ref 0 and other_text = ref Bytes.empty in
  World.spawn_seclibc_client rewriting ~name:"rewriter" (fun p conn ->
      let handle_as = handle_text rewriting p in
      let sym = Option.get (Smof.find_symbol entry.Registry.image "test_incr") in
      protect_module_text handle_as Prot.rw;
      Aspace.write_word handle_as ~addr:(Layout.module_text_base + sym.Smof.sym_offset + 3) 100;
      protect_module_text handle_as Prot.rx;
      rewritten := test_incr conn);
  World.run rewriting;
  World.spawn_seclibc_client other ~name:"other" (fun p conn ->
      other_text := Aspace.read_bytes (handle_text other p) ~addr:Layout.module_text_base ~len;
      served := test_incr conn);
  World.run other;
  Alcotest.(check bool) "the worlds share one linked text" true
    (Registry.linked_text entry == Registry.linked_text other.World.libc_entry);
  Alcotest.(check int) "rewritten handle runs the rewrite" 141 !rewritten;
  Alcotest.(check int) "the other world runs the original" 42 !served;
  Alcotest.(check bool) "the other world's handle text is the original" true
    (len > 0 && Bytes.equal original !other_text);
  Alcotest.(check bool) "shared text unchanged" true (Bytes.equal original (shared ()))

let test_native_integrity_check () =
  (* Swap the native binding's expected bytes by registering a module
     whose native symbol name does not match the stub image content. *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  let b = Smof.Builder.create ~name:"evil" ~version:1 in
  (* Text bytes generated for native key "genuine"... *)
  ignore (Smof.Builder.add_native_function b ~name:"f" ~native:"genuine" ~size_hint:32 ());
  let image = Smof.Builder.finish b in
  (* ...but the symbol is redirected to claim it is "other" — the mapped
     bytes will not match "other"'s expected stub image. *)
  let tampered_symbols =
    List.map
      (fun s -> if s.Smof.sym_name = "f" then { s with Smof.sym_kind = Smof.Native "other" } else s)
      image.Smof.symbols
  in
  let tampered = { image with Smof.symbols = tampered_symbols } in
  let entry = Smod.register smod ~image:tampered () in
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"other" (fun _ _ ~args_base:_ -> 7);
  let caught = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"evil" ~version:1 ~credential:(cred "x")
           (fun conn ->
             match Stub.call conn ~func:"f" [||] with
             | _ -> ()
             | exception Errno.Error (Errno.EACCES, _) -> caught := true)));
  M.run m;
  Alcotest.(check bool) "integrity mismatch -> EACCES" true !caught

let test_unbound_native_enosys () =
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  let b = Smof.Builder.create ~name:"nobind" ~version:1 in
  ignore (Smof.Builder.add_native_function b ~name:"f" ~native:"unbound" ~size_hint:16 ());
  ignore (Smod.register smod ~image:(Smof.Builder.finish b) ());
  let caught = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"nobind" ~version:1 ~credential:(cred "x")
           (fun conn ->
             match Stub.call conn ~func:"f" [||] with
             | _ -> ()
             | exception Errno.Error (Errno.ENOSYS, _) -> caught := true)));
  M.run m;
  Alcotest.(check bool) "ENOSYS" true !caught

let test_unmap_only_removes_plain_library () =
  (* §4.1 approach 2: a client that had a plain copy of the library mapped
     loses it at session establishment. *)
  let m, smod, _ = setup ~protection:Registry.Unmap_only () in
  let before = ref false and after = ref true in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         (* Pre-map a plain image of the library. *)
         Aspace.add_entry p.Proc.aspace ~start_addr:0x0020_0000 ~size:Layout.page_size
           ~prot:Prot.rx ~kind:Aspace.Mmap ~name:"lib:testmod";
         before := Aspace.find_entry p.Proc.aspace 0x0020_0000 <> None;
         Crt0.run_client smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
           (fun _conn -> after := Aspace.find_entry p.Proc.aspace 0x0020_0000 <> None)));
  M.run m;
  Alcotest.(check bool) "was mapped" true !before;
  Alcotest.(check bool) "forcibly unmapped" false !after

(* ------------------------- install once (4.1) ------------------------ *)

let mux_world () =
  let world = World.create ~with_rpc:false () in
  Smod.set_kernel_poller world.World.smod true;
  Smod.set_session_mux world.World.smod true;
  world

let test_wrong_key_fails_closed_cold () =
  Install_paths.check_fails_closed (World.create ~with_rpc:false ())
    ~call:Install_paths.msgq_call

let test_wrong_key_fails_closed_mux () =
  Install_paths.check_fails_closed (mux_world ()) ~call:Install_paths.ring_call

let test_cold_installs_share_linked_image () =
  Install_paths.check_installs_share_linked_image (World.create ~with_rpc:false ())
    ~call:Install_paths.msgq_call

let test_mux_installs_share_linked_image () =
  Install_paths.check_installs_share_linked_image (mux_world ()) ~call:Install_paths.ring_call

(* Seclibc is sealed, and so linked, once per program: each world's entry
   adopts that link when it registers, so every world maps one linked
   text, whichever domain built it, and serves test_incr from it. *)
let test_worlds_share_sealed_link () =
  let serve () =
    let world = World.create ~jitter:0.0 ~with_rpc:false () in
    let entry = world.World.libc_entry in
    let linked_at_registration = entry.Registry.linked <> None in
    let served = ref 0 in
    World.spawn_seclibc_client world ~name:"client" (fun _ conn ->
        served := Smod_libc.Seclibc.Client.test_incr conn 41);
    World.run world;
    (linked_at_registration, Registry.linked_text entry, !served)
  in
  let _, text, _ = serve () in
  List.iter
    (fun (label, (linked_at_registration, text', served)) ->
      Alcotest.(check bool) (label ^ ": linked at registration") true linked_at_registration;
      Alcotest.(check bool) (label ^ ": the shared text") true (text' == text);
      Alcotest.(check int) (label ^ ": test_incr 41") 42 served)
    [
      ("first world", serve ());
      ("second world", serve ());
      ("world on another domain", Domain.join (Domain.spawn serve));
    ]

(* Links offered to the kernel that were not made from the entry's own
   image, key and nonce.  None is adopted: the entry stores no link at
   registration and links itself on first use, serving its own code or,
   when its text fails the digest check, failing closed with ENOEXEC and
   storing nothing. *)
let test_foreign_link_not_adopted () =
  let key = "0123456789abcdef" and nonce = Bytes.make 16 'n' in
  let encrypted name ~add =
    Smof.encrypt_text
      (Toolchain.assemble_module ~name ~version:1
         [ ("f", Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" add) ])
      ~key ~nonce
  in
  let plus1 = encrypted "plus1" ~add:1 in
  let flipped =
    let text = Bytes.copy plus1.Smof.text in
    Bytes.set text 0 (Char.chr (Char.code (Bytes.get text 0) lxor 1));
    { plus1 with Smof.text }
  in
  let link = Registry.link_image plus1 ~key:(Some key) ~nonce:(Some nonce) in
  List.iter
    (fun (label, image, kernel_key, want) ->
      let m = M.create ~jitter:0.0 () in
      let smod = Smod.install m () in
      let entry =
        Smod.register smod ~image ~protection:Registry.Encrypted ~kernel_key ~kernel_nonce:nonce
          ~link ()
      in
      Alcotest.(check bool) (label ^ ": not adopted") true (entry.Registry.linked = None);
      let got = ref (Error "never ran") in
      ignore
        (M.spawn m ~name:"client" (fun p ->
             got :=
               match
                 Stub.connect smod p ~module_name:image.Smof.mod_name ~version:1
                   ~credential:(cred "alice")
               with
               | conn ->
                   let r = Stub.call conn ~func:"f" [| 40 |] in
                   Stub.close conn;
                   Ok r
               | exception Errno.Error (e, _) -> Error (Errno.to_string e)));
      M.run m;
      Alcotest.(check (result int string)) (label ^ ": f 40") want !got;
      Alcotest.(check bool) (label ^ ": stores its own link once it links") (Result.is_ok want)
        (entry.Registry.linked <> None))
    [
      ("another module's link", encrypted "plus2" ~add:2, key, Ok 42);
      ("one ciphertext byte flipped", flipped, key, Error "ENOEXEC");
      ("wrong kernel key", plus1, "fedcba9876543210", Error "ENOEXEC");
    ]

(* The host decrypts once per seal, but the kernel's decryption is
   charged per install: with jitter 0 the fifth cold session of an
   encrypted module takes as long to establish as the first, up to float
   rounding (one AES block is 360 cycles, 0.6 us).  The stack is touched
   first and each closed handle gets to exit, so that no session pays a
   fault or a reap that the others do not. *)
let test_every_install_charges_decryption () =
  let world = World.create ~jitter:0.0 ~with_rpc:false () in
  let clock = M.clock world.World.machine in
  let took = ref [] in
  ignore
    (M.spawn world.World.machine ~name:"client" (fun p ->
         Proc.push_word p 0;
         ignore (Proc.pop_word p);
         for _ = 1 to 5 do
           let t0 = Smod_sim.Clock.now_us clock in
           let conn =
             Stub.connect world.World.smod p ~module_name:Smod_libc.Seclibc.module_name
               ~version:Smod_libc.Seclibc.version ~credential:(cred "alice")
           in
           took := (Smod_sim.Clock.now_us clock -. t0) :: !took;
           Stub.close conn;
           Sched.yield ()
         done));
  World.run world;
  match !took with
  | [ fifth; _; _; _; first ] ->
      Alcotest.(check (float 1e-9)) "fifth session establishes like the first" first fifth
  | _ -> Alcotest.fail "expected five sessions"

(* Seclibc is built and sealed once per program and registered per
   world.  Each world's entry must hold what a per-world package of a
   fresh build would register, in bytes no other entry shares. *)
let seclibc_entry ?(packaged = false) protection =
  let smod = Smod.install (M.create ~jitter:0.0 ()) () in
  if packaged then Toolchain.package smod ~image:(Smod_libc.Seclibc.image ()) ~protection ()
  else Smod_libc.Seclibc.install smod ~protection ()

let check_same_entry what (expected : Registry.entry) (actual : Registry.entry) =
  let e = expected.Registry.image and a = actual.Registry.image in
  let bytes field x y = Alcotest.(check bool) (what ^ ": " ^ field) true (Bytes.equal x y) in
  bytes "text" e.Smof.text a.Smof.text;
  bytes "data" e.Smof.data a.Smof.data;
  bytes "text digest" e.Smof.text_digest a.Smof.text_digest;
  Alcotest.(check bool) (what ^ ": encrypted flag") e.Smof.encrypted a.Smof.encrypted;
  Alcotest.(check bool) (what ^ ": symbols") true (e.Smof.symbols = a.Smof.symbols);
  Alcotest.(check bool) (what ^ ": relocations") true (e.Smof.relocs = a.Smof.relocs);
  Alcotest.(check (option string)) (what ^ ": key") expected.Registry.kernel_key
    actual.Registry.kernel_key;
  Alcotest.(check bool) (what ^ ": nonce") true
    (Option.equal Bytes.equal expected.Registry.kernel_nonce actual.Registry.kernel_nonce)

let protections = [ ("encrypted", Registry.Encrypted); ("unmap-only", Registry.Unmap_only) ]

let test_sealed_seclibc_matches_package () =
  List.iter
    (fun (label, protection) ->
      let packaged = seclibc_entry ~packaged:true protection in
      check_same_entry label packaged (seclibc_entry protection))
    protections

let test_sealed_seclibc_not_shared () =
  List.iter
    (fun (label, protection) ->
      let reference = seclibc_entry ~packaged:true protection in
      let scribbled = seclibc_entry protection and other = seclibc_entry protection in
      Alcotest.(check bool) (label ^ ": distinct text buffers") true
        (scribbled.Registry.image.Smof.text != other.Registry.image.Smof.text);
      let zero b = Bytes.fill b 0 (Bytes.length b) '\000' in
      zero scribbled.Registry.image.Smof.text;
      zero scribbled.Registry.image.Smof.data;
      zero scribbled.Registry.image.Smof.text_digest;
      Option.iter zero scribbled.Registry.kernel_nonce;
      check_same_entry (label ^ ", other world") reference other;
      check_same_entry (label ^ ", later world") reference (seclibc_entry protection))
    protections

(* Kernel and stubs read one name -> funcID table; on a duplicate name
   both resolve to the last symbol in text order, the one a call runs. *)
let test_duplicate_function_names_last_wins () =
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  let image =
    Toolchain.assemble_module ~name:"dup" ~version:1
      [ ("f", "push 1\nret\n"); ("f", "push 2\nret\n") ]
  in
  let entry = Smod.register smod ~image () in
  Alcotest.(check (option int)) "Registry.func_id" (Some 1) (Registry.func_id entry "f");
  let stub_id = ref None and result = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"dup" ~version:1 ~credential:(cred "alice")
           (fun conn ->
             stub_id := Stub.func_id conn "f";
             result := Stub.call conn ~func:"f" [||])));
  M.run m;
  Alcotest.(check (option int)) "Stub.func_id" (Some 1) !stub_id;
  Alcotest.(check int) "the call runs the last f" 2 !result

(* ----------------------- syscall surface (Fig 4) -------------------- *)

let test_sys_find_via_trap () =
  let m, smod, entry = setup () in
  ignore smod;
  let found = ref 0 and missing = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         let addr = p.Proc.sp - 64 in
         Aspace.write_string p.Proc.aspace ~addr "testmod";
         found := M.syscall m p Sysno.smod_find [| addr; 1 |];
         Aspace.write_string p.Proc.aspace ~addr "absent";
         match M.syscall m p Sysno.smod_find [| addr; 1 |] with
         | _ -> ()
         | exception Errno.Error (Errno.ENOENT, _) -> missing := true));
  M.run m;
  Alcotest.(check int) "m_id" entry.Registry.m_id !found;
  Alcotest.(check bool) "ENOENT" true !missing

let test_sys_add_requires_root () =
  let m, smod, _ = setup () in
  ignore smod;
  let denied = ref false in
  ignore
    (M.spawn m ~uid:1000 ~name:"user" (fun p ->
         let image_bytes = Smof.to_bytes (test_image ~name:"another" ()) in
         let addr = Layout.data_base + 256 in
         Aspace.write_word p.Proc.aspace ~addr (Bytes.length image_bytes);
         Aspace.write_bytes p.Proc.aspace ~addr:(addr + 4) image_bytes;
         match M.syscall m p Sysno.smod_add [| addr |] with
         | _ -> ()
         | exception Errno.Error (Errno.EPERM, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "EPERM for non-root" true !denied

let test_sys_add_as_root () =
  let m, smod, _ = setup () in
  let registered = ref 0 in
  ignore
    (M.spawn m ~uid:0 ~name:"root" (fun p ->
         let image_bytes = Smof.to_bytes (test_image ~name:"another" ()) in
         let addr = Layout.data_base + 256 in
         Aspace.write_word p.Proc.aspace ~addr (Bytes.length image_bytes);
         Aspace.write_bytes p.Proc.aspace ~addr:(addr + 4) image_bytes;
         registered := M.syscall m p Sysno.smod_add [| addr |]));
  M.run m;
  Alcotest.(check bool) "m_id returned" true (!registered > 0);
  Alcotest.(check bool) "findable" true
    (Registry.find (Smod.registry smod) ~name:"another" ~version:1 <> None)

let test_sys_remove_admin_credential () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"moduleadmin" ~secret:"ak";
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m ~keystore:ks () in
  let entry =
    Toolchain.package smod ~image:(test_image ()) ~admin_principal:"moduleadmin" ()
  in
  let removed = ref false and denied = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let write_cred c =
           let bytes = Credential.to_bytes c in
           let addr = Layout.data_base + 512 in
           Aspace.write_bytes p.Proc.aspace ~addr bytes;
           (addr, Bytes.length bytes)
         in
         (* Wrong principal first. *)
         let addr, len = write_cred (Credential.make ~principal:"mallory" ()) in
         (match M.syscall m p Sysno.smod_remove [| entry.Registry.m_id; addr; len |] with
         | _ -> ()
         | exception Errno.Error (Errno.EACCES, _) -> denied := true);
         (* Correct admin. *)
         let addr, len = write_cred (Credential.make ~principal:"moduleadmin" ()) in
         ignore (M.syscall m p Sysno.smod_remove [| entry.Registry.m_id; addr; len |]);
         removed := Registry.find_by_id (Smod.registry smod) entry.Registry.m_id = None));
  M.run m;
  Alcotest.(check bool) "wrong principal denied" true !denied;
  Alcotest.(check bool) "admin removed it" true !removed

let test_session_info_only_for_handles () =
  let m, smod, _ = setup () in
  ignore smod;
  let denied = ref false in
  ignore
    (M.spawn m ~name:"imposter" (fun p ->
         match M.syscall m p Sysno.smod_session_info [| 0 |] with
         | _ -> ()
         | exception Errno.Error (Errno.EPERM, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "EPERM" true !denied

let test_call_without_session () =
  let m, smod, _ = setup () in
  ignore smod;
  let denied = ref false in
  ignore
    (M.spawn m ~name:"nosession" (fun p ->
         match M.syscall m p Sysno.smod_call [| p.Proc.fp; 0; 1; 0 |] with
         | _ -> ()
         | exception Errno.Error (Errno.EPERM, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "EPERM" true !denied

(* --------------------- special functions (4.3) ---------------------- *)

let test_getpid_via_kernel_for_handle () =
  let m, smod, _ = setup () in
  in_client m smod (fun p _conn ->
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      let handle = M.proc_exn m session.Smod.handle_pid in
      (* The kernel getpid, asked by the handle, reports the client. *)
      Alcotest.(check int) "client pid" p.Proc.pid (M.sys_getpid m handle))

let test_execve_detaches_session () =
  let m, smod, _ = setup () in
  let handle_pid = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
         in
         ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
         let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
         handle_pid := session.Smod.handle_pid;
         Special.execve smod p ~image:"fresh";
         Alcotest.(check bool) "session gone" true
           (Smod.session_of_client smod ~client_pid:p.Proc.pid = None)));
  M.run m;
  let handle = M.proc_exn m !handle_pid in
  Alcotest.(check bool) "handle killed" true
    (match handle.Proc.state with Proc.Zombie (Sched.Signaled 9) -> true | _ -> false)

let test_client_exit_kills_handle () =
  let m, smod, _ = setup () in
  let handle_pid = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
         in
         ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
         let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
         handle_pid := session.Smod.handle_pid
         (* exit without closing: lifetime-of-p policy tears it down *)));
  M.run m;
  let handle = M.proc_exn m !handle_pid in
  Alcotest.(check bool) "handle reaped with client" true (Proc.is_zombie handle)

let test_smod_fork_gives_child_fresh_session () =
  let m, smod, _ = setup () in
  let child_result = ref 0 and sessions_differ = ref false in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
           (fun conn ->
             let parent_session =
               Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid)
             in
             let child =
               Special.fork smod conn p ~name:"child" ~child_main:(fun child_conn ->
                   child_result := Stub.call child_conn ~func:"test_incr" [| 10 |])
             in
             Smod_kern.Sched.yield ();
             (match Smod.session_of_client smod ~client_pid:child.Proc.pid with
             | Some child_session ->
                 sessions_differ :=
                   child_session.Smod.handle_pid <> parent_session.Smod.handle_pid
             | None -> ());
             ignore (M.sys_wait m p))));
  M.run m;
  Alcotest.(check int) "child called through own handle" 11 !child_result;
  Alcotest.(check bool) "child handle is fresh" true !sessions_differ

let test_signal_to_handle_redirected () =
  let m, smod, _ = setup () in
  let client_got_signal = ref false in
  in_client m smod (fun p _conn ->
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      Special.kill smod p ~pid:session.Smod.handle_pid ~signal:Signal.sigusr1;
      client_got_signal := List.mem Signal.sigusr1 p.Proc.pending_signals);
  Alcotest.(check bool) "redirected to client" true !client_got_signal

let test_special_wait_skips_handles () =
  let m, smod, _ = setup () in
  let saw_real_child = ref false in
  in_client m smod (fun p _conn ->
      (* One real child; the handle child must be invisible to wait. *)
      let real = M.sys_fork m p ~name:"realchild" ~child_body:(fun c -> M.sys_exit m c 5) in
      let status, pid = Special.wait smod p in
      saw_real_child := pid = real.Proc.pid && status = Sched.Exited 5);
  Alcotest.(check bool) "waited on the real child" true !saw_real_child


(* ----------------- multi-function modules + linking ----------------- *)

let analytics_image () =
  Toolchain.assemble_module ~name:"linked" ~version:1
    [
      ("sq", "dup\nmul\nret\n");
      ("quad", "loadarg 0\ncall sq\ncall sq\nret\n");
    ]

let test_cross_function_call_through_session () =
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  ignore (Toolchain.package smod ~image:(analytics_image ()) ());
  let result = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"linked" ~version:1 ~credential:(cred "x")
           (fun conn -> result := Stub.call conn ~func:"quad" [| 3 |])));
  M.run m;
  Alcotest.(check int) "3^4 via two relocated calls" 81 !result

let test_cross_function_call_through_encrypted_session () =
  (* The full 4.1 story: relocation sites survive encryption, the kernel
     decrypts + links at load, and the patched calls execute. *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  let image = analytics_image () in
  Alcotest.(check bool) "module really has relocations" true
    (List.length image.Smof.relocs > 0);
  ignore (Toolchain.package smod ~image ~protection:Registry.Encrypted ());
  let result = ref 0 in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"linked" ~version:1 ~credential:(cred "x")
           (fun conn -> result := Stub.call conn ~func:"quad" [| 2 |])));
  M.run m;
  Alcotest.(check int) "2^4 through encrypted+linked module" 16 !result

let test_assemble_module_rejects_unknown_target () =
  Alcotest.(check bool) "undefined callee" true
    (match
       Toolchain.assemble_module ~name:"broken" ~version:1
         [ ("f", "call ghost\nret\n") ]
     with
    | _ -> false
    | exception Smof.Malformed _ -> true)

let test_linked_call_lands_at_symbol () =
  (* The patched operand must be module_text_base + callee offset. *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  let image = analytics_image () in
  ignore (Toolchain.package smod ~image ());
  ignore
    (M.spawn m ~name:"client" (fun p ->
         Crt0.run_client smod p ~module_name:"linked" ~version:1 ~credential:(cred "x")
           (fun conn ->
             ignore (Stub.call conn ~func:"quad" [| 1 |]);
             let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
             let handle_as = Smod.handle_aspace smod session in
             let quad = Option.get (Smof.find_symbol image "quad") in
             let sq = Option.get (Smof.find_symbol image "sq") in
             (* first instruction of quad is loadarg (2 bytes); the call
                opcode follows, operand at +3 *)
             let operand_addr = Layout.module_text_base + quad.Smof.sym_offset + 3 in
             Alcotest.(check int) "call target = mapped sq"
               (Layout.module_text_base + sq.Smof.sym_offset)
               (Aspace.read_word handle_as ~addr:operand_addr))));
  M.run m


(* ---------------------------- accounting ---------------------------- *)

let test_session_accounting () =
  let m, smod, _ = setup ~policy:(Policy.Call_quota 2) () in
  in_client m smod (fun p conn ->
      let s = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      (try ignore (Stub.call conn ~func:"crashy" [||]) with Errno.Error _ -> ());
      (try ignore (Stub.call conn ~func:"test_incr" [| 2 |]) with Errno.Error _ -> ());
      Alcotest.(check int) "2 calls executed" 2 s.Smod.calls;
      Alcotest.(check int) "1 denied" 1 s.Smod.denied_calls;
      Alcotest.(check int) "1 faulted" 1 s.Smod.faulted_calls;
      Alcotest.(check bool) "handle time accrued" true (s.Smod.handle_exec_us > 0.0))

let test_accounting_handle_time_scales () =
  let m, smod, _ = setup () in
  in_client m smod (fun p conn ->
      let s = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      let after_one = s.Smod.handle_exec_us in
      for i = 1 to 9 do
        ignore (Stub.call conn ~func:"test_incr" [| i |])
      done;
      Alcotest.(check bool) "10 calls cost ~10x one call" true
        (s.Smod.handle_exec_us > 5.0 *. after_one))


(* ----------------------- protection rings (2) ----------------------- *)

let test_handle_runs_in_ring_1 () =
  let m, smod, _ = setup () in
  in_client m smod (fun p _conn ->
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      let handle = M.proc_exn m session.Smod.handle_pid in
      Alcotest.(check int) "handle ring" 1 handle.Proc.ring;
      Alcotest.(check int) "client ring" 3 p.Proc.ring)

let test_client_cannot_kill_its_handle () =
  (* Even with matching uid, ring 3 code cannot signal ring 1 code: the
     client cannot tear down the enforcement point that polices it. *)
  let m, smod, _ = setup () in
  let denied = ref false in
  in_client m smod (fun p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      match M.syscall m p Sysno.kill [| session.Smod.handle_pid; Signal.sigkill |] with
      | _ -> ()
      | exception Errno.Error (Errno.EPERM, _) -> denied := true);
  Alcotest.(check bool) "EPERM across rings" true !denied

let test_ring_ordering_general () =
  let m = M.create ~jitter:0.0 () in
  let privileged = M.spawn m ~uid:500 ~daemon:true ~name:"privileged" (fun p ->
      p.Proc.ring <- 1;
      let q = M.msgget m p ~key:3 in
      ignore (M.msgrcv m p ~qid:q ~mtype:1))
  in
  let outcomes = ref [] in
  ignore
    (M.spawn m ~uid:500 ~name:"user" (fun p ->
         Smod_kern.Sched.yield ();
         (match M.syscall m p Sysno.kill [| privileged.Proc.pid; Signal.sigusr1 |] with
         | _ -> outcomes := `Killed :: !outcomes
         | exception Errno.Error (Errno.EPERM, _) -> outcomes := `Denied :: !outcomes);
         match M.sys_ptrace_attach m p ~target_pid:privileged.Proc.pid with
         | _ -> outcomes := `Traced :: !outcomes
         | exception Errno.Error (Errno.EPERM, _) -> outcomes := `Denied :: !outcomes));
  M.run m;
  Alcotest.(check int) "both denied" 2
    (List.length (List.filter (( = ) `Denied) !outcomes));
  (* The privileged side may signal downward. *)
  let m2 = M.create ~jitter:0.0 () in
  let victim = M.spawn m2 ~uid:500 ~daemon:true ~name:"victim" (fun p ->
      let q = M.msgget m2 p ~key:4 in
      ignore (M.msgrcv m2 p ~qid:q ~mtype:1))
  in
  let ok = ref false in
  ignore
    (M.spawn m2 ~uid:500 ~name:"supervisor" (fun p ->
         p.Proc.ring <- 1;
         Smod_kern.Sched.yield ();
         ignore (M.syscall m2 p Sysno.kill [| victim.Proc.pid; Signal.sigusr1 |]);
         ok := true));
  M.run m2;
  Alcotest.(check bool) "downward signal allowed" true !ok


(* ------------------------- failure injection ------------------------ *)

let test_handle_death_between_calls () =
  (* The handle dies (kernel-level kill, e.g. an OOM reaper); the client's
     next call must fail fast with EIDRM, not hang. *)
  let m, smod, _ = setup () in
  let outcome = ref `Nothing in
  in_client m smod (fun p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      M.kill m ~pid:session.Smod.handle_pid ~signal:Signal.sigkill;
      Smod_kern.Sched.yield ();
      match Stub.call conn ~func:"test_incr" [| 2 |] with
      | v -> outcome := `Unexpected v
      | exception Errno.Error ((Errno.EIDRM | Errno.EPERM), _) -> outcome := `Failed_fast);
  (* the handle's exit hook has already detached the session, so the
     client sees either EIDRM (queue gone) or EPERM (session gone) — the
     guarantee is fail-fast, never a deadlock *)
  Alcotest.(check bool) "fails fast, no deadlock" true (!outcome = `Failed_fast)

let test_handle_death_mid_call () =
  (* The handle is killed while the client is blocked inside smod_call:
     queue removal must wake the client with EIDRM. *)
  let m, smod, _ = setup () in
  let outcome = ref `Nothing in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
         in
         ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
         let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
         (* An assassin that fires while we are blocked awaiting the
            reply: it runs before the handle because it enters the ready
            queue first. *)
         ignore
           (M.spawn m ~name:"assassin" (fun _ ->
                M.kill m ~pid:session.Smod.handle_pid ~signal:Signal.sigkill));
         (match Stub.call conn ~func:"test_incr" [| 2 |] with
         | v -> outcome := `Unexpected v
         | exception Errno.Error (Errno.EIDRM, _) -> outcome := `Eidrm);
         Alcotest.(check bool) "session detached after handle death" true
           (Smod.session_of_client smod ~client_pid:p.Proc.pid = None)));
  M.run m;
  Alcotest.(check bool) "woken with EIDRM mid-call" true (!outcome = `Eidrm)

let cold_world () = World.create ~with_rpc:false ()

let test_handle_death_cold () =
  Install_paths.check_handle_death ~world:cold_world ~shared:false

let test_handle_death_before_handshake () =
  Install_paths.check_handshake_death (cold_world ()) ~call:Install_paths.msgq_call

let test_handle_death_cold_poller () =
  Install_paths.check_handle_death
    ~world:(fun () -> Install_paths.with_poller (cold_world ()))
    ~shared:false

let test_module_remove_mid_session () =
  (* The admin removes the module while a session is live: the session is
     torn down and the client's next call fails cleanly. *)
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"admin" ~secret:"ak";
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m ~keystore:ks () in
  let entry = Toolchain.package smod ~image:(test_image ()) ~admin_principal:"admin" () in
  let outcome = ref `Nothing in
  ignore
    (M.spawn m ~name:"client" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"testmod" ~version:1 ~credential:(cred "a")
         in
         ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
         ignore
           (M.spawn m ~name:"admin" (fun q ->
                let bytes = Credential.to_bytes (Credential.make ~principal:"admin" ()) in
                let addr = Layout.data_base + 512 in
                Aspace.write_bytes q.Proc.aspace ~addr bytes;
                ignore
                  (M.syscall m q Sysno.smod_remove
                     [| entry.Registry.m_id; addr; Bytes.length bytes |])));
         Smod_kern.Sched.yield ();
         Smod_kern.Sched.yield ();
         match Stub.call conn ~func:"test_incr" [| 2 |] with
         | v -> outcome := `Unexpected v
         | exception Errno.Error ((Errno.EIDRM | Errno.EINVAL | Errno.EPERM), _) ->
             outcome := `Refused));
  M.run m;
  Alcotest.(check bool) "call after removal refused" true (!outcome = `Refused);
  Alcotest.(check bool) "module gone" true
    (Registry.find_by_id (Smod.registry smod) entry.Registry.m_id = None)

(* --------------------------- TOCTOU (4.4) --------------------------- *)

let toctou_run mitigation =
  let m, smod, _ = setup () in
  Smod.set_toctou_mitigation smod mitigation;
  let result = ref 0 and attacker = ref None in
  in_client m smod (fun p conn ->
      let arg_slot = ref 0 in
      attacker :=
        Some
          (M.spawn_thread m p ~name:"attacker" (fun _ ->
               if !arg_slot <> 0 then Aspace.write_word p.Proc.aspace ~addr:!arg_slot 666));
      result :=
        Stub.call conn
          ~on_step:(fun step -> if step = 2 then arg_slot := p.Proc.sp + (4 * 6))
          ~func:"test_incr" [| 41 |]);
  (m, !result, Option.get !attacker)

let test_toctou_unmitigated_succeeds () =
  let _, result, _ = toctou_run Smod.No_mitigation in
  Alcotest.(check int) "argument swapped mid-call" 667 result

let test_toctou_dequeue_defeats () =
  let _, result, attacker = toctou_run Smod.Dequeue_client_threads in
  Alcotest.(check int) "argument intact" 42 result;
  Alcotest.(check bool) "attacker still completed later" true (Proc.is_zombie attacker)

let test_toctou_unmap_defeats () =
  let _, result, attacker = toctou_run Smod.Unmap_during_call in
  Alcotest.(check int) "argument intact" 42 result;
  (* The attacker's store hit an unmapped page: SIGSEGV. *)
  Alcotest.(check bool) "attacker crashed" true
    (match attacker.Proc.state with
    | Proc.Zombie (Sched.Signaled 11) -> true
    | _ -> false)

let test_handle_cannot_be_ptraced () =
  let m, smod, _ = setup () in
  let denied = ref false in
  in_client m smod (fun p _conn ->
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      match M.sys_ptrace_attach m p ~target_pid:session.Smod.handle_pid with
      | () -> ()
      | exception Errno.Error (Errno.EPERM, _) -> denied := true);
  Alcotest.(check bool) "EPERM" true !denied


(* ------------------------- fast path (section 5) -------------------- *)

let measure_calls smod m conn n =
  let clock = M.clock m in
  ignore (Stub.call conn ~func:"test_incr" [| 0 |]);
  ignore smod;
  let t0 = Smod_sim.Clock.now_cycles clock in
  for i = 1 to n do
    ignore (Stub.call conn ~func:"test_incr" [| i |])
  done;
  Smod_sim.Clock.elapsed_us clock ~since:t0 /. float_of_int n

let test_fast_path_same_results () =
  let m, smod, _ = setup () in
  Smod.set_call_fast_path smod true;
  let r = ref 0 in
  in_client m smod (fun _p conn -> r := Stub.call conn ~func:"test_incr" [| 41 |]);
  Alcotest.(check int) "unchanged semantics" 42 !r

let test_fast_path_is_cheaper () =
  let slow =
    let m, smod, _ = setup () in
    let v = ref 0.0 in
    in_client m smod (fun _p conn -> v := measure_calls smod m conn 500);
    !v
  in
  let fast =
    let m, smod, _ = setup () in
    Smod.set_call_fast_path smod true;
    let v = ref 0.0 in
    in_client m smod (fun _p conn -> v := measure_calls smod m conn 500);
    !v
  in
  Alcotest.(check bool)
    (Printf.sprintf "fast %.3f < slow %.3f" fast slow)
    true (fast < slow)

let test_fast_path_does_not_bypass_quota () =
  (* Stateful policies must still be evaluated per call. *)
  let m, smod, _ = setup ~policy:(Policy.Call_quota 1) () in
  Smod.set_call_fast_path smod true;
  let denied = ref false in
  in_client m smod (fun _p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
      match Stub.call conn ~func:"test_incr" [| 2 |] with
      | _ -> ()
      | exception Errno.Error (Errno.EACCES, _) -> denied := true);
  Alcotest.(check bool) "quota still enforced" true !denied

let test_fast_path_still_validates_func_id () =
  let m, smod, _ = setup () in
  Smod.set_call_fast_path smod true;
  let rejected = ref false in
  in_client m smod (fun _p conn ->
      match Stub.call_id conn ~func_id:99 [||] with
      | _ -> ()
      | exception Errno.Error (Errno.EINVAL, _) -> rejected := true);
  Alcotest.(check bool) "bad funcID still EINVAL" true !rejected

(* ----------------------- multiple module versions ------------------- *)

let versioned_image v result =
  let b = Smof.Builder.create ~name:"vermod" ~version:v in
  ignore
    (Smof.Builder.add_function b ~name:"which"
       ~code:(Smod_svm.Asm.assemble (Printf.sprintf "push %d\nret" result))
       ());
  Smof.Builder.finish b

let test_versions_side_by_side () =
  (* Figure 4's sys_smod_add comment: "allows multiple versions". *)
  let m = M.create ~jitter:0.0 () in
  let smod = Smod.install m () in
  ignore (Smod.register smod ~image:(versioned_image 1 111) ());
  ignore (Smod.register smod ~image:(versioned_image 2 222) ());
  let got = ref [] in
  let client v =
    ignore
      (M.spawn m ~name:(Printf.sprintf "client-v%d" v) (fun p ->
           Crt0.run_client smod p ~module_name:"vermod" ~version:v ~credential:(cred "x")
             (fun conn ->
               (* sequence the blocking call before reading !got: both
                  clients interleave through this closure *)
               let answer = Stub.call conn ~func:"which" [||] in
               got := (v, answer) :: !got)))
  in
  client 1;
  client 2;
  M.run m;
  Alcotest.(check (list (pair int int))) "each version answers"
    [ (1, 111); (2, 222) ]
    (List.sort compare !got)

(* ----------------------------- wire codecs -------------------------- *)

let test_wire_request_roundtrip () =
  let r = { Wire.func_id = 7; args_base = 0xBFBF0000; client_sp = 1; client_fp = 2 } in
  Alcotest.(check bool) "roundtrip" true (Wire.request_of_bytes (Wire.request_to_bytes r) = r)

let test_wire_reply_roundtrip () =
  let r = { Wire.status = 4; retval = 0xFFFFFFFF } in
  Alcotest.(check bool) "roundtrip" true (Wire.reply_of_bytes (Wire.reply_to_bytes r) = r)

let test_wire_descriptor_roundtrip () =
  let d =
    {
      Wire.module_name = "seclibc";
      module_version = 3;
      credential = Bytes.of_string "principal\nassertions";
    }
  in
  let d2 = Wire.descriptor_of_bytes (Wire.descriptor_to_bytes d) in
  Alcotest.(check string) "name" d.Wire.module_name d2.Wire.module_name;
  Alcotest.(check int) "version" d.Wire.module_version d2.Wire.module_version;
  Alcotest.(check bytes) "credential" d.Wire.credential d2.Wire.credential

let test_wire_descriptor_truncated () =
  let full = Wire.descriptor_to_bytes
      { Wire.module_name = "m"; module_version = 1; credential = Bytes.of_string "c" }
  in
  Alcotest.(check bool) "truncation rejected" true
    (match Wire.descriptor_of_bytes (Bytes.sub full 0 (Bytes.length full - 1)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_wire_handle_info_roundtrip () =
  let h = { Wire.m_id = 1; handle_pid = 2; req_qid = 3; rep_qid = 4 } in
  Alcotest.(check bool) "roundtrip" true
    (Wire.handle_info_of_bytes (Wire.handle_info_to_bytes h) = h)

let prop_wire_request =
  QCheck.Test.make ~name:"wire request roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFF) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (a, b, c, d) ->
      let r = { Wire.func_id = a; args_base = b; client_sp = c; client_fp = d } in
      Wire.request_of_bytes (Wire.request_to_bytes r) = r)

(* ------------------------------ toolchain --------------------------- *)

let test_toolchain_scan_matches_symbols () =
  let image = test_image () in
  Alcotest.(check (list string)) "objdump|grep ' F ' pipeline"
    [ "test_incr"; "add2"; "crashy" ]
    (Toolchain.scan_functions image)

let test_toolchain_stub_table_matches_kernel_ids () =
  let _, _, entry = setup () in
  List.iter
    (fun (name, id) ->
      Alcotest.(check (option int)) name (Some id) (Registry.func_id entry name))
    (Toolchain.stub_table entry.Registry.image)

let test_toolchain_stub_source () =
  let src = Toolchain.stub_source (test_image ()) in
  let contains needle =
    let n = String.length src and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub src i m = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "one stub per function" true
    (contains "SMOD_client_test_incr:" && contains "SMOD_client_add2:");
  Alcotest.(check bool) "traps into 307" true (contains "int     $0x80")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "secmodule"
    [
      ( "registry",
        [
          tc "add/find" test_registry_add_find;
          tc "collision" test_registry_collision;
          tc "func ids" test_registry_func_ids;
          tc "encrypted needs key" test_registry_encrypted_needs_key;
          tc "remove" test_registry_remove;
        ] );
      ( "credentials",
        [ tc "roundtrip+signatures" test_credential_roundtrip; tc "malformed" test_credential_malformed ]
      );
      ( "policy",
        [
          tc "always allow" test_policy_always_allow;
          tc "quota counts down" test_policy_quota_counts_down;
          tc "rate limit window" test_policy_rate_limit_window;
          tc "time window" test_policy_time_window;
          tc "all-of" test_policy_all_of;
          tc "keynote attrs" test_policy_keynote_attrs;
        ] );
      ( "sessions (Fig 1)",
        [
          tc "basic call" test_session_basic_call;
          tc "multiple args" test_session_multiple_args;
          tc "unknown module" test_session_unknown_module;
          tc "wrong version" test_session_wrong_version;
          tc "second session rejected" test_second_session_rejected;
          tc "handshake trace order" test_handshake_trace_order;
          tc "roles and flags" test_session_roles_and_flags;
        ] );
      ( "address space (Fig 2)",
        [
          tc "shared range + private segments" test_layout_shared_range;
          tc "secret unreachable" test_client_cannot_read_secret_segment;
          tc "module text unreachable" test_client_cannot_read_module_text;
        ] );
      ( "dispatch (Fig 3)",
        [
          tc "stack word choreography" test_stack_choreography_words;
          tc "args via shared stack" test_args_read_from_shared_stack;
          tc "unknown function" test_unknown_function_rejected;
          tc "module fault -> EFAULT" test_module_fault_becomes_efault;
          tc "failed calls unwind the frame" test_failed_calls_unwind_frame;
          tc "denied connect restores sp" test_denied_connect_restores_sp;
        ] );
      ( "policy enforcement",
        [
          tc "quota per call" test_quota_enforced_per_call;
          tc "keynote gates session" test_keynote_policy_gates_session;
          tc "forged signature" test_forged_signature_rejected;
        ] );
      ( "text protection (4.1)",
        [
          tc "encrypted module executes" test_encrypted_module_executes;
          tc "registered image is ciphertext" test_registered_image_is_ciphertext;
          tc "tamper setup" test_tampered_handle_text_detected;
          tc "rewritten bytecode runs" test_rewritten_bytecode_runs;
          tc "native integrity check" test_native_integrity_check;
          tc "unreadable text -> EFAULT: forked" test_unreadable_text_efault_forked;
          tc "unreadable text -> EFAULT: pooled" test_unreadable_text_efault_pooled;
          tc "text rewrite stays in one handle" test_text_rewrite_stays_in_one_handle;
          tc "text rewrite stays in one world" test_text_rewrite_stays_in_one_world;
          tc "unbound native" test_unbound_native_enosys;
          tc "unmap-only removes plain copy" test_unmap_only_removes_plain_library;
        ] );
      ( "install once (4.1)",
        [
          tc "wrong key fails closed: cold" test_wrong_key_fails_closed_cold;
          tc "wrong key fails closed: mux" test_wrong_key_fails_closed_mux;
          tc "cold installs share one linked image" test_cold_installs_share_linked_image;
          tc "mux installs share one linked image" test_mux_installs_share_linked_image;
          tc "worlds share one sealed link" test_worlds_share_sealed_link;
          tc "foreign links are not adopted" test_foreign_link_not_adopted;
          tc "every install charges decryption" test_every_install_charges_decryption;
          tc "duplicate names: last wins" test_duplicate_function_names_last_wins;
          tc "sealed seclibc equals a fresh package" test_sealed_seclibc_matches_package;
          tc "sealed seclibc bytes not shared" test_sealed_seclibc_not_shared;
        ] );
      ( "syscalls (Fig 4)",
        [
          tc "smod_find" test_sys_find_via_trap;
          tc "smod_add needs root" test_sys_add_requires_root;
          tc "smod_add as root" test_sys_add_as_root;
          tc "smod_remove admin credential" test_sys_remove_admin_credential;
          tc "session_info handle-only" test_session_info_only_for_handles;
          tc "smod_call without session" test_call_without_session;
        ] );
      ( "special functions (4.3)",
        [
          tc "getpid reports client" test_getpid_via_kernel_for_handle;
          tc "execve detaches" test_execve_detaches_session;
          tc "client exit kills handle" test_client_exit_kills_handle;
          tc "fork makes fresh handle" test_smod_fork_gives_child_fresh_session;
          tc "signals redirected" test_signal_to_handle_redirected;
          tc "wait skips handles" test_special_wait_skips_handles;
        ] );
      ( "linking (4.1/4.2)",
        [
          tc "cross-function calls" test_cross_function_call_through_session;
          tc "cross-function calls, encrypted" test_cross_function_call_through_encrypted_session;
          tc "unknown callee rejected" test_assemble_module_rejects_unknown_target;
          tc "patched operand correctness" test_linked_call_lands_at_symbol;
        ] );
      ( "fast path (section 5)",
        [
          tc "same results" test_fast_path_same_results;
          tc "cheaper" test_fast_path_is_cheaper;
          tc "quota not bypassed" test_fast_path_does_not_bypass_quota;
          tc "funcID still validated" test_fast_path_still_validates_func_id;
        ] );
      ( "versioning",
        [ tc "side-by-side versions" test_versions_side_by_side ] );
      ( "wire",
        [
          tc "request roundtrip" test_wire_request_roundtrip;
          tc "reply roundtrip" test_wire_reply_roundtrip;
          tc "descriptor roundtrip" test_wire_descriptor_roundtrip;
          tc "descriptor truncated" test_wire_descriptor_truncated;
          tc "handle_info roundtrip" test_wire_handle_info_roundtrip;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_wire_request ] );
      ( "toolchain (4.2)",
        [
          tc "scan_functions pipeline" test_toolchain_scan_matches_symbols;
          tc "stub table matches kernel" test_toolchain_stub_table_matches_kernel_ids;
          tc "stub source" test_toolchain_stub_source;
        ] );
      ( "failure injection",
        [
          tc "handle death between calls" test_handle_death_between_calls;
          tc "handle death mid-call" test_handle_death_mid_call;
          tc "ring handle death (batch trap)" test_handle_death_cold;
          tc "ring handle death (poller)" test_handle_death_cold_poller;
          tc "handle death before the handshake" test_handle_death_before_handshake;
          tc "module removal mid-session" test_module_remove_mid_session;
        ] );
      ( "protection rings (section 2)",
        [
          tc "handle in ring 1" test_handle_runs_in_ring_1;
          tc "client cannot kill handle" test_client_cannot_kill_its_handle;
          tc "ring ordering" test_ring_ordering_general;
        ] );
      ( "accounting (section 1)",
        [
          tc "per-session counters" test_session_accounting;
          tc "handle time scales" test_accounting_handle_time_scales;
        ] );
      ( "attacks (4.4 / 3.1)",
        [
          tc "TOCTOU succeeds unmitigated" test_toctou_unmitigated_succeeds;
          tc "dequeue mitigation" test_toctou_dequeue_defeats;
          tc "unmap mitigation" test_toctou_unmap_defeats;
          tc "handle ptrace denied" test_handle_cannot_be_ptraced;
        ] );
    ]
