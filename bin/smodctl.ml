(* smodctl — inspect and demo the SecModule framework on a simulated
   machine.

   Subcommands map to the paper's artifacts:
     objdump   the tool-chain's symbol scan (section 4.2)
     stubs     the autogenerated client stub assembly (section 4.2)
     registry  the kernel's module table (section 3)
     layout    Figure 2's address-space layout, live
     trace     Figure 1's initialization sequence, live
     stack     Figure 3's stack choreography, word by word
     attack    the section 4.4 TOCTOU attack under a chosen mitigation
     bench     a quick Figure 8 run *)

module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Smof = Smod_modfmt.Smof
open Secmodule

let demo_world () =
  let machine = Machine.create () in
  let smod = Smod.install machine () in
  let entry = Smod_libc.Seclibc.install smod () in
  (machine, smod, entry)

let with_demo_client smod machine body =
  ignore
    (Machine.spawn machine ~name:"demo-client" (fun p ->
         Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
           ~version:Smod_libc.Seclibc.version
           ~credential:(Credential.make ~principal:"demo" ())
           (fun conn -> body p conn)));
  Machine.run machine

(* ------------------------------ objdump ---------------------------- *)

let cmd_objdump grep_f =
  let image = Smod_libc.Seclibc.image () in
  let dump = Smof.objdump_t image in
  if grep_f then
    (* the paper's pipeline: objdump -t | grep ' F ' *)
    String.split_on_char '\n' dump
    |> List.filter (fun l ->
           let rec has i =
             i + 3 <= String.length l && (String.sub l i 3 = " F " || has (i + 1))
           in
           has 0)
    |> List.iter print_endline
  else print_string dump

(* ------------------------------- stubs ----------------------------- *)

let cmd_stubs () = print_string (Toolchain.stub_source (Smod_libc.Seclibc.image ()))

(* ------------------------------ registry --------------------------- *)

let cmd_registry () =
  let _machine, smod, _ = demo_world () in
  let table = Smod_util.Table.create [ "m_id"; "module"; "ver"; "protection"; "policy"; "functions" ] in
  List.iter
    (fun (e : Registry.entry) ->
      Smod_util.Table.add_row table
        [
          string_of_int e.Registry.m_id;
          e.Registry.image.Smof.mod_name;
          string_of_int e.Registry.image.Smof.mod_version;
          (match e.Registry.protection with
          | Registry.Encrypted -> "encrypted"
          | Registry.Unmap_only -> "unmap-only");
          Policy.describe e.Registry.policy;
          string_of_int (Array.length e.Registry.functions);
        ])
    (Registry.entries (Smod.registry smod));
  Smod_util.Table.print table

(* ------------------------------- layout ---------------------------- *)

let cmd_layout () =
  let machine, smod, _ = demo_world () in
  with_demo_client smod machine (fun p conn ->
      ignore (Smod_libc.Seclibc.Client.malloc conn 64);
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      Format.printf "client:@\n%a@\n" Aspace.pp_layout p.Proc.aspace;
      Format.printf "handle:@\n%a@\n" Aspace.pp_layout (Smod.handle_aspace smod session);
      Format.printf "forced-share range: [0x%08x, 0x%08x)@." Layout.share_lo Layout.share_hi)

(* ------------------------------- trace ----------------------------- *)

let cmd_trace () =
  let machine, smod, _ = demo_world () in
  with_demo_client smod machine (fun _p conn ->
      ignore (Smod_libc.Seclibc.Client.malloc conn 64));
  Format.printf "%a@." Smod_sim.Trace.pp (Machine.trace machine)

(* ------------------------------- stack ----------------------------- *)

let cmd_stack () =
  let machine, smod, _ = demo_world () in
  with_demo_client smod machine (fun p conn ->
      let dump label =
        Printf.printf "%-26s sp=0x%08x |" label p.Proc.sp;
        for i = 0 to 6 do
          Printf.printf " %08x" (Aspace.read_word p.Proc.aspace ~addr:(p.Proc.sp + (4 * i)))
        done;
        print_newline ()
      in
      let r =
        Stub.call conn
          ~on_step:(fun step ->
            match step with
            | 1 -> dump "state 1: frame built"
            | 2 -> dump "state 2: kernel view"
            | 4 -> dump "state 4: frame restored"
            | _ -> ())
          ~func:"test_incr" [| 41 |]
      in
      Printf.printf "test_incr(41) = %d\n" r)

(* ------------------------------- attack ---------------------------- *)

let cmd_attack mitigation_name =
  let mitigation =
    match mitigation_name with
    | "none" -> Smod.No_mitigation
    | "unmap" -> Smod.Unmap_during_call
    | "dequeue" -> Smod.Dequeue_client_threads
    | other -> failwith (Printf.sprintf "unknown mitigation %S (none|unmap|dequeue)" other)
  in
  let machine, smod, _ = demo_world () in
  Smod.set_toctou_mitigation smod mitigation;
  with_demo_client smod machine (fun p conn ->
      let arg_slot = ref 0 in
      ignore
        (Machine.spawn_thread machine p ~name:"attacker" (fun _ ->
             if !arg_slot <> 0 then Aspace.write_word p.Proc.aspace ~addr:!arg_slot 666));
      let r =
        Stub.call conn
          ~on_step:(fun step -> if step = 2 then arg_slot := p.Proc.sp + (4 * 6))
          ~func:"test_incr" [| 41 |]
      in
      Printf.printf "mitigation=%s  test_incr(41) = %d  -> attack %s\n" mitigation_name r
        (if r = 42 then "DEFEATED" else "SUCCEEDED"))

(* -------------------------------- pool ----------------------------- *)

(* `smodctl pool status`: run a small multi-client workload through the
   smodd service layer and print the pool table mid-run (handles busy,
   clients queued) and after it drains (everything parked). *)
let cmd_pool_status clients calls =
  let config =
    { Smod_pool.Smodd.default_config with max_handles_per_module = 2; max_total_handles = 2 }
  in
  let world = Smod_bench_kit.World.create ~pool:config ~with_rpc:false () in
  let pool = Option.get world.Smod_bench_kit.World.pool in
  let served = ref 0 in
  for c = 0 to clients - 1 do
    Smod_bench_kit.World.spawn_seclibc_client world
      ~name:(Printf.sprintf "pool-demo-%d" c)
      (fun _p conn ->
        for i = 1 to calls do
          ignore (Smod_libc.Seclibc.Client.test_incr conn i)
        done;
        incr served;
        (* Halfway through the population, with sessions live and others
           still queued, take the mid-run snapshot. *)
        if !served = (clients / 2) + 1 then begin
          Printf.printf "mid-run (%d of %d clients served):\n%s\n" !served clients
            (Smod_pool.Smodd.render_status pool)
        end)
  done;
  Smod_bench_kit.World.run world;
  Printf.printf "drained (%d clients served):\n%s\n" !served
    (Smod_pool.Smodd.render_status pool);
  print_endline "pool counters:";
  List.iter
    (fun name ->
      match Smod_metrics.counter_value name with
      | Some v -> Printf.printf "  %-24s %d\n" name v
      | None -> ())
    [
      "pool.hit";
      "pool.miss";
      "pool.attaches";
      "pool.parks";
      "pool.spawns";
      "pool.waits";
      "pool.rejects";
      "policy_cache.hits";
      "policy_cache.misses";
    ]

(* -------------------------------- ring ----------------------------- *)

(* `smodctl ring status`: run a batched workload over the dispatch ring
   and print the live ring state — a mid-batch snapshot with slots still
   in flight, the drained ring, and the ring.* fast-path / fallback
   counters. *)
let cmd_ring_status batches batch_size =
  let machine, smod, _ = demo_world () in
  with_demo_client smod machine (fun p conn ->
      let r = Stub.arm_ring conn in
      Format.printf "armed: %a@\n@\n" Smod_ring.Ring.pp r;
      let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      let argss = List.init batch_size (fun i -> [| i |]) in
      for b = 1 to batches do
        ignore (Stub.call_batch conn ~func:"test_incr" argss);
        (* The client has reaped everything it submitted, so occupancy
           here shows the ring at rest between batches; the kernel-side
           view via the session is the same memory. *)
        if b = 1 || b = batches then
          let kr = Option.get (Smod.session_ring session) in
          Format.printf "after batch %d/%d: %a@\n" b batches Smod_ring.Ring.pp kr
      done;
      Format.printf "@\nring counters:@\n";
      List.iter
        (fun name ->
          match Smod_metrics.counter_value name with
          | Some v -> Format.printf "  %-28s %d@\n" name v
          | None -> ())
        [
          "ring.submits";
          "ring.batches";
          "ring.denied";
          "ring.doorbell_wakes";
          "ring.doorbell_fallbacks";
          "ring.spin_wakeups";
          "ring.block_wakeups";
          "ring.stale_drops";
        ];
      match Smod_metrics.histogram_sample "ring.batch_size" with
      | Some h ->
          Format.printf "  %-28s count=%d p50=%.1f p99=%.1f@." "ring.batch_size" h.hs_count
            (Smod_metrics.snapshot_quantile h 0.5)
            (Smod_metrics.snapshot_quantile h 0.99)
      | None -> ())

(* ------------------------------- poller ---------------------------- *)

let render_poller smod =
  match Smod.poller_status smod with
  | None -> Format.printf "  poller: off@\n"
  | Some ps ->
      Format.printf "  poller: %s; spin budget %d@\n"
        (if ps.Smod.ps_parked then "parked" else "spinning")
        ps.Smod.ps_spin_budget;
      Format.printf "  sweeps %d (%d empty); parks %d, wakes %d, doorbells %d@\n"
        ps.Smod.ps_sweeps ps.Smod.ps_empty_sweeps ps.Smod.ps_parks ps.Smod.ps_wakes
        ps.Smod.ps_doorbells;
      Format.printf "  slots stamped %d; geometry rejects %d@\n" ps.Smod.ps_slots_stamped
        ps.Smod.ps_geometry_rejects;
      List.iter
        (fun (sid, n) -> Format.printf "    session %d: %d slot(s)@\n" sid n)
        ps.Smod.ps_session_slots

(* `smodctl poller status`: switch the zero-trap path on, let the idle
   poller park, then run a batched workload that wakes it by doorbell —
   once at arm time, and once more per batch because the demo client
   deliberately idles past the spin budget between batches.  The printed
   counters walk through every transition: park, doorbell, wake, sweep,
   stamp. *)
let cmd_poller_status batches batch_size =
  let machine, smod, _ = demo_world () in
  Smod.set_kernel_poller smod true;
  Smod.set_session_mux smod true;
  (* No sessions yet: the poller burns its spin budget and parks. *)
  Machine.run machine;
  Format.printf "idle, before any session:@\n";
  render_poller smod;
  let traps = ref 0 in
  with_demo_client smod machine (fun _p conn ->
      let traps0 = Machine.syscall_count machine in
      ignore (Stub.arm_ring ~nslots:batch_size conn);
      let argss = List.init batch_size (fun i -> [| i |]) in
      for _ = 1 to batches do
        ignore (Stub.call_batch conn ~func:"test_incr" argss);
        (* Idle past the spin budget so the poller parks again; the next
           submit sees the raised need-wakeup flag and pays a doorbell. *)
        for _ = 1 to Smod.spin_budget smod + 2 do
          Smod_kern.Sched.yield ()
        done
      done;
      traps := Machine.syscall_count machine - traps0);
  Format.printf "@\nafter %d batch(es) of %d (doorbell-wake demo):@\n" batches batch_size;
  render_poller smod;
  (match Smod.mux_status smod with
  | None -> ()
  | Some ms ->
      Format.printf "  mux: %d live / %d peak / %d attached; %d suspended@\n" ms.Smod.mxs_live
        ms.Smod.mxs_peak ms.Smod.mxs_attached ms.Smod.mxs_suspended);
  Format.printf "  client traps for %d calls: %d (arm-time setup + doorbells)@."
    (batches * batch_size) !traps

(* ------------------------------- policy ---------------------------- *)

(* `smodctl policy status`: run a demo workload with the compiled policy
   engine on, then print the compile state per module — cached program
   count, static program size, opcode mix, and the hit / miss /
   invalidation counters.  A keystore rotation mid-demo shows the
   same-step invalidation path. *)
let cmd_policy_status calls assertions =
  let keynote =
    let open Smod_keynote in
    let non_matching =
      List.init (max 0 (assertions - 1)) (fun i ->
          Parse.assertion_of_string
            (Printf.sprintf
               "keynote-version: 2\n\
                authorizer: \"POLICY\"\n\
                licensees: \"client\"\n\
                conditions: module == \"seclibc\" && origin_ring <= 3 && clause == %d \
                -> \"allow\";\n"
               i))
    in
    Policy.Keynote
      {
        policy =
          Parse.assertion_of_string
            "keynote-version: 2\n\
             authorizer: \"POLICY\"\n\
             licensees: \"client\"\n\
             conditions: module == \"seclibc\" -> \"allow\";\n"
          :: non_matching;
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  let world =
    Smod_bench_kit.World.create ~policy:keynote ~pool:Smod_pool.Smodd.default_config
      ~with_rpc:false ()
  in
  let smod = world.Smod_bench_kit.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod true;
  Smod_bench_kit.World.spawn_seclibc_client world ~name:"policy-demo" (fun _p conn ->
      for i = 1 to calls do
        ignore (Smod_libc.Seclibc.Client.test_incr conn i)
      done);
  Smod_bench_kit.World.run world;
  let render () =
    Printf.printf "policy compilation: %s, fusion: %s\n"
      (if Smod.policy_compile_enabled smod then "on" else "off")
      (if Smod.policy_fuse_enabled smod then "on" else "off");
    let table =
      Smod_util.Table.create
        [ "m_id"; "module"; "policy"; "rev"; "cached"; "hits"; "misses"; "invalid"; "opcodes" ]
    in
    List.iter
      (fun cs ->
        Smod_util.Table.add_row table
          [
            string_of_int cs.Smod.cs_m_id;
            cs.Smod.cs_module;
            cs.Smod.cs_policy;
            string_of_int cs.Smod.cs_policy_rev;
            string_of_int cs.Smod.cs_cached;
            string_of_int cs.Smod.cs_hits;
            string_of_int cs.Smod.cs_misses;
            string_of_int cs.Smod.cs_invalidations;
            (match cs.Smod.cs_stats with
            | None -> "-"
            | Some s ->
                if s.Policy.programs = 0 then
                  Printf.sprintf "deny-all (%s)" (Option.value s.Policy.denied ~default:"?")
                else Printf.sprintf "%d in %d programs" s.Policy.opcodes s.Policy.programs);
          ])
      (Smod.policy_compile_status smod);
    Smod_util.Table.print table;
    List.iter
      (fun cs ->
        match cs.Smod.cs_stats with
        | Some s when s.Policy.programs > 0 ->
            Printf.printf "  %s opcode mix: %s\n" cs.Smod.cs_module
              (String.concat ", "
                 (List.map (fun (op, n) -> Printf.sprintf "%s x%d" op n) s.Policy.opcode_counts))
        | _ -> ())
      (Smod.policy_compile_status smod);
    (* Fusion statistics (E24): how much of each module's plan is a
       batch-invariant prefix, which superoperators the peephole pass
       produced, and how many opcodes resolve caller provenance. *)
    List.iter
      (fun cs ->
        match cs.Smod.cs_fusion with
        | Some (f : Smod_keynote.Fuse.stats) ->
            Printf.printf
              "  %s fusion: %d/%d fops batch-invariant (%.0f%%), %d/%d segments, %d \
               origin fops\n"
              cs.Smod.cs_module f.Smod_keynote.Fuse.invariant_fops
              f.Smod_keynote.Fuse.total_fops
              (100.0
              *. float_of_int f.Smod_keynote.Fuse.invariant_fops
              /. float_of_int (max 1 f.Smod_keynote.Fuse.total_fops))
              f.Smod_keynote.Fuse.invariant_segments f.Smod_keynote.Fuse.segments
              f.Smod_keynote.Fuse.origin_fops;
            if f.Smod_keynote.Fuse.superops <> [] then
              Printf.printf "  %s superop mix: %s\n" cs.Smod.cs_module
                (String.concat ", "
                   (List.map
                      (fun (op, n) -> Printf.sprintf "%s x%d" op n)
                      f.Smod_keynote.Fuse.superops))
        | None -> ())
      (Smod.policy_compile_status smod)
  in
  Printf.printf "after %d calls:\n" calls;
  render ();
  print_newline ();
  print_endline "rotating the keystore (compiled programs must go in the same step):";
  Smod_keynote.Keystore.add_principal (Smod.keystore smod) ~name:"rotated-in" ~secret:"demo";
  render ();
  print_newline ();
  print_endline "compile counters:";
  List.iter
    (fun name ->
      match Smod_metrics.counter_value name with
      | Some v -> Printf.printf "  %-28s %d\n" name v
      | None -> ())
    [
      "secmodule.policy_compile_hits";
      "secmodule.policy_compile_misses";
      "secmodule.policy_compile_invalidations";
    ]

(* ------------------------------- bench ----------------------------- *)

let cmd_bench_run () =
  let rows = Smod_bench_kit.Figure8.run Smod_bench_kit.Figure8.quick_config in
  print_endline (Smod_bench_kit.Figure8.render rows)

(* Enumerate the bench experiment catalog: per section, its independent
   task count (the parallel grain a `bench --jobs N` run can exploit) and
   a rough sequential vs parallel wall-clock estimate. *)
let cmd_bench_status full jobs =
  let module E = Smod_bench_kit.Experiments in
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ | None -> Smod_bench_kit.Runner.default_jobs ()
  in
  Printf.printf "bench experiment catalog (%s counts, estimates for --jobs %d)\n\n"
    (if full then "full" else "quick")
    jobs;
  Printf.printf "%-5s %6s %10s %10s  %s\n" "id" "tasks" "est-seq" "est-par" "title";
  let seq_total = ref 0.0 and par_total = ref 0.0 in
  List.iter
    (fun s ->
      let est = E.estimate_seconds ~full s in
      let tasks = s.E.s_tasks ~full in
      let par = est /. float_of_int (min jobs tasks) in
      seq_total := !seq_total +. est;
      par_total := !par_total +. par;
      Printf.printf "%-5s %6d %9.1fs %9.1fs  %s\n" s.E.s_id tasks est par s.E.s_title)
    E.sections;
  Printf.printf "%-5s %6s %9.1fs %9.1fs\n" "total" "" !seq_total !par_total

(* ------------------------ bench capture / promote ------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let utc_date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let git_short_sha () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "nogit"
  | ic -> (
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "nogit")

let bench_all_ids =
  List.map (fun s -> s.Smod_bench_kit.Experiments.s_id) Smod_bench_kit.Experiments.sections

(* Same section aliases as the harness CLI (bench/main.ml); "wallclock"
   is accepted and dropped — a capture never runs the bechamel section,
   its output is host wall-clock and has no place in a dated snapshot. *)
let bench_resolve = function
  | "figure8" -> Some [ "e1" ]
  | "ablations" -> Some (List.filter (fun id -> id <> "e1") bench_all_ids)
  | "wallclock" -> Some []
  | id -> if Smod_bench_kit.Experiments.find id <> None then Some [ id ] else None

let bench_section_ids only =
  let requested =
    match only with
    | None -> bench_all_ids
    | Some s -> String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
  in
  List.concat_map
    (fun id ->
      match bench_resolve id with
      | Some ids -> ids
      | None ->
          Printf.eprintf "unknown --only section %S\n" id;
          exit 2)
    requested

let load_trajectory path =
  if Sys.file_exists path then
    try Smod_bench_kit.Trajectory.of_string (read_file path)
    with Smod_util.Json.Parse_error msg ->
      Printf.eprintf "smodctl: %s: %s\n" path msg;
      exit 2
  else []

let print_headlines (entry : Smod_bench_kit.Trajectory.entry) =
  List.iter
    (fun (key, v) ->
      match v with
      | Some f -> Printf.printf "  %-22s %12.4f\n" key f
      | None -> Printf.printf "  %-22s %12s\n" key "-")
    entry.Smod_bench_kit.Trajectory.t_values

let append_trajectory path entry =
  let module T = Smod_bench_kit.Trajectory in
  let history = T.append (load_trajectory path) entry in
  write_file path (T.to_string history);
  Printf.printf "trajectory: %s (%d entries)\n" path (List.length history)

(* Capture one dated snapshot: run the requested sections, stamp the
   capture header (date, commit, jobs, sections), write it under --dir
   as <date>_<commit>.json and fold its headlines into the trajectory. *)
let cmd_bench_capture full only jobs no_wallclock dir trajectory_path date commit =
  let module E = Smod_bench_kit.Experiments in
  let module B = Smod_bench_kit.Bench_json in
  ignore no_wallclock;
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ | None -> Smod_bench_kit.Runner.default_jobs ()
  in
  let ids = bench_section_ids only in
  if ids = [] then begin
    Printf.eprintf "smodctl: nothing to capture (no sections selected)\n";
    exit 2
  end;
  let date = match date with Some d -> d | None -> utc_date () in
  let commit = match commit with Some c -> c | None -> git_short_sha () in
  let meta = { B.mt_date = date; mt_commit = commit; mt_jobs = jobs; mt_sections = ids } in
  let runner = Smod_bench_kit.Runner.create ~jobs in
  Printf.printf "capturing %s (%s counts, --jobs %d)...\n" (String.concat "," ids)
    (if full then "full" else "quick")
    jobs;
  let doc = E.run_document ~meta ~full ~runner ids in
  mkdir_p dir;
  let snapshot = Printf.sprintf "%s_%s.json" date commit in
  let path = Filename.concat dir snapshot in
  write_file path (B.to_string doc);
  Printf.printf "wrote %s (%d experiments, %d metrics)\n" path
    (List.length doc.B.experiments)
    (List.length doc.B.metrics);
  let entry = Smod_bench_kit.Trajectory.entry_of_doc ~snapshot doc in
  print_headlines entry;
  append_trajectory trajectory_path entry

(* Promote a captured snapshot: copy it verbatim over the committed
   baseline and record its headline row, one step. *)
let cmd_bench_promote snapshot baseline trajectory_path =
  let module B = Smod_bench_kit.Bench_json in
  let raw = read_file snapshot in
  let doc =
    try B.of_string raw
    with Smod_util.Json.Parse_error msg ->
      Printf.eprintf "smodctl: %s: %s\n" snapshot msg;
      exit 2
  in
  write_file baseline raw;
  Printf.printf "promoted %s -> %s\n" snapshot baseline;
  let entry =
    Smod_bench_kit.Trajectory.entry_of_doc ~snapshot:(Filename.basename snapshot) doc
  in
  print_headlines entry;
  append_trajectory trajectory_path entry

(* ------------------------------- audit ----------------------------- *)

(* A least-privilege posture demo: the converted libc under its default
   Session_lifetime policy next to a deliberately over-privileged
   "blobstore" (broad surface, Always_allow, one function ever used) and
   a tightly-scoped "vault" (narrow surface, quota policy, denials on
   record, live handle under a default-deny syscall filter).  The audit
   itself is a read-only scan over the registry, the per-function
   dispatch counters and the systrace attachment table. *)
let demo_image ~name funcs =
  let b = Smof.Builder.create ~name ~version:1 in
  List.iter
    (fun fname ->
      ignore
        (Smof.Builder.add_function b ~name:fname
           ~code:(Smod_svm.Asm.assemble "loadarg 0\npush 1\nadd\nret")
           ()))
    funcs;
  Smof.Builder.finish b

let cmd_audit json_out =
  let machine = Machine.create ~jitter:0.0 () in
  let smod = Smod.install machine () in
  let systrace = Smod_systrace.Systrace.install machine in
  ignore (Smod_libc.Seclibc.install smod ());
  let vault =
    Toolchain.package smod
      ~image:(demo_image ~name:"vault" [ "seal"; "unseal" ])
      ~policy:(Policy.All_of [ Policy.Session_lifetime; Policy.Call_quota 3 ])
      ()
  in
  ignore
    (Toolchain.package smod
       ~image:
         (demo_image ~name:"blobstore" [ "get"; "put"; "delete"; "list"; "stat"; "admin" ])
       ~policy:Policy.Always_allow ());
  (* Exercise blobstore: one of its six grants, once. *)
  ignore
    (Machine.spawn machine ~name:"blob-client" (fun p ->
         Crt0.run_client smod p ~module_name:"blobstore" ~version:1
           ~credential:(Credential.make ~principal:"bob" ())
           (fun conn -> ignore (Stub.call conn ~func:"get" [| 1 |]))));
  Machine.run machine;
  (* Audit from inside a live vault session so systrace coverage of the
     handle process is observable. *)
  let reports = ref [] in
  ignore
    (Machine.spawn machine ~name:"vault-client" (fun p ->
         Crt0.run_client smod p ~module_name:"vault" ~version:1
           ~credential:(Credential.make ~principal:"alice" ())
           (fun conn ->
             ignore (Stub.call conn ~func:"seal" [| 1 |]);
             ignore (Stub.call conn ~func:"unseal" [| 2 |]);
             ignore (Stub.call conn ~func:"seal" [| 3 |]);
             (try ignore (Stub.call conn ~func:"seal" [| 4 |])
              with Smod_kern.Errno.Error _ -> ());
             (match
                List.find_opt
                  (fun (s : Smod.session) -> s.Smod.m_id = vault.Registry.m_id)
                  (Smod.active_sessions smod)
              with
             | Some session ->
                 (* The handle is parked in msgrcv while this host-side
                    scan runs, so the filter attaches for the measurement
                    and detaches before the next dispatch traps. *)
                 Smod_systrace.Systrace.attach systrace ~pid:session.Smod.handle_pid
                   (Smod_systrace.Systrace.parse_policy
                      "policy: audit-demo\ndefault: deny\n");
                 reports := Audit.score ~systrace smod;
                 Smod_systrace.Systrace.detach systrace ~pid:session.Smod.handle_pid
             | None -> reports := Audit.score ~systrace smod))));
  Machine.run machine;
  if json_out then print_string (Audit.to_string !reports)
  else print_string (Audit.render !reports)

(* ------------------------------ cluster ---------------------------- *)

(* `smodctl cluster status`: a live K-shard cluster under the lazy
   coherence mode — tenants placed by the consistent-hash ring, a
   keystore rotation published cluster-wide (one shard dispatches and
   settles, the rest stay visibly stale), and one live tenant migration
   (drain + scrub on the source, pooled re-attach on the destination) —
   then the coordinator's status body and a cluster-wide least-privilege
   rollup: every shard audited, worst module named.  The last shard
   carries the over-privileged blobstore demo so the rollup has a real
   offender to point at. *)
let cmd_cluster_status shards_n tenants_n calls =
  let module Coordinator = Smod_cluster.Coordinator in
  let module Migrate = Smod_cluster.Migrate in
  let module World = Smod_bench_kit.World in
  if shards_n < 1 then begin
    Printf.eprintf "smodctl: --shards must be >= 1\n";
    exit 2
  end;
  let park () =
    Effect.perform (Smod_kern.Sched.Block (Smod_kern.Sched.Custom "cluster-demo"))
  in
  let coord = Coordinator.create ~mode:Coordinator.Lazy () in
  let pool =
    {
      Smod_pool.Smodd.default_config with
      max_handles_per_module = tenants_n;
      max_total_handles = tenants_n;
      max_queue_depth = 4 * tenants_n;
    }
  in
  let worlds =
    Array.init shards_n (fun shard ->
        let world =
          World.create ~seed:(Int64.of_int (4200 + shard)) ~pool ~with_rpc:false ()
        in
        ignore (Coordinator.add_shard coord world.World.smod);
        world)
  in
  (* The over-privileged offender for the audit rollup, on the last shard. *)
  ignore
    (Toolchain.package worlds.(shards_n - 1).World.smod
       ~image:(demo_image ~name:"blobstore" [ "get"; "put"; "delete"; "list"; "stat"; "admin" ])
       ~policy:Policy.Always_allow ());
  let tenants = List.init tenants_n (Printf.sprintf "tenant-%02d") in
  let pids = Array.make shards_n [] in
  (* Each tenant runs a round of calls and parks holding its session, so
     the status table shows live sessions; a second one-call round lets a
     woken shard settle the published epoch through the dispatch gate. *)
  List.iter
    (fun name ->
      let s = Coordinator.route coord name in
      World.spawn_seclibc_client worlds.(s) ~name ~principal:name (fun p conn ->
          pids.(s) <- p.Proc.pid :: pids.(s);
          p.Proc.daemon <- true;
          for j = 1 to calls do
            ignore (Smod_libc.Seclibc.Client.test_incr conn j)
          done;
          park ();
          ignore (Smod_libc.Seclibc.Client.test_incr conn 0);
          park ()))
    tenants;
  Array.iter World.run worlds;
  Printf.printf "cluster demo: K=%d shards, %s coherence, %d tenants x %d calls\n" shards_n
    (Coordinator.mode_name (Coordinator.mode coord))
    tenants_n calls;
  (* A cluster-wide control-plane write: every shard is stale until its
     next dispatch pays the epoch check and syncs. *)
  let op = Coordinator.Rotate_key { name = "api-key"; secret = "rotated-by-demo" } in
  Coordinator.publish coord op;
  Printf.printf "published: %s (cluster epoch -> %d)\n" (Coordinator.describe_op op)
    (Coordinator.epoch coord);
  List.iter (Machine.wakeup worlds.(0).World.machine) pids.(0);
  World.run worlds.(0);
  Printf.printf
    "shard 0 dispatched once and settled; the others stay stale until their next dispatch\n";
  (* One live migration off whatever shard the first tenant landed on. *)
  if shards_n > 1 then begin
    let tenant = List.hd tenants in
    let from_shard = Coordinator.route coord tenant in
    let to_shard = (from_shard + 1) mod shards_n in
    let mg = Migrate.start coord ~tenant ~to_shard in
    World.run worlds.(from_shard);
    World.spawn_seclibc_client worlds.(to_shard) ~name:(tenant ^ "-moved") ~principal:tenant
      (fun _p conn -> ignore (Smod_libc.Seclibc.Client.test_incr conn 1));
    World.run worlds.(to_shard);
    Migrate.finish coord mg;
    Printf.printf "migrated %s: shard %d -> shard %d (drain + scrub + pooled re-attach)\n"
      tenant from_shard to_shard
  end;
  print_newline ();
  print_string (Coordinator.render_status coord ~tenants);
  (* Cluster-wide least-privilege rollup: the per-shard audit is the
     same read-only scan `smodctl audit` runs, minimised over shards. *)
  let reports =
    List.concat
      (List.mapi
         (fun s (w : World.t) -> List.map (fun r -> (s, r)) (Audit.score w.World.smod))
         (Array.to_list worlds))
  in
  print_newline ();
  let t =
    Smod_util.Table.create
      ~aligns:[ Smod_util.Table.Right; Smod_util.Table.Left; Smod_util.Table.Right;
                Smod_util.Table.Left ]
      [ "shard"; "module"; "score"; "policy" ]
  in
  List.iter
    (fun (s, (r : Audit.report)) ->
      Smod_util.Table.add_row t
        [ string_of_int s; r.Audit.a_module; Printf.sprintf "%.1f" r.Audit.a_score;
          r.Audit.a_policy ])
    reports;
  Printf.printf "least-privilege rollup (%d shard(s) audited):\n%s" shards_n
    (Smod_util.Table.render t);
  match
    List.fold_left
      (fun acc ((_, r2) as c) ->
        match acc with
        | Some (_, (r1 : Audit.report)) when r1.Audit.a_score <= r2.Audit.a_score -> acc
        | _ -> Some c)
      None reports
  with
  | Some (s, r) ->
      Printf.printf "cluster worst module: %s @ shard %d — %.1f/100 (%s)\n" r.Audit.a_module
        s r.Audit.a_score r.Audit.a_policy
  | None -> ()

(* ---------------------------- pack / inspect ----------------------- *)

let cmd_pack out encrypt_seed =
  let image = Smod_libc.Seclibc.image () in
  let image =
    match encrypt_seed with
    | None -> image
    | Some seed ->
        let key =
          Bytes.to_string (Bytes.sub (Smod_crypto.Sha256.digest_string ("key:" ^ seed)) 0 16)
        in
        let nonce = Bytes.sub (Smod_crypto.Sha256.digest_string ("nonce:" ^ seed)) 0 16 in
        Smof.encrypt_text image ~key ~nonce
  in
  let data = Smof.to_bytes image in
  let oc = open_out_bin out in
  output_bytes oc data;
  close_out oc;
  Printf.printf "wrote %s: %s v%d, %d bytes (%s)\n" out image.Smof.mod_name
    image.Smof.mod_version (Bytes.length data)
    (if image.Smof.encrypted then "text encrypted" else "plaintext")

let cmd_inspect file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let data = Bytes.create len in
  really_input ic data 0 len;
  close_in ic;
  match Smof.of_bytes data with
  | exception Smof.Malformed m ->
      Printf.eprintf "%s: not a SMOF image: %s\n" file m;
      exit 1
  | image ->
      Printf.printf "%s: SMOF image\n" file;
      Printf.printf "  module:    %s v%d\n" image.Smof.mod_name image.Smof.mod_version;
      Printf.printf "  text:      %d bytes (%s)\n" (Bytes.length image.Smof.text)
        (if image.Smof.encrypted then "ENCRYPTED, relocation sites plaintext" else "plaintext");
      Printf.printf "  data:      %d bytes\n" (Bytes.length image.Smof.data);
      Printf.printf "  functions: %d\n" (List.length (Smof.function_symbols image));
      Printf.printf "  relocs:    %d\n" (List.length image.Smof.relocs);
      Printf.printf "  digest:    %s\n" (Smod_util.Hexdump.to_hex image.Smof.text_digest);
      print_string (Smof.objdump_t image)

(* ------------------------------ cmdliner --------------------------- *)

open Cmdliner

let objdump_cmd =
  let grep_f = Arg.(value & flag & info [ "functions"; "F" ] ~doc:"Only the ' F ' lines.") in
  Cmd.v
    (Cmd.info "objdump" ~doc:"Symbol listing of the converted libc (tool-chain input)")
    Term.(const cmd_objdump $ grep_f)

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let attack_cmd =
  let mitigation =
    Arg.(value & opt string "none" & info [ "mitigation"; "m" ] ~docv:"MODE"
           ~doc:"none, unmap or dequeue.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run the section-4.4 TOCTOU attack")
    Term.(const cmd_attack $ mitigation)

let pack_cmd =
  let out =
    Arg.(value & opt string "seclibc.smof" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path.")
  in
  let seed =
    Arg.(value & opt (some string) None & info [ "encrypt" ] ~docv:"SEED"
           ~doc:"AES-encrypt the text with a key derived from SEED.")
  in
  Cmd.v (Cmd.info "pack" ~doc:"Serialise the converted libc to a SMOF file")
    Term.(const cmd_pack $ out $ seed)

let inspect_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "inspect" ~doc:"Describe a SMOF image file")
    Term.(const cmd_inspect $ file)

let pool_cmd =
  let clients =
    Arg.(value & opt int 6 & info [ "clients" ] ~docv:"N" ~doc:"Demo client count.")
  in
  let calls =
    Arg.(value & opt int 20 & info [ "calls" ] ~docv:"N" ~doc:"Calls per demo client.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status" ~doc:"Run a workload through smodd and print the pool table")
      Term.(const cmd_pool_status $ clients $ calls)
  in
  Cmd.group (Cmd.info "pool" ~doc:"The smodd session-pooling service layer") [ status_cmd ]

let policy_cmd =
  let calls =
    Arg.(value & opt int 50 & info [ "calls" ] ~docv:"N" ~doc:"Demo calls to dispatch.")
  in
  let assertions =
    Arg.(value & opt int 4 & info [ "assertions" ] ~docv:"N"
           ~doc:"KeyNote assertions in the demo policy.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Run a workload with the compiled policy engine on and print the compile \
            state per module — cached programs, opcode mix, hit / miss / invalidation \
            counters, and a keystore-rotation invalidation")
      Term.(const cmd_policy_status $ calls $ assertions)
  in
  Cmd.group (Cmd.info "policy" ~doc:"The compiled policy engine") [ status_cmd ]

let ring_cmd =
  let batches =
    Arg.(value & opt int 4 & info [ "batches" ] ~docv:"N" ~doc:"Batches to submit.")
  in
  let batch_size =
    Arg.(value & opt int 16 & info [ "batch-size" ] ~docv:"N" ~doc:"Calls per batch.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:"Run a batched workload over the dispatch ring and print its live state")
      Term.(const cmd_ring_status $ batches $ batch_size)
  in
  Cmd.group (Cmd.info "ring" ~doc:"The shared-memory dispatch-ring fast path") [ status_cmd ]

let poller_cmd =
  let batches =
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc:"Batches to submit.")
  in
  let batch_size =
    Arg.(value & opt int 16 & info [ "batch-size" ] ~docv:"N" ~doc:"Calls per batch.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Switch the SQPOLL-style kernel poller and effects multiplexer on, run a \
            batched workload that parks and doorbell-wakes the poller, and print the \
            live transition counters")
      Term.(const cmd_poller_status $ batches $ batch_size)
  in
  Cmd.group
    (Cmd.info "poller" ~doc:"The zero-trap data path (kernel poller + effects mux)")
    [ status_cmd ]

let bench_cmd =
  let run_cmd =
    Cmd.v
      (Cmd.info "run" ~doc:"Quick Figure 8 run")
      Term.(const cmd_bench_run $ const ())
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Estimate for the paper-exact call counts.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains for the parallel estimate (default: the number of cores).")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "List the bench experiment catalog with per-section task counts and \
            estimated sequential vs parallel wall-clock")
      Term.(const cmd_bench_status $ full $ jobs)
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"BENCH"
          ~doc:
            "Capture only the given comma-separated sections (ids and the harness \
             aliases figure8/ablations; wallclock is accepted and skipped).")
  in
  let run_full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run the paper-exact call counts (slow).")
  in
  let no_wallclock =
    Arg.(
      value & flag
      & info [ "no-wallclock" ]
          ~doc:
            "Accepted for CLI symmetry with the harness; a capture never runs the \
             bechamel wall-clock section.")
  in
  let dir =
    Arg.(
      value
      & opt string "bench/baselines"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Directory for dated snapshots.")
  in
  let trajectory =
    Arg.(
      value
      & opt string "BENCH_TRAJECTORY.json"
      & info [ "trajectory" ] ~docv:"PATH"
          ~doc:"The append-only headline-metric history to fold the capture into.")
  in
  let date =
    Arg.(
      value
      & opt (some string) None
      & info [ "date" ] ~docv:"YYYY-MM-DD" ~doc:"Override the capture date (default: UTC today).")
  in
  let commit =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ] ~docv:"SHA"
          ~doc:"Override the commit stamp (default: git rev-parse --short HEAD, else nogit).")
  in
  let capture_cmd =
    Cmd.v
      (Cmd.info "capture"
         ~doc:
           "Run the bench sections and write a dated, commit-stamped snapshot under \
            --dir, appending its headline metrics to the trajectory")
      Term.(
        const cmd_bench_capture $ run_full $ only $ jobs $ no_wallclock $ dir $ trajectory
        $ date $ commit)
  in
  let snapshot =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SNAPSHOT" ~doc:"A dated snapshot produced by bench capture.")
  in
  let baseline =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"PATH" ~doc:"The committed baseline to overwrite.")
  in
  let promote_cmd =
    Cmd.v
      (Cmd.info "promote"
         ~doc:
           "Copy a dated snapshot over the committed baseline and record its headline \
            row in the trajectory, one step")
      Term.(const cmd_bench_promote $ snapshot $ baseline $ trajectory)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"The benchmark harness")
    [ run_cmd; status_cmd; capture_cmd; promote_cmd ]

let cluster_cmd =
  let shards =
    Arg.(value & opt int 3 & info [ "shards"; "K" ] ~docv:"K"
           ~doc:"Shard kernels in the demo cluster.")
  in
  let tenants =
    Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"N"
           ~doc:"Demo tenants placed on the consistent-hash ring.")
  in
  let calls =
    Arg.(value & opt int 5 & info [ "calls" ] ~docv:"N" ~doc:"Calls per tenant per round.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Run a demo workload over a K-shard cluster — placement, a cluster-wide \
            keystore rotation under lazy coherence, one live migration — and print the \
            coordinator status plus a cluster-wide least-privilege rollup")
      Term.(const cmd_cluster_status $ shards $ tenants $ calls)
  in
  Cmd.group
    (Cmd.info "cluster"
       ~doc:"The sharded control plane (coordinator, placement, migration)")
    [ status_cmd ]

let audit_cmd =
  let json_out =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the smod-audit JSON document.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Score the least-privilege posture of every installed module from existing \
          introspection: policy breadth, grant usage, systrace coverage, enforcement \
          evidence")
    Term.(const cmd_audit $ json_out)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "smodctl" ~version:"1.0"
             ~doc:"Inspect and demo the SecModule framework")
          [
            objdump_cmd;
            simple "stubs" "Autogenerated client stub assembly" cmd_stubs;
            simple "registry" "List registered SecModules" cmd_registry;
            simple "layout" "Figure 2: address-space layout of a live session" cmd_layout;
            simple "trace" "Figure 1: initialization sequence events" cmd_trace;
            simple "stack" "Figure 3: stack choreography of one call" cmd_stack;
            attack_cmd;
            pack_cmd;
            inspect_cmd;
            pool_cmd;
            policy_cmd;
            ring_cmd;
            poller_cmd;
            bench_cmd;
            cluster_cmd;
            audit_cmd;
          ]))
