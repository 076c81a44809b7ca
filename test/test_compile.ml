(* The compiled policy engine (PR 4): randomized differential testing of
   Compile.run against Eval.query, Policy.check_compiled against
   Policy.check, the fail-closed divergences (unknown levels, unverified
   chains), hostile-input parser hardening, and the cache-invalidation
   story — keystore rotation must evict compiled programs and pooled
   decisions in the same step, including between session establishment
   and the first batched call. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Clock = Smod_sim.Clock
module Ast = Smod_keynote.Ast
module Parse = Smod_keynote.Parse
module Eval = Smod_keynote.Eval
module Compile = Smod_keynote.Compile
module Fuse = Smod_keynote.Fuse
module Vexec = Smod_keynote.Vexec
module Keystore = Smod_keynote.Keystore
module Smof = Smod_modfmt.Smof
module World = Smod_bench_kit.World
module Smodd = Smod_pool.Smodd
open Secmodule

let levels = [| "deny"; "review"; "allow" |]

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Randomized differential: Compile.run ≡ Eval.query                   *)
(* ------------------------------------------------------------------ *)

(* A small closed world of principals and attributes so generated
   delegation graphs actually connect (and cycle), and generated guards
   actually flip on the generated attrs. *)
let principals = [ "alice"; "kp0"; "kp1"; "kp2" ]

let gen_query =
  let open QCheck.Gen in
  let gen_principal = oneofl principals in
  let gen_attr_name =
    oneofl
      [ "a"; "b"; "c"; "module"; "function"; "calls_so_far";
        "origin_module"; "origin_ring"; "origin_transport" ]
  in
  let gen_value = oneof [ map string_of_int (int_range (-2) 3); oneofl [ "x"; "libc"; "" ] ] in
  let gen_term =
    oneof
      [
        map (fun n -> Ast.Attr n) gen_attr_name;
        map (fun s -> Ast.Str s) gen_value;
        map (fun i -> Ast.Int i) (int_range (-2) 3);
      ]
  in
  let gen_cmp = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let rec gen_expr n =
    if n = 0 then
      oneof
        [
          return Ast.True;
          return Ast.False;
          map3 (fun a o b -> Ast.Cmp (a, o, b)) gen_term gen_cmp gen_term;
        ]
    else
      oneof
        [
          map3 (fun a o b -> Ast.Cmp (a, o, b)) gen_term gen_cmp gen_term;
          map (fun e -> Ast.Not e) (gen_expr (n - 1));
          map2 (fun a b -> Ast.And (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1));
          map2 (fun a b -> Ast.Or (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1));
        ]
  in
  let rec gen_lic n =
    if n = 0 then
      oneof [ map (fun p -> Ast.L_principal p) gen_principal; return Ast.L_empty ]
    else
      oneof
        [
          map (fun p -> Ast.L_principal p) gen_principal;
          map2 (fun a b -> Ast.L_and (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1));
          map2 (fun a b -> Ast.L_or (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1));
          ( list_size (2 -- 4) (gen_lic (n - 1)) >>= fun ls ->
            int_range 1 (List.length ls) >|= fun k -> Ast.L_kof (k, ls) );
        ]
  in
  let gen_clauses =
    list_size (0 -- 3)
      (map2
         (fun guard value -> { Ast.guard; value })
         (gen_expr 2)
         (oneofl [ "deny"; "review"; "allow" ]))
  in
  let gen_assertion authorizer =
    map2
      (fun licensees conditions ->
        { Ast.authorizer; licensees; conditions; comment = None; signature = None })
      (gen_lic 2) gen_clauses
  in
  list_size (1 -- 3) (gen_assertion "POLICY") >>= fun policy ->
  list_size (0 -- 4) (gen_principal >>= gen_assertion) >>= fun credentials ->
  list_size (0 -- 3) (pair gen_attr_name gen_value) >>= fun attrs ->
  list_size (1 -- 2) gen_principal >|= fun requesters ->
  (policy, credentials, attrs, requesters)

let print_query (policy, credentials, attrs, requesters) =
  Printf.sprintf "policy:\n%s\ncredentials:\n%s\nattrs: %s\nrequesters: %s"
    (String.concat "---\n" (List.map Ast.canonical_body policy))
    (String.concat "---\n" (List.map Ast.canonical_body credentials))
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
    (String.concat ", " requesters)

let prop_compiled_matches_interpreted =
  QCheck.Test.make ~name:"compiled verdict = interpreted verdict" ~count:2000
    (QCheck.make ~print:print_query gen_query)
    (fun (policy, credentials, attrs, requesters) ->
      let r = Eval.query ~policy ~credentials ~attrs ~requesters ~levels in
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed on valid levels: %s" e
      | Ok prog ->
          let o = Compile.run prog ~attrs in
          if o.Compile.index <> r.Eval.index || o.Compile.level <> r.Eval.level then
            QCheck.Test.fail_reportf "compiled (%s,%d) <> interpreted (%s,%d)"
              o.Compile.level o.Compile.index r.Eval.level r.Eval.index
          else true)

(* One program, many attribute sets: re-running a cached program must not
   leak evaluation state between runs. *)
let prop_program_reusable_across_attrs =
  QCheck.Test.make ~name:"one compiled program serves many attr sets" ~count:500
    (QCheck.make ~print:print_query gen_query)
    (fun (policy, credentials, attrs, requesters) ->
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed: %s" e
      | Ok prog ->
          List.for_all
            (fun attrs' ->
              let r = Eval.query ~policy ~credentials ~attrs:attrs' ~requesters ~levels in
              let o = Compile.run prog ~attrs:attrs' in
              o.Compile.index = r.Eval.index)
            [ attrs; []; [ ("a", "1") ]; attrs @ attrs ])

(* The E9 bench ladder, exactly as lib/bench_kit/ablations.ml builds it:
   n non-matching assertions behind one matching one. *)
let e9_policy n =
  let non_matching =
    List.init n (fun i ->
        Parse.assertion_of_string
          (Printf.sprintf
             "keynote-version: 2\n\
              authorizer: \"POLICY\"\n\
              licensees: \"client\"\n\
              conditions: module == \"seclibc\" && clause == %d -> \"allow\";\n"
             i))
  in
  Parse.assertion_of_string
    "keynote-version: 2\n\
     authorizer: \"POLICY\"\n\
     licensees: \"client\"\n\
     conditions: module == \"seclibc\" -> \"allow\";\n"
  :: non_matching

let test_e9_ladder_differential () =
  let levels = [| "deny"; "allow" |] in
  List.iter
    (fun n ->
      let policy = e9_policy n in
      List.iter
        (fun attrs ->
          let r =
            Eval.query ~policy ~credentials:[] ~attrs ~requesters:[ "client" ] ~levels
          in
          match Compile.compile ~policy ~credentials:[] ~requesters:[ "client" ] ~levels () with
          | Error e -> Alcotest.failf "keynote-%d failed to compile: %s" (n + 1) e
          | Ok prog ->
              let o = Compile.run prog ~attrs in
              Alcotest.(check int)
                (Printf.sprintf "keynote-%d index" (n + 1))
                r.Eval.index o.Compile.index;
              Alcotest.(check string)
                (Printf.sprintf "keynote-%d level" (n + 1))
                r.Eval.level o.Compile.level)
        [
          [ ("phase", "call"); ("function", "test_incr"); ("module", "seclibc");
            ("calls_so_far", "5") ];
          [ ("module", "other") ];
          [];
        ])
    [ 0; 3; 15 ]

(* The compiled E9 slope: a non-matching ladder assertion costs a handful
   of fused opcodes, not a 420-cycle interpreted walk.  Pin the per-
   assertion op growth so the >= 4x slope cut in bench E9 cannot silently
   regress to interpreted-shaped costs. *)
let test_e9_op_slope () =
  let levels = [| "deny"; "allow" |] in
  let attrs = [ ("module", "seclibc"); ("calls_so_far", "5") ] in
  let ops n =
    match Compile.compile ~policy:(e9_policy n) ~credentials:[] ~requesters:[ "client" ]
            ~levels ()
    with
    | Ok prog -> (Compile.run prog ~attrs).Compile.ops
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let o1 = ops 0 and o16 = ops 15 in
  let per_assertion = float_of_int (o16 - o1) /. 15.0 in
  Alcotest.(check bool)
    (Printf.sprintf "per-assertion op growth %.1f stays under 8" per_assertion)
    true (per_assertion <= 8.0)

(* ------------------------------------------------------------------ *)
(* Fused batch engine (E24): Fuse.run_slot ≡ Compile.run ≡ Eval.query  *)
(* ------------------------------------------------------------------ *)

let origin_pairs (o : Fuse.origin) =
  [
    ("origin_module", o.Fuse.o_module);
    ("origin_ring", string_of_int o.Fuse.o_ring);
    ("origin_transport", o.Fuse.o_transport);
  ]

(* A policy compiled without fusion prepares for free, and each KeyNote
   arm then runs its whole program per check. *)
let whole ~clock compiled = Policy.prepare ~clock ~origin:Fuse.no_origin ~attrs:[] compiled

let gen_origin =
  let open QCheck.Gen in
  map3
    (fun m r t -> { Fuse.o_module = m; o_ring = r; o_transport = t })
    (oneofl [ "user"; "seclibc"; "kp0" ])
    (int_range 0 3)
    (oneofl [ "msgq"; "ring"; "poller"; "attach" ])

let print_fused_query (q, (o : Fuse.origin)) =
  Printf.sprintf "%s\norigin: %s ring %d via %s" (print_query q) o.Fuse.o_module
    o.Fuse.o_ring o.Fuse.o_transport

let strip k l = List.filter (fun (k', _) -> k' <> k) l

(* A batch of attribute sets differing only in the varying attributes —
   exactly what sys_smod_call_batch presents slot to slot. *)
let batch_slots base =
  [
    base;
    ("function", "f1") :: strip "function" base;
    ("calls_so_far", "2") :: strip "calls_so_far" base;
    ("function", "g") :: ("calls_so_far", "-1")
    :: strip "function" (strip "calls_so_far" base);
  ]

(* The tentpole's correctness contract: one snapshot per batch, residue
   replayed per slot, and every slot's verdict equals both the per-slot
   compiled pass and the interpreted checker — including programs with
   origin predicates (resolved from the kernel origin record on the fused
   engine, from the appended attr pairs on the other two) and varying
   attributes.  Residue op counts must never exceed the full pass. *)
let prop_fused_matches_compiled_and_interpreted =
  QCheck.Test.make ~name:"fused verdict = per-slot = interpreted (batch)" ~count:2000
    (QCheck.make ~print:print_fused_query (QCheck.Gen.pair gen_query gen_origin))
    (fun ((policy, credentials, attrs0, requesters), origin) ->
      (* Attrs must agree with the kernel origin record, as the dispatcher
         guarantees: drop any generated origin pair, append the real ones. *)
      let base =
        List.filter (fun (k, _) -> not (List.mem k Compile.origin_attrs)) attrs0
        @ origin_pairs origin
      in
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed on valid levels: %s" e
      | Ok prog ->
          let plan = Fuse.plan prog ~varying:Policy.batch_varying_attrs in
          let invariant =
            List.filter
              (fun (k, _) -> not (List.mem k Policy.batch_varying_attrs))
              base
          in
          let snap = Fuse.begin_batch plan ~origin ~attrs:invariant in
          List.for_all
            (fun attrs ->
              let r = Eval.query ~policy ~credentials ~attrs ~requesters ~levels in
              let c = Compile.run prog ~attrs in
              let f = Fuse.run_slot plan snap ~origin ~attrs in
              if
                f.Compile.index <> c.Compile.index
                || f.Compile.level <> c.Compile.level
                || c.Compile.index <> r.Eval.index
                || c.Compile.level <> r.Eval.level
              then
                QCheck.Test.fail_reportf
                  "slot [%s]: fused (%s,%d) per-slot (%s,%d) interpreted (%s,%d)"
                  (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
                  f.Compile.level f.Compile.index c.Compile.level c.Compile.index
                  r.Eval.level r.Eval.index
              else if f.Compile.ops > c.Compile.ops then
                QCheck.Test.fail_reportf "residue ops %d exceed full pass %d"
                  f.Compile.ops c.Compile.ops
              else true)
            (batch_slots base))

(* Snapshot reuse across batches: re-arming must be unnecessary as long
   as the program is live.  Run the same slot through two snapshots and a
   shared one many times — verdicts and op counts must be stable — with a
   vectorized batch over every slot on each snapshot between slots, since
   its lanes replay on the snapshot's nodes too. *)
let prop_snapshot_reusable =
  QCheck.Test.make ~name:"snapshot reusable across batches" ~count:300
    (QCheck.make ~print:print_fused_query (QCheck.Gen.pair gen_query gen_origin))
    (fun ((policy, credentials, attrs0, requesters), origin) ->
      let base =
        List.filter (fun (k, _) -> not (List.mem k Compile.origin_attrs)) attrs0
        @ origin_pairs origin
      in
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed: %s" e
      | Ok prog ->
          let plan = Fuse.plan prog ~varying:Policy.batch_varying_attrs in
          let snap1 = Fuse.begin_batch plan ~origin ~attrs:base in
          let snap2 = Fuse.begin_batch plan ~origin ~attrs:base in
          let o1 = Fuse.run_slot plan snap1 ~origin ~attrs:base in
          let slots = batch_slots base @ [ base; base ] in
          let lanes =
            Array.of_list
              (List.map (fun attrs -> { Vexec.l_origin = origin; l_attrs = attrs }) slots)
          in
          let vector snap = Vexec.run_residue plan snap ~width:Vexec.default_width ~lanes in
          let v1 = vector snap1 in
          List.for_all
            (fun slot ->
              let a = Fuse.run_slot plan snap1 ~origin ~attrs:slot in
              let va = vector snap1 in
              let b = Fuse.run_slot plan snap2 ~origin ~attrs:slot in
              let vb = vector snap2 in
              a.Compile.index = b.Compile.index && a.Compile.ops = b.Compile.ops
              && va = v1 && vb = v1)
            slots
          &&
          let o1' = Fuse.run_slot plan snap1 ~origin ~attrs:base in
          o1'.Compile.index = o1.Compile.index && o1'.Compile.ops = o1.Compile.ops)

(* ------------------------------------------------------------------ *)
(* Vectorized batch engine (E25): Vexec ≡ run_slot ≡ Compile ≡ Eval    *)
(* ------------------------------------------------------------------ *)

(* The four-way differential: the vectorized lanes compute, per lane,
   exactly the verdict of the slot-major fused replay, the per-slot
   compiled pass, and the interpreted checker — over generated programs
   that include origin predicates, per-lane attribute divergence
   (different functions, calls_so_far extremes) and the early-deny
   short-circuits fused test+jf produces.  At one lane the vector path
   must also charge exactly the scalar residue op count: the honest
   fallback the batch-1 bench row relies on. *)
let prop_vectorized_matches_all =
  QCheck.Test.make ~name:"vectorized = fused = per-slot = interpreted (batch)"
    ~count:2000
    (QCheck.make ~print:print_fused_query (QCheck.Gen.pair gen_query gen_origin))
    (fun ((policy, credentials, attrs0, requesters), origin) ->
      let base =
        List.filter (fun (k, _) -> not (List.mem k Compile.origin_attrs)) attrs0
        @ origin_pairs origin
      in
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed on valid levels: %s" e
      | Ok prog ->
          let plan = Fuse.plan prog ~varying:Policy.batch_varying_attrs in
          let invariant =
            List.filter
              (fun (k, _) -> not (List.mem k Policy.batch_varying_attrs))
              base
          in
          let snap = Fuse.begin_batch plan ~origin ~attrs:invariant in
          let slots = Array.of_list (batch_slots base) in
          let lanes =
            Array.map
              (fun attrs -> { Vexec.l_origin = origin; l_attrs = attrs })
              slots
          in
          let res = Vexec.run_residue plan snap ~width:Vexec.default_width ~lanes in
          Array.length res.Vexec.vr_indices = Array.length slots
          && Array.for_all Fun.id
               (Array.mapi
                  (fun k attrs ->
                    let r = Eval.query ~policy ~credentials ~attrs ~requesters ~levels in
                    let f = Fuse.run_slot plan snap ~origin ~attrs in
                    let v = res.Vexec.vr_indices.(k) in
                    if v <> f.Compile.index || f.Compile.index <> r.Eval.index then
                      QCheck.Test.fail_reportf
                        "lane %d [%s]: vectorized %d fused (%s,%d) interpreted (%s,%d)"
                        k
                        (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) attrs))
                        v f.Compile.level f.Compile.index r.Eval.level r.Eval.index
                    else
                      (* Scalar fallback: one lane, any width — same
                         verdict, and unit count = the scalar residue
                         replay's op count. *)
                      let solo =
                        Vexec.run_residue plan snap ~width:1 ~lanes:[| lanes.(k) |]
                      in
                      if solo.Vexec.vr_indices.(0) <> f.Compile.index then
                        QCheck.Test.fail_reportf "lane %d solo verdict diverges" k
                      else if solo.Vexec.vr_units <> f.Compile.ops then
                        QCheck.Test.fail_reportf
                          "lane %d solo units %d <> scalar residue ops %d" k
                          solo.Vexec.vr_units f.Compile.ops
                      else true)
                  slots))

(* The lockstep walk Vexec ran before it derived its charge from lane
   paths, kept here as the reference for [vr_indices], [vr_passes] and
   [vr_units].  Every lane has its own pc, stack, accumulator and node
   column seeded from the snapshot, which the walk never writes.  The walk
   position is the minimum pc over live lanes: the opcode there runs for
   exactly the lanes whose pc sits on it, lanes that jumped ahead sleep,
   and a lane leaves the live set by running off the end of the segment.
   Each pass costs ceil(live/W) units.  Opcode semantics are written out
   again here, so the reference shares no code with the executor.  Needs
   at least one lane. *)
let reference_walk plan (snapshot : Fuse.snapshot) ~width ~(lanes : Vexec.lane array) =
  let holds op c =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
  in
  let kth_largest k values =
    match List.nth_opt (List.sort (fun a b -> compare b a) values) (k - 1) with
    | Some v -> v
    | None -> 0
  in
  let origin_value (o : Fuse.origin) = function
    | Compile.OF_module -> o.Fuse.o_module
    | Compile.OF_ring -> string_of_int o.Fuse.o_ring
    | Compile.OF_transport -> o.Fuse.o_transport
  in
  let n = Array.length lanes in
  let levels = Fuse.levels plan in
  let segs = Fuse.segments plan in
  let nodes = Array.init n (fun _ -> Array.copy snapshot.Fuse.s_nodes) in
  let stacks = Array.init n (fun _ -> Array.make (Fuse.max_seg plan + 1) 0) in
  let sp = Array.make n 0 in
  let acc = Array.make n 0 in
  let pc = Array.make n 0 in
  let result = Array.make n 0 in
  let passes = ref 0 and units = ref 0 in
  let operand_value k = function
    | Compile.O_str s -> s
    | Compile.O_attr a -> (
        match List.assoc_opt a lanes.(k).Vexec.l_attrs with Some v -> v | None -> "")
  in
  let test k a op b = holds op (Eval.compare_values (operand_value k a) (operand_value k b)) in
  let otest k f op b =
    holds op
      (Eval.compare_values (origin_value lanes.(k).Vexec.l_origin f) (operand_value k b))
  in
  (* One opcode for one lane, over lane [k]'s columns; updates [pc.(k)]. *)
  let exec_one op k =
    let st = stacks.(k) in
    let push v =
      st.(sp.(k)) <- v;
      sp.(k) <- sp.(k) + 1
    in
    let pop () =
      sp.(k) <- sp.(k) - 1;
      st.(sp.(k))
    in
    let advance () = pc.(k) <- pc.(k) + 1 in
    let jump_unless cond target v =
      if cond then advance ()
      else begin
        push v;
        pc.(k) <- target
      end
    in
    match op with
    | Compile.Test (a, op, b) ->
        push (if test k a op b then 1 else 0);
        advance ()
    | Compile.Push_bool b ->
        push (if b then 1 else 0);
        advance ()
    | Compile.Not_top ->
        st.(sp.(k) - 1) <- (if st.(sp.(k) - 1) = 0 then 1 else 0);
        advance ()
    | Compile.Jfalse target ->
        if st.(sp.(k) - 1) = 0 then pc.(k) <- target
        else begin
          ignore (pop ());
          advance ()
        end
    | Compile.Jtrue target ->
        if st.(sp.(k) - 1) <> 0 then pc.(k) <- target
        else begin
          ignore (pop ());
          advance ()
        end
    | Compile.Node_begin ->
        acc.(k) <- 0;
        advance ()
    | Compile.Clause level ->
        if pop () <> 0 then acc.(k) <- max acc.(k) level;
        advance ()
    | Compile.Push_level v ->
        push v;
        advance ()
    | Compile.Load_node i ->
        push nodes.(k).(i);
        advance ()
    | Compile.Min2 ->
        let b = pop () in
        let a = pop () in
        push (min a b);
        advance ()
    | Compile.Max2 ->
        let b = pop () in
        let a = pop () in
        push (max a b);
        advance ()
    | Compile.Kof (kk, count) ->
        let members = ref [] in
        for _ = 1 to count do
          members := pop () :: !members
        done;
        push (kth_largest kk !members);
        advance ()
    | Compile.Node_end i ->
        let lic = pop () in
        nodes.(k).(i) <- min acc.(k) lic;
        advance ()
    | Compile.Node_end_const (i, lic) ->
        nodes.(k).(i) <- min acc.(k) lic;
        advance ()
    | Compile.Store_node i ->
        nodes.(k).(i) <- pop ();
        advance ()
    | Compile.Root (base, roots) ->
        push (Array.fold_left (fun m i -> max m nodes.(k).(i)) base roots);
        advance ()
    | Compile.Test_jf (a, op, b, target) -> jump_unless (test k a op b) target 0
    | Compile.Test_jt (a, op, b, target) -> jump_unless (not (test k a op b)) target 1
    | Compile.Test_clause (a, op, b, level) ->
        if test k a op b then acc.(k) <- max acc.(k) level;
        advance ()
    | Compile.Load_max i ->
        st.(sp.(k) - 1) <- max st.(sp.(k) - 1) nodes.(k).(i);
        advance ()
    | Compile.Const_max c ->
        st.(sp.(k) - 1) <- max st.(sp.(k) - 1) c;
        advance ()
    | Compile.Const_min c ->
        st.(sp.(k) - 1) <- min st.(sp.(k) - 1) c;
        advance ()
    | Compile.Origin_test (f, op, b) ->
        push (if otest k f op b then 1 else 0);
        advance ()
    | Compile.Origin_jf (f, op, b, target) -> jump_unless (otest k f op b) target 0
    | Compile.Origin_jt (f, op, b, target) -> jump_unless (not (otest k f op b)) target 1
    | Compile.Origin_clause (f, op, b, level) ->
        if otest k f op b then acc.(k) <- max acc.(k) level;
        advance ()
  in
  Array.iter
    (fun si ->
      let ops = segs.(si).Fuse.ops in
      let len = Array.length ops in
      Array.fill pc 0 n 0;
      Array.fill sp 0 n 0;
      let w = ref 0 in
      while !w < len do
        let live = ref 0 in
        for k = 0 to n - 1 do
          if pc.(k) < len then incr live
        done;
        incr passes;
        units := !units + ((!live + width - 1) / width);
        let op = ops.(!w) in
        for k = 0 to n - 1 do
          if pc.(k) = !w then exec_one op k
        done;
        let next = ref max_int in
        for k = 0 to n - 1 do
          if pc.(k) < len && pc.(k) < !next then next := pc.(k)
        done;
        w := !next
      done;
      for k = 0 to n - 1 do
        if sp.(k) > 0 then result.(k) <- stacks.(k).(sp.(k) - 1)
      done)
    (Fuse.residue_segments plan);
  {
    Vexec.vr_indices = Array.map (fun r -> max 0 (min (Array.length levels - 1) r)) result;
    vr_passes = !passes;
    vr_units = !units;
  }

(* Vexec's charge, derived from lane paths, equals the lockstep walk's on
   generated programs: 1-64 lanes whose function and calls_so_far differ
   lane to lane (so lanes diverge and some deny early), at lane widths 1,
   2, 8 and 64.  Seeded, so a failure reproduces. *)
let prop_vector_charge_matches_walk =
  let gen_lane_value =
    QCheck.Gen.(
      oneof [ map string_of_int (int_range (-2) 3); oneofl [ "x"; "libc"; "f1"; "g"; "" ] ])
  in
  let gen =
    QCheck.Gen.(
      pair (pair gen_query gen_origin)
        (pair (oneofl [ 1; 2; 8; 64 ])
           (list_size (1 -- 64) (pair gen_lane_value gen_lane_value))))
  in
  let print (q, (width, lanes)) =
    Printf.sprintf "%s\nwidth %d, %d lanes (function, calls_so_far): %s" (print_fused_query q)
      width (List.length lanes)
      (String.concat " " (List.map (fun (f, c) -> Printf.sprintf "(%S,%S)" f c) lanes))
  in
  QCheck.Test.make ~name:"vector charge = lockstep walk (lanes, widths)" ~count:500
    (QCheck.make ~print gen)
    (fun (((policy, credentials, attrs0, requesters), origin), (width, lane_vals)) ->
      let base =
        List.filter
          (fun (k, _) ->
            not (List.mem k Compile.origin_attrs || List.mem k Policy.batch_varying_attrs))
          attrs0
        @ origin_pairs origin
      in
      match Compile.compile ~policy ~credentials ~requesters ~levels () with
      | Error e -> QCheck.Test.fail_reportf "compile failed on valid levels: %s" e
      | Ok prog ->
          let plan = Fuse.plan prog ~varying:Policy.batch_varying_attrs in
          let snap = Fuse.begin_batch plan ~origin ~attrs:base in
          let lanes =
            Array.of_list
              (List.map
                 (fun (f, c) ->
                   {
                     Vexec.l_origin = origin;
                     l_attrs = ("function", f) :: ("calls_so_far", c) :: base;
                   })
                 lane_vals)
          in
          let expected = reference_walk plan snap ~width ~lanes in
          let got = Vexec.run_residue plan snap ~width ~lanes in
          if got <> expected then
            QCheck.Test.fail_reportf
              "run_residue passes %d units %d, walk passes %d units %d (indices %s)"
              got.Vexec.vr_passes got.Vexec.vr_units expected.Vexec.vr_passes
              expected.Vexec.vr_units
              (if got.Vexec.vr_indices = expected.Vexec.vr_indices then "equal" else "differ")
          else true)

(* The lane-mask accounting, pinned on a hand-built ladder: a lane that
   fails the matching rung's first test jumps forward to the join point
   and sleeps; every position it needs is one the allowed lane visits
   too, so inside one width-W group the divergent lane costs no extra
   units.  An all-denying batch shrinks the walk itself (the skipped
   stretch is never visited). *)
let test_vexec_divergent_lane_rides_free () =
  let levels = [| "deny"; "allow" |] in
  let policy =
    [
      Parse.assertion_of_string
        "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
         conditions: function == \"f\" && a == \"1\" && b == \"2\" -> \"allow\";\n";
    ]
  in
  match Compile.compile ~policy ~credentials:[] ~requesters:[ "client" ] ~levels () with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok prog -> (
      let plan = Fuse.plan prog ~varying:Policy.batch_varying_attrs in
      let origin = Fuse.no_origin in
      let slot_attrs = [ ("a", "1"); ("b", "2") ] in
      let snap = Fuse.begin_batch plan ~origin ~attrs:slot_attrs in
      let lane f = { Vexec.l_origin = origin; l_attrs = ("function", f) :: slot_attrs } in
      let allow = Vexec.run_residue plan snap ~width:8 ~lanes:[| lane "f" |] in
      let deny = Vexec.run_residue plan snap ~width:8 ~lanes:[| lane "zzz" |] in
      let both = Vexec.run_residue plan snap ~width:8 ~lanes:[| lane "f"; lane "zzz" |] in
      Alcotest.(check (array int))
        "verdicts per lane" [| 1; 0 |] both.Vexec.vr_indices;
      Alcotest.(check int) "divergent lane rides free inside one width group"
        allow.Vexec.vr_units both.Vexec.vr_units;
      Alcotest.(check bool)
        (Printf.sprintf "all-deny walk skips the stretch (%d < %d passes)"
           deny.Vexec.vr_passes allow.Vexec.vr_passes)
        true
        (deny.Vexec.vr_passes < allow.Vexec.vr_passes);
      match Vexec.run_residue plan snap ~width:0 ~lanes:[| lane "f" |] with
      | _ -> Alcotest.fail "width 0 must be rejected"
      | exception Invalid_argument _ -> ())

let mk_clock () = M.clock (M.create ~jitter:0.0 ())

let vendor_keystore () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  ks

let signed_license ks ?(conds = "true -> \"allow\";") () =
  Keystore.sign ks
    (Parse.assertion_of_string
       (Printf.sprintf
          "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n\
           conditions: %s\n"
          conds))

let policy_trusting_vendor ?(conds = "calls_so_far < 3 -> \"allow\";") () =
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            (Printf.sprintf
               "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
                conditions: %s\n"
               conds);
        ];
      levels;
      min_level = "allow";
      attrs = [ ("color", "red") ];
    }

(* Which prepared trees the dispatcher may evaluate batch-major: volatile
   residues (calls_so_far makes lane k's input depend on earlier
   verdicts) and clock-dependent arms must fall back slot-major; quota
   composites and function-varying ladders are fair game. *)
let test_vector_eligibility () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let keynote_arm conds = policy_trusting_vendor ~conds () in
  let prepared_of policy =
    let compiled = Policy.compile ~fuse:true ~clock ~keystore:ks ~credential policy in
    Policy.prepare ~clock ~origin:Fuse.no_origin
      ~attrs:(origin_pairs Fuse.no_origin) compiled
  in
  let eligible p = Policy.vector_eligible (prepared_of p) in
  Alcotest.(check bool) "function-varying arm eligible" true
    (eligible (keynote_arm "function != \"x\" -> \"allow\";"));
  Alcotest.(check bool) "volatile residue ineligible" false
    (eligible (keynote_arm "calls_so_far < 3 -> \"allow\";"));
  Alcotest.(check bool) "quota composite eligible" true
    (eligible
       (Policy.All_of
          [ Policy.Call_quota 9; keynote_arm "function != \"x\" -> \"allow\";" ]));
  Alcotest.(check bool) "rate limit ineligible" false
    (eligible
       (Policy.All_of
          [
            Policy.Rate_limit { max_calls = 5; window_us = 1000.0 };
            keynote_arm "function != \"x\" -> \"allow\";";
          ]));
  Alcotest.(check bool) "time window ineligible" false
    (eligible
       (Policy.All_of
          [
            Policy.Time_window { not_before_us = 0.0; not_after_us = 1e12 };
            keynote_arm "function != \"x\" -> \"allow\";";
          ]))

(* Arm-major evaluation of a quota + KeyNote composite: one check_vector
   call over six lanes must hand back, lane for lane, the verdicts (and
   denial reasons) six sequential check_compiled calls produce against a
   twin state — quota consumed in lane order, the KeyNote arm evaluated
   batch-major through Vexec with lane compaction. *)
let test_policy_vector_parity () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let policy =
    Policy.All_of
      [
        Policy.Call_quota 4;
        policy_trusting_vendor ~conds:"function != \"blocked\" -> \"allow\";" ();
      ]
  in
  let compiled = Policy.compile ~fuse:true ~clock ~keystore:ks ~credential policy in
  let origin = Fuse.no_origin in
  let prepared =
    Policy.prepare ~clock ~origin ~attrs:(origin_pairs origin) compiled
  in
  Alcotest.(check bool) "composite is vector eligible" true
    (Policy.vector_eligible prepared);
  let funcs = [| "f0"; "blocked"; "f1"; "f2"; "f3"; "f4" |] in
  let attrs_of f = ("function", f) :: origin_pairs origin in
  let lanes =
    Array.map
      (fun f -> { Vexec.l_origin = origin; l_attrs = attrs_of f })
      funcs
  in
  let s_vec = Policy.initial_state policy in
  let s_seq = Policy.initial_state policy in
  let vec = Policy.check_vector ~clock ~now_us:0.0 ~credential ~lanes prepared s_vec in
  Alcotest.(check int) "one verdict per lane" (Array.length funcs)
    (Array.length vec);
  Array.iteri
    (fun i f ->
      let seq =
        Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin
          ~attrs:(attrs_of f) prepared s_seq
      in
      match (vec.(i), seq) with
      | Ok (), Ok () -> ()
      | Error a, Error b ->
          Alcotest.(check string)
            (Printf.sprintf "lane %d (%s) denial reason" i f)
            b.Policy.reason a.Policy.reason
      | Ok (), Error b ->
          Alcotest.failf "lane %d (%s): vector allowed, slot-major denied (%s)" i
            f b.Policy.reason
      | Error a, Ok () ->
          Alcotest.failf "lane %d (%s): vector denied (%s), slot-major allowed" i
            f a.Policy.reason)
    funcs;
  (* Pin the composite semantics: the keynote arm rejects "blocked", and
     the quota arm consumes on its own pass — including for the lane the
     keynote arm later denies — so only three keynote-approved lanes fit
     before the counter starves the tail, exactly as slot-major does. *)
  let verdict i = match vec.(i) with Ok () -> "allow" | Error _ -> "deny" in
  Alcotest.(check (list string))
    "verdict pattern"
    [ "allow"; "deny"; "allow"; "allow"; "deny"; "deny" ]
    (List.init (Array.length funcs) verdict)

(* Policy-layer parity: a stateful composite (quota over a volatile
   keynote arm) armed once per batch must consume quota per slot exactly
   like the interpreted and per-slot compiled engines. *)
let test_policy_fused_parity () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let policy = Policy.All_of [ Policy.Call_quota 4; policy_trusting_vendor () ] in
  let s_interp = Policy.initial_state policy in
  let s_fused = Policy.initial_state policy in
  let compiled = Policy.compile ~fuse:true ~clock ~keystore:ks ~credential policy in
  Alcotest.(check bool) "composite is fusible" true (Policy.fusion_stats compiled <> None);
  let origin = Fuse.no_origin in
  let prepared =
    Policy.prepare ~clock ~origin ~attrs:(origin_pairs origin) compiled
  in
  for i = 0 to 5 do
    let attrs = ("calls_so_far", string_of_int i) :: origin_pairs origin in
    let a = Policy.check ~clock ~now_us:0.0 ~credential ~attrs policy s_interp in
    let b =
      Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin ~attrs prepared s_fused
    in
    match (a, b) with
    | Ok (), Ok () ->
        Alcotest.(check bool) (Printf.sprintf "call %d allowed" i) true (i < 3)
    | Error da, Error db ->
        Alcotest.(check bool) (Printf.sprintf "call %d denied" i) true (i >= 3);
        Alcotest.(check string)
          (Printf.sprintf "call %d same reason" i)
          da.Policy.reason db.Policy.reason
    | Ok (), Error d ->
        Alcotest.failf "call %d: interpreted allowed, fused denied (%s)" i
          d.Policy.reason
    | Error d, Ok () ->
        Alcotest.failf "call %d: interpreted denied (%s), fused allowed" i
          d.Policy.reason
  done

(* ------------------------------------------------------------------ *)
(* Origin predicates: fail-closed compilation (satellite b)            *)
(* ------------------------------------------------------------------ *)

let compile_origin_conds ?(env = { Compile.known_modules = [ "seclibc" ] }) conds =
  let policy =
    [
      Parse.assertion_of_string
        (Printf.sprintf
           "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
            conditions: %s\n"
           conds);
    ]
  in
  Compile.compile ~origin:env ~policy ~credentials:[] ~requesters:[ "client" ]
    ~levels:[| "deny"; "allow" |] ()

let test_origin_validation_fails_closed () =
  (match
     compile_origin_conds
       "origin_module == \"seclibc\" && origin_ring <= 2 && origin_transport != \
        \"poller\" -> \"allow\";"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid origin predicate rejected: %s" e);
  (match compile_origin_conds "origin_module == \"user\" -> \"allow\";" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "\"user\" must always be a known origin: %s" e);
  (* origin-vs-origin comparisons carry no literal to validate *)
  (match compile_origin_conds "origin_module == origin_transport -> \"allow\";" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attr-vs-attr origin comparison rejected: %s" e);
  (match compile_origin_conds "origin_module == \"ghost\" -> \"allow\";" with
  | Error e ->
      Alcotest.(check bool) "diagnostic names the module" true (contains e "ghost")
  | Ok _ -> Alcotest.fail "unknown origin module must not compile");
  (match compile_origin_conds "origin_ring == 7 -> \"allow\";" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ring 7 must not compile");
  (match compile_origin_conds "origin_ring == \"x\" -> \"allow\";" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric ring must not compile");
  match compile_origin_conds "origin_transport == \"carrier-pigeon\" -> \"allow\";" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown transport must not compile"

(* Same discipline one layer up: Policy.compile with an origin
   environment turns the validation error into a deny-all stub, exactly
   like unknown compliance levels. *)
let test_origin_unknown_denies_at_policy_layer () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential = Credential.make ~principal:"client" () in
  let policy =
    Policy.Keynote
      {
        policy =
          [
            Parse.assertion_of_string
              "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
               conditions: origin_module == \"ghost\" -> \"allow\";\n";
          ];
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  let compile ~fuse =
    Policy.compile ~fuse
      ~origin_env:{ Compile.known_modules = [] }
      ~clock ~keystore:ks ~credential policy
  in
  (match Policy.compiled_stats (compile ~fuse:true) with
  | { Policy.denied = Some r; programs = 0; _ } ->
      Alcotest.(check bool) "reason names the module" true (contains r "ghost")
  | _ -> Alcotest.fail "expected a deny-all stub with no program");
  match
    Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin:Fuse.no_origin ~attrs:[]
      (whole ~clock (compile ~fuse:false))
      (Policy.initial_state policy)
  with
  | Ok () -> Alcotest.fail "deny-all stub must deny"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Policy.check ≡ Policy.check_compiled                                *)
(* ------------------------------------------------------------------ *)

(* Stateful composite over a volatile keynote arm: verdict-for-verdict
   (and reason-for-reason) parity across a call sequence, with each path
   consuming its own quota state. *)
let test_policy_check_parity () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let policy = Policy.All_of [ Policy.Call_quota 4; policy_trusting_vendor () ] in
  let s_interp = Policy.initial_state policy in
  let s_comp = Policy.initial_state policy in
  let compiled = whole ~clock (Policy.compile ~clock ~keystore:ks ~credential policy) in
  for i = 0 to 5 do
    let attrs = [ ("calls_so_far", string_of_int i) ] in
    let a = Policy.check ~clock ~now_us:0.0 ~credential ~attrs policy s_interp in
    let b =
      Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin:Fuse.no_origin ~attrs
        compiled s_comp
    in
    match (a, b) with
    | Ok (), Ok () -> Alcotest.(check bool) (Printf.sprintf "call %d allowed" i) true (i < 3)
    | Error da, Error db ->
        Alcotest.(check bool) (Printf.sprintf "call %d denied" i) true (i >= 3);
        Alcotest.(check string)
          (Printf.sprintf "call %d same reason" i)
          da.Policy.reason db.Policy.reason
    | Ok (), Error d ->
        Alcotest.failf "call %d: interpreted allowed, compiled denied (%s)" i d.Policy.reason
    | Error d, Ok () ->
        Alcotest.failf "call %d: interpreted denied (%s), compiled allowed" i d.Policy.reason
  done

(* Deliberate divergence 1: a clause naming an unknown compliance level is
   found lazily by the interpreter, only when its guard holds, and up
   front by the compiler.  Both engines deny: the interpreted check turns
   Eval's rejection into a denial, the compiled policy is a deny-all
   stub. *)
let test_unknown_level_fails_closed () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let policy = policy_trusting_vendor ~conds:"true -> \"sudo\";" () in
  (match
     Policy.check ~clock ~now_us:0.0 ~credential ~attrs:[] policy (Policy.initial_state policy)
   with
  | Ok () -> Alcotest.fail "unknown level must deny when interpreted"
  | Error d ->
      Alcotest.(check bool) "interpreted reason names the level" true
        (contains d.Policy.reason "sudo"));
  let compiled = Policy.compile ~clock ~keystore:ks ~credential policy in
  (match Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin:Fuse.no_origin
           ~attrs:[] (whole ~clock compiled) (Policy.initial_state policy)
   with
  | Ok () -> Alcotest.fail "unknown level must deny"
  | Error d ->
      Alcotest.(check bool) "reason names the level" true
        (contains d.Policy.reason "sudo"));
  match Policy.compiled_stats compiled with
  | { Policy.denied = Some _; programs = 0; _ } -> ()
  | _ -> Alcotest.fail "expected a deny-all stub with no program"

(* Deliberate divergence 2: compilation hoists the signature check, so a
   credential whose chain does not verify compiles to a deny-all stub
   (the interpreted per-call path trusts establishment to have done
   this). *)
let test_unverified_chain_fails_closed () =
  let clock = mk_clock () in
  let ks = vendor_keystore () in
  let unsigned =
    Parse.assertion_of_string
      "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n\
       conditions: true -> \"allow\";\n"
  in
  let credential = Credential.make ~principal:"alice" ~assertions:[ unsigned ] () in
  let policy = policy_trusting_vendor () in
  let compiled = whole ~clock (Policy.compile ~clock ~keystore:ks ~credential policy) in
  match Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin:Fuse.no_origin
          ~attrs:[ ("calls_so_far", "0") ]
          compiled (Policy.initial_state policy)
  with
  | Ok () -> Alcotest.fail "unverified chain must deny"
  | Error d ->
      Alcotest.(check bool) "reason names verification" true
        (contains d.Policy.reason "verification")

(* Compiling charges the hoisted work; running charges per opcode.  The
   steady state (one compile, many runs) must be cheaper than the
   interpreter for the 16-assertion ladder. *)
let test_compiled_cycles_cheaper () =
  let machine = M.create ~jitter:0.0 () in
  let clock = M.clock machine in
  let ks = vendor_keystore () in
  let credential = Credential.make ~principal:"client" () in
  let policy =
    Policy.Keynote
      { policy = e9_policy 15; levels = [| "deny"; "allow" |]; min_level = "allow"; attrs = [] }
  in
  let attrs = [ ("module", "seclibc") ] in
  let state = Policy.initial_state policy in
  let interp_t0 = Clock.now_us clock in
  for _ = 1 to 100 do
    match Policy.check ~clock ~now_us:0.0 ~credential ~attrs policy state with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "interpreted denied"
  done;
  let interp_us = Clock.now_us clock -. interp_t0 in
  let compiled = whole ~clock (Policy.compile ~clock ~keystore:ks ~credential policy) in
  let comp_t0 = Clock.now_us clock in
  for _ = 1 to 100 do
    match
      Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin:Fuse.no_origin ~attrs
        compiled state
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "compiled denied"
  done;
  let comp_us = Clock.now_us clock -. comp_t0 in
  Alcotest.(check bool)
    (Printf.sprintf "compiled %.1fus < a quarter of interpreted %.1fus" comp_us interp_us)
    true
    (comp_us *. 4.0 < interp_us)

(* ------------------------------------------------------------------ *)
(* Hostile input: the parser is total (satellite 1)                    *)
(* ------------------------------------------------------------------ *)

let test_parse_huge_int_literal () =
  let text = "x < 99999999999999999999999999999999999999" in
  (match Parse.expr_of_string text with
  | _ -> Alcotest.fail "overflowing literal must not parse"
  | exception Parse.Parse_error _ -> ()
  | exception e -> Alcotest.failf "escaped as %s" (Printexc.to_string e));
  match Parse.expr_of_string_res text with
  | Error { Parse.message; _ } ->
      Alcotest.(check bool) "diagnostic names the range" true
        (contains message "range")
  | Ok _ -> Alcotest.fail "res variant must report the error"

let test_parse_deep_nesting_bounded () =
  let bomb = String.concat "" (List.init 400 (fun _ -> "!(")) ^ "true"
             ^ String.concat "" (List.init 400 (fun _ -> ")")) in
  (match Parse.expr_of_string_res bomb with
  | Error { Parse.message; _ } ->
      Alcotest.(check bool) "diagnostic names nesting" true
        (contains message "nesting")
  | Ok _ -> Alcotest.fail "400-deep nesting must be rejected");
  let lic_bomb =
    String.concat "" (List.init 400 (fun _ -> "(")) ^ "\"a\""
    ^ String.concat "" (List.init 400 (fun _ -> ")"))
  in
  match Parse.licensees_of_string_res lic_bomb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "400-deep licensee nesting must be rejected"

let test_parse_shallow_nesting_still_works () =
  let ok = String.concat "" (List.init 100 (fun _ -> "!(")) ^ "true"
           ^ String.concat "" (List.init 100 (fun _ -> ")")) in
  match Parse.expr_of_string_res ok with
  | Ok e -> Alcotest.(check bool) "evaluates" true (Eval.eval_expr ~attrs:[] e)
  | Error d -> Alcotest.failf "100-deep rejected at line %d: %s" d.Parse.line d.Parse.message

let test_parse_long_chains_iterative () =
  (* Right-recursive descent would blow the stack here; the chain
     collector must stay iterative. *)
  let n = 20_000 in
  let chain = String.concat " && " (List.init n (fun _ -> "true")) in
  (match Parse.expr_of_string_res chain with
  | Ok e -> Alcotest.(check bool) "all-true chain" true (Eval.eval_expr ~attrs:[] e)
  | Error d -> Alcotest.failf "chain rejected: line %d" d.Parse.line);
  let lic_chain = String.concat " || " (List.init n (fun _ -> "\"p\"")) in
  match Parse.licensees_of_string_res lic_chain with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "licensee chain rejected: line %d" d.Parse.line

let test_parse_res_reports_line () =
  match
    Parse.assertions_of_string_res
      "keynote-version: 2\nauthorizer: \"P\"\nconditions: == -> \"x\";\n"
  with
  | Error { Parse.line = 3; _ } -> ()
  | Error { Parse.line; _ } -> Alcotest.failf "wrong line %d" line
  | Ok _ -> Alcotest.fail "malformed assertion accepted"

(* A credential carrying an assertion that names a level outside the
   module policy's ordering: the compiled path must deny with EACCES at
   dispatch, never crash the kernel. *)
let test_hostile_credential_denied_not_crash () =
  let world =
    World.create ~with_rpc:false
      ~policy:
        (Policy.Keynote
           {
             policy =
               [
                 Parse.assertion_of_string
                   "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
                    conditions: module == \"seclibc\" -> \"allow\";\n";
               ];
             levels = [| "deny"; "allow" |];
             min_level = "allow";
             attrs = [];
           })
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  (* The hostile clause only fires at call time, so establishment (which
     still interprets) succeeds and the compiled path is what meets it. *)
  let license =
    Keystore.sign ks
      (Parse.assertion_of_string
         "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\"\n\
          conditions: phase == \"call\" -> \"sudo\"; true -> \"allow\";\n")
  in
  let credential = Credential.make ~principal:"alice" ~assertions:[ license ] () in
  let outcome = ref `Unset in
  ignore
    (M.spawn world.World.machine ~name:"hostile" (fun p ->
         Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
           ~version:Smod_libc.Seclibc.version ~credential (fun conn ->
             match Stub.call conn ~func:"test_incr" [| 1 |] with
             | v -> outcome := `Allowed v
             | exception Errno.Error (Errno.EACCES, _) -> outcome := `Denied)));
  World.run world;
  Alcotest.(check bool) "EACCES, not a crash" true (!outcome = `Denied)

(* ------------------------------------------------------------------ *)
(* Dispatch integration: compiled programs on the call paths           *)
(* ------------------------------------------------------------------ *)

let client_keynote_policy ?(volatile = false) () =
  let conds =
    if volatile then "module == \"seclibc\" && calls_so_far < 3 -> \"allow\";"
    else "module == \"seclibc\" -> \"allow\";"
  in
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            (Printf.sprintf
               "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
                conditions: %s\n"
               conds);
        ];
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [];
    }

let test_compiled_dispatch_end_to_end () =
  let world =
    World.create ~pool:Smodd.default_config ~with_rpc:false
      ~policy:(client_keynote_policy ()) ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Alcotest.(check bool) "toggle visible" true (Smod.policy_compile_enabled smod);
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"compiled-client" (fun _p conn ->
      for i = 1 to 5 do
        results := Smod_libc.Seclibc.Client.test_incr conn i :: !results
      done);
  World.run world;
  Alcotest.(check (list int)) "all calls answered" [ 6; 5; 4; 3; 2 ] !results;
  let entry = world.World.libc_entry in
  Alcotest.(check int) "one program cached registry-side" 1
    (Hashtbl.length entry.Registry.compiled_cache);
  Alcotest.(check int) "one compile miss" 1 entry.Registry.compile_misses;
  match Smod.policy_compile_status smod with
  | [ cs ] ->
      Alcotest.(check string) "module name" "seclibc" cs.Smod.cs_module;
      Alcotest.(check int) "cached" 1 cs.Smod.cs_cached;
      (match cs.Smod.cs_stats with
      | Some stats ->
          Alcotest.(check int) "one program" 1 stats.Policy.programs;
          Alcotest.(check bool) "has opcodes" true (stats.Policy.opcodes > 0)
      | None -> Alcotest.fail "no stats for a cached program")
  | l -> Alcotest.failf "expected one status row, got %d" (List.length l)

(* The batch path evaluates volatile compiled programs per slot with the
   same verdicts the interpreter produces: 3 allowed, then denials as
   calls_so_far crosses the threshold. *)
let batch_statuses ?(fuse = false) ~compile () =
  let world =
    World.create ~with_rpc:false ~policy:(client_keynote_policy ~volatile:true ()) ()
  in
  Smod.set_policy_compile world.World.smod compile;
  Smod.set_policy_fuse world.World.smod fuse;
  let results = ref [] in
  World.spawn_seclibc_client world ~name:"batch-client" (fun _p conn ->
      results := Stub.call_batch conn ~func:"test_incr" (List.init 5 (fun i -> [| i |])));
  World.run world;
  List.map (function Ok _ -> `Ok | Error (e, _) -> `Err e) !results

let test_batch_volatile_compiled_per_slot () =
  let compiled = batch_statuses ~compile:true () in
  let interpreted = batch_statuses ~compile:false () in
  Alcotest.(check int) "5 slots" 5 (List.length compiled);
  Alcotest.(check bool) "same verdict sequence as interpreted" true
    (compiled = interpreted);
  List.iteri
    (fun i s ->
      if i < 3 then
        Alcotest.(check bool) (Printf.sprintf "slot %d allowed" i) true (s = `Ok)
      else
        Alcotest.(check bool) (Printf.sprintf "slot %d denied" i) true (s = `Err Errno.EACCES))
    compiled

(* The fused batch path: same stateful per-slot verdicts (quota opcodes
   stay per slot even when the keynote prefix is hoisted). *)
let test_batch_volatile_fused_per_slot () =
  let fused = batch_statuses ~compile:true ~fuse:true () in
  let interpreted = batch_statuses ~compile:false () in
  Alcotest.(check int) "5 slots" 5 (List.length fused);
  Alcotest.(check bool) "same verdict sequence as interpreted" true
    (fused = interpreted);
  List.iteri
    (fun i s ->
      if i < 3 then
        Alcotest.(check bool) (Printf.sprintf "slot %d allowed" i) true (s = `Ok)
      else
        Alcotest.(check bool) (Printf.sprintf "slot %d denied" i) true
          (s = `Err Errno.EACCES))
    fused

(* One program slot per session across transports.  The first call
   probes once and compiles; each later switch between msgq and the ring
   re-prepares the slot's program without a probe.  So a msgq call, a
   batch, a msgq call and a batch compile once, never hit the registry,
   and prepare one fused batch per switch — none with fusion off. *)
let test_program_slot_across_transports () =
  List.iter
    (fun (fuse, prepares) ->
      let world = World.create ~with_rpc:false ~policy:(client_keynote_policy ()) () in
      let smod = world.World.smod in
      Smod.set_policy_compile smod true;
      Smod.set_policy_fuse smod fuse;
      let counters =
        [
          "secmodule.policy_compile_misses";
          "secmodule.policy_compile_hits";
          "keynote.fused_batches";
        ]
      in
      let read () =
        List.map (fun n -> Option.value ~default:0 (Smod_metrics.counter_value n)) counters
      in
      let before = read () in
      World.spawn_seclibc_client world ~name:"mixed-transports" (fun _p conn ->
          let batch () =
            List.iter
              (function
                | Ok _ -> () | Error _ -> Alcotest.fail "batch slot refused")
              (Stub.call_batch conn ~func:"test_incr" (List.init 4 (fun i -> [| i |])))
          in
          ignore (Stub.call conn ~func:"test_incr" [| 1 |]);
          batch ();
          ignore (Stub.call conn ~func:"test_incr" [| 2 |]);
          batch ());
      World.run world;
      Alcotest.(check (list int))
        (Printf.sprintf "fuse %b: misses, hits, fused batches" fuse)
        [ 1; 0; prepares ]
        (List.map2 ( - ) (read ()) before))
    [ (true, 4); (false, 0) ]

(* Origin predicates at dispatch: the kernel resolves the caller's
   transport, so the same session is admitted over msgq and refused over
   the ring batch path — and the client has no attribute to forge. *)
let origin_world conds =
  World.create ~with_rpc:false
    ~policy:
      (Policy.Keynote
         {
           policy =
             [
               Parse.assertion_of_string
                 (Printf.sprintf
                    "keynote-version: 2\nauthorizer: \"POLICY\"\n\
                     licensees: \"client\"\nconditions: %s\n"
                    conds);
             ];
           levels = [| "deny"; "allow" |];
           min_level = "allow";
           attrs = [];
         })
    ()

let test_origin_transport_gates_paths () =
  let world =
    origin_world
      "phase == \"session\" -> \"allow\"; origin_transport == \"msgq\" && module \
       == \"seclibc\" -> \"allow\";"
  in
  Smod.set_policy_compile world.World.smod true;
  Smod.set_policy_fuse world.World.smod true;
  let scalar = ref `Unset and batch = ref [] in
  World.spawn_seclibc_client world ~name:"transport-client" (fun _p conn ->
      (scalar :=
         match Stub.call conn ~func:"test_incr" [| 1 |] with
         | v -> `Allowed v
         | exception Errno.Error (Errno.EACCES, _) -> `Denied);
      batch :=
        List.map
          (function Ok _ -> `Ok | Error (e, _) -> `Err e)
          (Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |] ]));
  World.run world;
  Alcotest.(check bool) "msgq call admitted" true (!scalar = `Allowed 2);
  Alcotest.(check int) "2 ring slots" 2 (List.length !batch);
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "ring slot %d denied by transport" i)
        true
        (s = `Err Errno.EACCES))
    !batch

let test_origin_module_ring_admits () =
  let world =
    origin_world "origin_module == \"user\" && origin_ring >= 3 -> \"allow\";"
  in
  Smod.set_policy_compile world.World.smod true;
  Smod.set_policy_fuse world.World.smod true;
  let scalar = ref `Unset and batch = ref [] in
  World.spawn_seclibc_client world ~name:"user-ring3" (fun _p conn ->
      (scalar :=
         match Stub.call conn ~func:"test_incr" [| 1 |] with
         | v -> `Allowed v
         | exception Errno.Error (Errno.EACCES, _) -> `Denied);
      batch :=
        List.map
          (function Ok v -> `Ok v | Error (e, _) -> `Err e)
          (Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |] ]));
  World.run world;
  Alcotest.(check bool) "scalar admitted" true (!scalar = `Allowed 2);
  Alcotest.(check bool) "batch admitted" true (!batch = [ `Ok 2; `Ok 3 ]);
  (* The fused plan actually carries origin opcodes. *)
  match Smod.policy_compile_status world.World.smod with
  | [ cs ] -> (
      match cs.Smod.cs_fusion with
      | Some fs ->
          Alcotest.(check bool) "origin fops present" true (fs.Fuse.origin_fops > 0);
          Alcotest.(check bool) "plan nonempty" true (fs.Fuse.total_fops > 0)
      | None -> Alcotest.fail "fused policy reports no fusion stats")
  | l -> Alcotest.failf "expected one status row, got %d" (List.length l)

(* Satellite b at dispatch: a policy clause naming an origin module the
   registry has never seen compiles to a deny-all stub — EACCES on every
   call, never an allow, never a crash.  Establishment still interprets
   (origin_module resolves to "user" there, so the hostile clause simply
   never fires). *)
(* Compiling checks every [origin_module] literal against the registered
   module set, so no program compiled before a registration may outlive
   it.  Before [late] registers, the compiled engine denies (an unknown
   name fails closed); a new session after it registers is admitted, as
   the interpreter admits both. *)
let test_registration_drops_programs () =
  List.iter
    (fun (compile, expected) ->
      let world =
        origin_world "origin_module == \"user\" || origin_module == \"late\" -> \"allow\";"
      in
      let smod = world.World.smod in
      Smod.set_policy_compile smod compile;
      let session name =
        let outcome = ref "unset" in
        World.spawn_seclibc_client world ~name (fun _p conn ->
            outcome :=
              match Stub.call conn ~func:"test_incr" [| 1 |] with
              | v -> Printf.sprintf "returned %d" v
              | exception Errno.Error (Errno.EACCES, _) -> "EACCES");
        World.run world;
        !outcome
      in
      let before = session "before" in
      let b = Smof.Builder.create ~name:"late" ~version:1 in
      ignore (Smof.Builder.add_native_function b ~name:"f" ~native:"f" ~size_hint:16 ());
      ignore (Smod.register smod ~image:(Smof.Builder.finish b) ());
      let after = session "after" in
      Alcotest.(check (pair string string))
        (Printf.sprintf "compile %b: before and after registration" compile)
        expected (before, after))
    [ (false, ("returned 2", "returned 2")); (true, ("EACCES", "returned 2")) ]

(* A fused plan owns the segments it lowers, so the programs an in-place
   policy revision drops take their segments with them.  One session with
   fusion on sees 1,000 revisions of a four-assertion policy, each with
   its own clause literals and each followed by a call; after a full
   major collection the live heap may grow by less than 16 words per
   revision.  The first revisions warm up the world's bounded tables
   (trace ring, metrics) before measuring. *)
let test_revisions_free_plans () =
  let policy rev =
    Policy.Keynote
      {
        policy =
          List.init 4 (fun tier ->
              Parse.assertion_of_string
                (Printf.sprintf
                   "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
                    conditions: module == \"seclibc\" && tier != \"t%d-%d\" -> \"allow\";\n"
                   tier rev));
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  let world = World.create ~with_rpc:false ~policy:(policy 0) () in
  Smod.set_policy_compile world.World.smod true;
  Smod.set_policy_fuse world.World.smod true;
  let warmup = 200 and revisions = 1_000 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let growth = ref None in
  World.spawn_seclibc_client world ~name:"reviser" (fun _p conn ->
      let revise rev =
        Registry.set_policy world.World.libc_entry (policy rev);
        ignore (Smod_libc.Seclibc.Client.test_incr conn rev)
      in
      for rev = 1 to warmup do
        revise rev
      done;
      let before = live_words () in
      for rev = warmup + 1 to warmup + revisions do
        revise rev
      done;
      growth := Some (live_words () - before));
  World.run world;
  match !growth with
  | None -> Alcotest.fail "client did not finish"
  | Some words ->
      Alcotest.(check bool)
        (Printf.sprintf "%d live words after %d revisions" words revisions)
        true
        (words < 16 * revisions)

let test_unknown_origin_module_fails_closed_at_dispatch () =
  let world =
    origin_world
      "phase == \"session\" -> \"allow\"; origin_module == \"ghost\" -> \"allow\";"
  in
  Smod.set_policy_compile world.World.smod true;
  Smod.set_policy_fuse world.World.smod true;
  let outcome = ref `Unset in
  World.spawn_seclibc_client world ~name:"ghost-chaser" (fun _p conn ->
      outcome :=
        match Stub.call conn ~func:"test_incr" [| 1 |] with
        | v -> `Allowed v
        | exception Errno.Error (Errno.EACCES, _) -> `Denied);
  World.run world;
  Alcotest.(check bool) "EACCES, not a crash" true (!outcome = `Denied);
  match Smod.policy_compile_status world.World.smod with
  | [ cs ] -> (
      match cs.Smod.cs_stats with
      | Some stats -> (
          match stats.Policy.denied with
          | Some r ->
              Alcotest.(check bool) "stub reason names the module" true
                (contains r "ghost")
          | None -> Alcotest.fail "expected a deny-all stub")
      | None -> Alcotest.fail "no stats for the cached stub")
  | l -> Alcotest.failf "expected one status row, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Invalidation: rotation evicts everything in the same step           *)
(* ------------------------------------------------------------------ *)

let test_rotation_evicts_same_step () =
  let world =
    World.create ~pool:Smodd.default_config ~with_rpc:false
      ~policy:(client_keynote_policy ()) ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  World.spawn_seclibc_client world ~name:"warm" (fun _p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]));
  World.run world;
  let entry = world.World.libc_entry in
  let pool = Option.get world.World.pool in
  Alcotest.(check int) "program cached" 1 (Hashtbl.length entry.Registry.compiled_cache);
  let st = Smodd.status pool in
  Alcotest.(check bool) "decision cached" true (st.Smodd.st_cache_size > 0);
  (* The rotation itself: hooks fire synchronously inside add_principal,
     so by the next statement every layer is already empty. *)
  Keystore.add_principal (Smod.keystore smod) ~name:"rotated-in" ~secret:"s";
  Alcotest.(check int) "registry programs evicted in the same step" 0
    (Hashtbl.length entry.Registry.compiled_cache);
  Alcotest.(check bool) "invalidation counted" true (entry.Registry.compile_invalidations >= 1);
  let st = Smodd.status pool in
  Alcotest.(check int) "pool decisions evicted in the same step" 0 st.Smodd.st_cache_size;
  (* The world keeps working: the next session recompiles. *)
  let misses0 = world.World.libc_entry.Registry.compile_misses in
  World.spawn_seclibc_client world ~name:"after-rotation" (fun _p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 2 |]));
  World.run world;
  Alcotest.(check int) "recompiled once" (misses0 + 1) entry.Registry.compile_misses

(* Satellite 2's exact scenario: the keystore rotates between
   sys_smod_start_session and the session's first sys_smod_call_batch.
   The program compiled for an earlier session of the same credential
   must be evicted in the same step as the rotation, and the batch must
   re-verify under the new generation — denying every slot, since the
   license was signed under the old key. *)
let test_rotation_between_session_and_first_batch () =
  let world =
    World.create ~pool:Smodd.default_config ~with_rpc:false
      ~policy:
        (Policy.Keynote
           {
             policy =
               [
                 Parse.assertion_of_string
                   "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
                    conditions: module == \"seclibc\" -> \"allow\";\n";
               ];
             levels = [| "deny"; "allow" |];
             min_level = "allow";
             attrs = [];
           })
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk1";
  let license = signed_license ks () in
  let credential = Credential.make ~principal:"alice" ~assertions:[ license ] () in
  let entry = world.World.libc_entry in
  let pool = Option.get world.World.pool in
  let spawn name body =
    ignore
      (M.spawn world.World.machine ~name (fun p ->
           Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version ~credential body))
  in
  (* Warm: an earlier session of the same credential leaves a compiled
     program in both caches. *)
  spawn "warm" (fun conn -> ignore (Stub.call conn ~func:"test_incr" [| 1 |]));
  World.run world;
  Alcotest.(check int) "program cached before rotation" 1
    (Hashtbl.length entry.Registry.compiled_cache);
  let same_step_ok = ref false in
  let statuses = ref [] in
  spawn "victim" (fun conn ->
      (* Established under the old generation; rotate before the first
         batched call of this session. *)
      Keystore.add_principal ks ~name:"vendor" ~secret:"vk2";
      let st = Smodd.status pool in
      same_step_ok :=
        Hashtbl.length entry.Registry.compiled_cache = 0 && st.Smodd.st_cache_size = 0;
      let rs = Stub.call_batch conn ~func:"test_incr" (List.init 4 (fun i -> [| i |])) in
      statuses := List.map (function Ok _ -> `Ok | Error (e, _) -> `Err e) rs);
  World.run world;
  Alcotest.(check bool) "all caches empty in the rotation step" true !same_step_ok;
  Alcotest.(check int) "4 slots" 4 (List.length !statuses);
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d re-verified and denied" i)
        true
        (s = `Err Errno.EACCES))
    !statuses

(* The fused analogue of the between-establishment-and-first-batch race:
   a snapshot armed for batch 1 must not survive a keystore rotation into
   batch 2.  The rotation hook clears the session's fused memo alongside
   the compiled one; the re-armed context re-verifies the chain under the
   new generation and denies every slot. *)
let test_fused_rotation_between_batches () =
  let world =
    World.create ~with_rpc:false
      ~policy:
        (Policy.Keynote
           {
             policy =
               [
                 Parse.assertion_of_string
                   "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
                    conditions: module == \"seclibc\" -> \"allow\";\n";
               ];
             levels = [| "deny"; "allow" |];
             min_level = "allow";
             attrs = [];
           })
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk1";
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let before = ref [] and after = ref [] in
  ignore
    (M.spawn world.World.machine ~name:"rotated-mid-stream" (fun p ->
         Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
           ~version:Smod_libc.Seclibc.version ~credential (fun conn ->
             let classify rs =
               List.map (function Ok _ -> `Ok | Error (e, _) -> `Err e) rs
             in
             before :=
               classify
                 (Stub.call_batch conn ~func:"test_incr" (List.init 3 (fun i -> [| i |])));
             Keystore.add_principal ks ~name:"vendor" ~secret:"vk2";
             after :=
               classify
                 (Stub.call_batch conn ~func:"test_incr" (List.init 3 (fun i -> [| i |]))))));
  World.run world;
  Alcotest.(check bool) "batch before rotation fully admitted" true
    (!before = [ `Ok; `Ok; `Ok ]);
  Alcotest.(check bool) "batch after rotation fully denied" true
    (!after = [ `Err Errno.EACCES; `Err Errno.EACCES; `Err Errno.EACCES ])

(* The vectorized admission path end to end: a mixed-function ring batch
   under a function-discriminating policy must produce the exact verdict
   sequence the slot-major fused path produces, and the keynote vector
   counters must prove the batch actually went batch-major (at least two
   distinct funcIDs, fused, eligible — nothing to decline on). *)
let mixed_batch_statuses ~vectorize () =
  let world =
    origin_world
      "phase == \"session\" -> \"allow\"; function != \"abs\" && module == \
       \"seclibc\" -> \"allow\";"
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod true;
  Smod.set_policy_vectorize smod vectorize;
  let statuses = ref [] in
  World.spawn_seclibc_client world ~name:"mixed-batch-client" (fun _p conn ->
      ignore (Stub.arm_ring conn);
      let id f = Option.get (Stub.func_id conn f) in
      let rs =
        Stub.call_batch_funcs conn
          [
            (id "test_incr", [| 1 |]);
            (id "abs", [| 7 |]);
            (id "getpid", [||]);
            (id "test_incr", [| 5 |]);
          ]
      in
      statuses := List.map (function Ok v -> `Ok v | Error (e, _) -> `Err e) rs);
  World.run world;
  !statuses

let test_vectorized_dispatch_end_to_end () =
  let counter name =
    Option.value ~default:0 (Smod_metrics.counter_value name)
  in
  let batches0 = counter "keynote.vector_batches" in
  let scalar = mixed_batch_statuses ~vectorize:false () in
  let batches1 = counter "keynote.vector_batches" in
  Alcotest.(check int) "scalar run spawns no vector batch" batches0 batches1;
  let vectorized = mixed_batch_statuses ~vectorize:true () in
  let batches2 = counter "keynote.vector_batches" in
  Alcotest.(check bool) "vector path actually ran" true (batches2 > batches1);
  Alcotest.(check bool) "lanes counted" true
    (counter "keynote.vector_lanes" >= 4);
  Alcotest.(check int) "4 slots" 4 (List.length vectorized);
  Alcotest.(check bool) "same verdicts as the slot-major fused path" true
    (vectorized = scalar);
  (match vectorized with
  | [ `Ok 2; `Err e; `Ok _pid; `Ok 6 ] ->
      Alcotest.(check bool) "abs denied with EACCES" true (e = Errno.EACCES)
  | _ -> Alcotest.fail "unexpected verdict shape for the mixed batch")

(* Satellite: establishment-phase clauses under the attach transport
   crossing a rotation.  A policy that admits sessions via an
   origin_transport == "attach" clause (and calls via the ring clause)
   must re-verify the credential chain when the keystore rotates: the
   session established before the rotation keeps its armed ring batches
   denied, and a second session's establishment — same attach clause,
   same credential — is refused outright because the vendor signature no
   longer verifies under the new generation. *)
let test_attach_clause_across_rotation () =
  let world =
    World.create ~with_rpc:false
      ~policy:
        (Policy.Keynote
           {
             policy =
               [
                 Parse.assertion_of_string
                   "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"vendor\"\n\
                    conditions: origin_transport == \"attach\" -> \"allow\"; \
                    origin_transport == \"ring\" -> \"allow\"; origin_transport \
                    == \"msgq\" -> \"allow\";\n";
               ];
             levels = [| "deny"; "allow" |];
             min_level = "allow";
             attrs = [];
           })
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk1";
  let credential =
    Credential.make ~principal:"alice" ~assertions:[ signed_license ks () ] ()
  in
  let spawn name body =
    ignore
      (M.spawn world.World.machine ~name (fun p ->
           Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version ~credential body))
  in
  let before = ref [] and after = ref [] and second = ref `Unset in
  spawn "attach-admitted" (fun conn ->
      let classify rs =
        List.map (function Ok _ -> `Ok | Error (e, _) -> `Err e) rs
      in
      before :=
        classify
          (Stub.call_batch conn ~func:"test_incr" (List.init 2 (fun i -> [| i |])));
      Keystore.add_principal ks ~name:"vendor" ~secret:"vk2";
      after :=
        classify
          (Stub.call_batch conn ~func:"test_incr" (List.init 2 (fun i -> [| i |]))));
  World.run world;
  Alcotest.(check bool) "attach clause admitted the session, ring clause the batch"
    true
    (!before = [ `Ok; `Ok ]);
  Alcotest.(check bool) "armed batches denied after rotation" true
    (!after = [ `Err Errno.EACCES; `Err Errno.EACCES ]);
  (* The second establishment re-runs the attach-phase check under the
     new generation: the same signed license no longer verifies. *)
  ignore
    (M.spawn world.World.machine ~name:"attach-refused" (fun p ->
         match
           Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version ~credential (fun _conn ->
               second := `Admitted)
         with
         | () -> ()
         | exception Errno.Error (Errno.EACCES, _) -> second := `Denied));
  World.run world;
  Alcotest.(check bool) "second establishment denied under new generation" true
    (!second = `Denied)

(* set_policy on a live entry must drop its programs too. *)
let test_set_policy_evicts () =
  let world =
    World.create ~with_rpc:false ~policy:(client_keynote_policy ()) ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  World.spawn_seclibc_client world ~name:"warm" (fun _p conn ->
      ignore (Stub.call conn ~func:"test_incr" [| 1 |]));
  World.run world;
  let entry = world.World.libc_entry in
  Alcotest.(check int) "cached" 1 (Hashtbl.length entry.Registry.compiled_cache);
  let rev0 = entry.Registry.policy_rev in
  Registry.set_policy entry Policy.Always_allow;
  Alcotest.(check int) "evicted" 0 (Hashtbl.length entry.Registry.compiled_cache);
  Alcotest.(check int) "revision bumped" (rev0 + 1) entry.Registry.policy_rev

(* A program carries a fused plan only if fusion was on when it
   compiled.  Turning fusion on later must reach the session that
   compiled the program and a new session with the same credential:
   each then arms exactly one fused batch for its next call. *)
let test_late_fusion_takes_effect () =
  let world = World.create ~with_rpc:false ~policy:(client_keynote_policy ()) () in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  let armed call =
    let batches () =
      Option.value ~default:0 (Smod_metrics.counter_value "keynote.fused_batches")
    in
    let before = batches () in
    call ();
    batches () - before
  in
  let same = ref (-1) and fresh = ref (-1) in
  World.spawn_seclibc_client world ~name:"compiled-unfused" (fun _p conn ->
      ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
      Smod.set_policy_fuse smod true;
      same := armed (fun () -> ignore (Smod_libc.Seclibc.Client.test_incr conn 2)));
  World.run world;
  World.spawn_seclibc_client world ~name:"fresh-session" (fun _p conn ->
      fresh := armed (fun () -> ignore (Smod_libc.Seclibc.Client.test_incr conn 3)));
  World.run world;
  Alcotest.(check int) "same session runs fused" 1 !same;
  Alcotest.(check int) "new session runs fused" 1 !fresh

(* ------------------------------------------------------------------ *)
(* Fail closed on compliance levels outside the policy's ordering      *)
(* ------------------------------------------------------------------ *)

(* A vendor-signed license naming a level ("sudo") the policy does not
   order.  The interpreter meets it only when the clause's guard holds,
   so [phase] picks where: at establishment, which always interprets,
   or on every call.  Each scenario answers EACCES instead of stopping
   the simulation, and the same world then serves a well-formed client
   over the same transport. *)
let unknown_level_outcomes ~phase ~compile ~transport =
  let world =
    World.create ~with_rpc:false
      ~policy:(policy_trusting_vendor ~conds:"module == \"seclibc\" -> \"allow\";" ())
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod compile;
  if transport = `Poller then Smod.set_kernel_poller smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  let run_alice name conds =
    let outcome = ref `Unset in
    let credential =
      Credential.make ~principal:"alice" ~assertions:[ signed_license ks ~conds () ] ()
    in
    ignore
      (M.spawn world.World.machine ~name (fun p ->
           match
             Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
               ~version:Smod_libc.Seclibc.version ~credential (fun conn ->
                 outcome :=
                   match transport with
                   | `Msgq -> `Allowed (Stub.call conn ~func:"test_incr" [| 1 |])
                   | `Batch | `Poller -> (
                       match Stub.call_batch conn ~func:"test_incr" [ [| 1 |] ] with
                       | [ Ok v ] -> `Allowed v
                       | [ Error (Errno.EACCES, _) ] -> `Denied
                       | _ -> `Other))
           with
           | () -> ()
           | exception Errno.Error (Errno.EACCES, _) -> outcome := `Denied));
    World.run world;
    !outcome
  in
  let hostile =
    run_alice "sudo" (Printf.sprintf "phase == %S -> \"sudo\"; true -> \"allow\";" phase)
  in
  (hostile, run_alice "well-formed" "true -> \"allow\";")

let test_unknown_level_denies_on_every_path () =
  List.iter
    (fun (label, phase, compile, transport) ->
      let hostile, well_formed = unknown_level_outcomes ~phase ~compile ~transport in
      Alcotest.(check bool) (label ^ ": EACCES") true (hostile = `Denied);
      Alcotest.(check bool) (label ^ ": next client served") true (well_formed = `Allowed 2))
    [
      ("msgq, interpreted", "call", false, `Msgq);
      ("batch trap, interpreted", "call", false, `Batch);
      ("poller, interpreted", "call", false, `Poller);
      ("establishment, compiled", "session", true, `Msgq);
      ("establishment, interpreted", "session", false, `Msgq);
    ]

(* A [min_level] that names no level ("alow" for "allow") is unreachable:
   every engine denies instead of reading it as index 0.  The policy's
   only clause never matches, so every query ends at "deny". *)
let test_unknown_min_level_fails_closed () =
  let policy =
    Policy.Keynote
      {
        policy =
          [
            Parse.assertion_of_string
              "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
               conditions: module == \"nowhere\" -> \"allow\";\n";
          ];
        levels = [| "deny"; "allow" |];
        min_level = "alow";
        attrs = [];
      }
  in
  let clock = mk_clock () in
  let credential = Credential.make ~principal:"client" () in
  let origin = Fuse.no_origin in
  let attrs = ("function", "test_incr") :: origin_pairs origin in
  let denied engine = function
    | Ok () -> Alcotest.failf "%s admitted below an unreachable level" engine
    | Error (_ : Policy.denial) -> ()
  in
  denied "check"
    (Policy.check ~clock ~now_us:0.0 ~credential ~attrs policy (Policy.initial_state policy));
  let compile ~fuse =
    Policy.compile ~fuse ~clock ~keystore:(Keystore.create ()) ~credential policy
  in
  denied "check_compiled, whole program"
    (Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin ~attrs
       (whole ~clock (compile ~fuse:false))
       (Policy.initial_state policy));
  let prepared =
    Policy.prepare ~clock ~origin ~attrs:(origin_pairs origin) (compile ~fuse:true)
  in
  denied "check_compiled, prepared"
    (Policy.check_compiled ~clock ~now_us:0.0 ~credential ~origin ~attrs prepared
       (Policy.initial_state policy));
  let lane = { Vexec.l_origin = origin; l_attrs = attrs } in
  Array.iter (denied "check_vector")
    (Policy.check_vector ~clock ~now_us:0.0 ~credential ~lanes:[| lane; lane |]
       prepared (Policy.initial_state policy));
  (* One msgq dispatch per engine: establishment admits under the old
     policy, then the module's policy changes under the live session. *)
  List.iter
    (fun compile ->
      let world = World.create ~with_rpc:false ~policy:Policy.Always_allow () in
      Smod.set_policy_compile world.World.smod compile;
      let outcome = ref `Unset in
      World.spawn_seclibc_client world ~name:"misspelt" (fun _p conn ->
          Registry.set_policy world.World.libc_entry policy;
          outcome :=
            match Stub.call conn ~func:"test_incr" [| 1 |] with
            | v -> `Allowed v
            | exception Errno.Error (Errno.EACCES, _) -> `Denied);
      World.run world;
      Alcotest.(check bool)
        (Printf.sprintf "compile %b: EACCES" compile)
        true (!outcome = `Denied))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Admission parity: one decision on every transport and engine        *)
(* ------------------------------------------------------------------ *)

(* Twelve calls, every third one abs; batches carry four calls each. *)
let parity_calls = List.init 12 (fun i -> if i mod 3 = 1 then ("abs", -i) else ("test_incr", i))

let deny_abs_policy =
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
             conditions: function != \"abs\" -> \"allow\";\n";
        ];
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [];
    }

let parity_engines =
  [
    ("interpreted", (false, false, false));
    ("compiled", (true, false, false));
    ("compiled+fused", (true, true, false));
    ("compiled+fused+vectorized", (true, true, true));
  ]

let parity_transports = [ ("msgq", `Msgq); ("batch trap", `Batch); ("poller", `Poller) ]

(* One cell: the per-call verdicts (value or errno), and the deltas of
   secmodule.policy_checks and secmodule.calls_denied over the run.  The
   cell first checks that its transport served the calls: no ring slot
   on msgq, three batch traps, or twelve slots stamped by the poller. *)
let parity_cell ?pool ?(fast_path = false) ~policy (compile, fuse, vectorize) transport =
  let world = World.create ?pool ~with_rpc:false ~policy () in
  let smod = world.World.smod in
  Smod.set_policy_compile smod compile;
  Smod.set_policy_fuse smod fuse;
  Smod.set_policy_vectorize smod vectorize;
  Smod.set_call_fast_path smod fast_path;
  if transport = `Poller then Smod.set_kernel_poller smod true;
  let counter name = Option.value ~default:0 (Smod_metrics.counter_value name) in
  let checks0 = counter "secmodule.policy_checks"
  and denied0 = counter "secmodule.calls_denied"
  and submits0 = counter "ring.submits"
  and batches0 = counter "ring.batches"
  and polled0 = counter "poller.slots_stamped" in
  let verdicts = ref [] in
  World.spawn_seclibc_client world ~name:"parity" (fun _p conn ->
      let batch calls =
        Stub.call_batch_funcs conn
          (List.map (fun (f, arg) -> (Option.get (Stub.func_id conn f), [| arg |])) calls)
        |> List.map (Result.map_error fst)
      in
      verdicts :=
        match transport with
        | `Msgq ->
            List.map
              (fun (f, arg) ->
                match Stub.call conn ~func:f [| arg |] with
                | v -> Ok v
                | exception Errno.Error (e, _) -> Error e)
              parity_calls
        | `Batch | `Poller ->
            List.concat_map batch
              (List.map
                 (fun k -> List.filteri (fun i _ -> i / 4 = k) parity_calls)
                 [ 0; 1; 2 ]));
  World.run world;
  let served =
    match transport with
    | `Msgq -> counter "ring.submits" - submits0 = 0
    | `Batch -> counter "ring.batches" - batches0 = 3
    | `Poller -> counter "poller.slots_stamped" - polled0 = 12
  in
  if not served then Alcotest.fail "the cell's transport did not serve its calls";
  ( !verdicts,
    counter "secmodule.policy_checks" - checks0,
    counter "secmodule.calls_denied" - denied0 )

let for_each_cell f =
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (transport_name, transport) ->
          f (Printf.sprintf "%s over %s" engine_name transport_name) engine transport)
        parity_transports)
    parity_engines

let verdict_testable =
  let errno = Alcotest.of_pp (fun ppf e -> Format.pp_print_string ppf (Errno.to_string e)) in
  Alcotest.(list (result int errno))

(* A stateful, vector-eligible composite: quota 5 in front of a KeyNote
   arm that denies abs.  Every cell matches the interpreted msgq cell in
   verdicts, policy checks and denials. *)
let test_parity_stateful_composite () =
  let policy = Policy.All_of [ Policy.Call_quota 5; deny_abs_policy ] in
  let reference, checks, denials =
    parity_cell ~policy (List.assoc "interpreted" parity_engines) `Msgq
  in
  let denied = Error Errno.EACCES in
  Alcotest.check verdict_testable "reference verdicts"
    ([ Ok 1; denied; Ok 3; Ok 4; denied ] @ List.init 7 (fun _ -> denied))
    reference;
  Alcotest.(check int) "one check per call plus establishment" 13 checks;
  Alcotest.(check int) "reference denials" 9 denials;
  for_each_cell (fun cell engine transport ->
      let v, c, d = parity_cell ~policy engine transport in
      Alcotest.check verdict_testable (cell ^ ": verdicts") reference v;
      Alcotest.(check int) (cell ^ ": policy checks") checks c;
      Alcotest.(check int) (cell ^ ": denials") denials d)

(* A cacheable KeyNote policy behind smodd's decision cache: the cache
   and the per-batch memo change how often the policy runs, never what
   it answers. *)
let test_parity_decision_cache () =
  let pool = Smodd.default_config in
  let reference, _, _ =
    parity_cell ~pool ~policy:deny_abs_policy (List.assoc "interpreted" parity_engines) `Msgq
  in
  Alcotest.check verdict_testable "reference verdicts"
    (List.map
       (fun (f, arg) -> if f = "abs" then Error Errno.EACCES else Ok (arg + 1))
       parity_calls)
    reference;
  for_each_cell (fun cell engine transport ->
      let v, _, _ = parity_cell ~pool ~policy:deny_abs_policy engine transport in
      Alcotest.check verdict_testable (cell ^ ": verdicts") reference v)

(* The stateless fast path answers every call before any engine runs: the
   only policy check is the establishment's. *)
let test_parity_fast_path () =
  let expected =
    List.map (fun (f, arg) -> Ok (if f = "abs" then abs arg else arg + 1)) parity_calls
  in
  for_each_cell (fun cell engine transport ->
      let v, c, d = parity_cell ~fast_path:true ~policy:Policy.Always_allow engine transport in
      Alcotest.check verdict_testable (cell ^ ": verdicts") expected v;
      Alcotest.(check int) (cell ^ ": establishment check only") 1 c;
      Alcotest.(check int) (cell ^ ": no denials") 0 d)

(* A credential may read a per-call attribute its policy does not: here a
   vendor license good for two calls, under a policy that only names the
   module.  Every cell then decides per slot, as msgq does: neither the
   per-batch memo nor the vector pre-pass's function dedupe may reuse the
   first slot's verdict. *)
let two_call_license_verdicts (compile, fuse, vectorize) transport =
  let world =
    World.create ~with_rpc:false
      ~policy:(policy_trusting_vendor ~conds:"module == \"seclibc\" -> \"allow\";" ())
      ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod compile;
  Smod.set_policy_fuse smod fuse;
  Smod.set_policy_vectorize smod vectorize;
  if transport = `Poller then Smod.set_kernel_poller smod true;
  let ks = Smod.keystore smod in
  Keystore.add_principal ks ~name:"vendor" ~secret:"vk";
  let credential =
    Credential.make ~principal:"alice"
      ~assertions:[ signed_license ks ~conds:"calls_so_far < 2 -> \"allow\";" () ]
      ()
  in
  let verdicts = ref [] in
  ignore
    (M.spawn world.World.machine ~name:"two-call-license" (fun p ->
         Crt0.run_client smod p ~module_name:Smod_libc.Seclibc.module_name
           ~version:Smod_libc.Seclibc.version ~credential (fun conn ->
             verdicts :=
               match transport with
               | `Msgq ->
                   List.init 5 (fun i ->
                       match Stub.call conn ~func:"test_incr" [| i |] with
                       | v -> Ok v
                       | exception Errno.Error (e, _) -> Error e)
               | `Batch | `Poller ->
                   Stub.call_batch conn ~func:"test_incr" (List.init 5 (fun i -> [| i |]))
                   |> List.map (Result.map_error fst))));
  World.run world;
  !verdicts

let test_batch_volatile_credential_per_slot () =
  let denied = Error Errno.EACCES in
  for_each_cell (fun cell engine transport ->
      Alcotest.check verdict_testable cell
        [ Ok 1; Ok 2; denied; denied; denied ]
        (two_call_license_verdicts engine transport))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "compile"
    [
      ( "differential",
        [
          tc "E9 ladder" test_e9_ladder_differential;
          tc "E9 op slope" test_e9_op_slope;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_compiled_matches_interpreted; prop_program_reusable_across_attrs ] );
      ( "fused",
        [
          tc "policy fused parity over stateful sequence" test_policy_fused_parity;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_fused_matches_compiled_and_interpreted; prop_snapshot_reusable ] );
      ( "vectorized",
        [
          tc "divergent lane rides free" test_vexec_divergent_lane_rides_free;
          tc "vector eligibility" test_vector_eligibility;
          tc "policy vector parity over quota composite" test_policy_vector_parity;
          tc "vectorized dispatch end to end" test_vectorized_dispatch_end_to_end;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_vectorized_matches_all ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
              prop_vector_charge_matches_walk;
          ] );
      ( "origin",
        [
          tc "origin validation fails closed" test_origin_validation_fails_closed;
          tc "unknown origin denies at policy layer"
            test_origin_unknown_denies_at_policy_layer;
          tc "transport gates paths" test_origin_transport_gates_paths;
          tc "module and ring admit" test_origin_module_ring_admits;
          tc "unknown module fails closed at dispatch"
            test_unknown_origin_module_fails_closed_at_dispatch;
        ] );
      ( "policy",
        [
          tc "check parity over stateful sequence" test_policy_check_parity;
          tc "unknown level fails closed" test_unknown_level_fails_closed;
          tc "unverified chain fails closed" test_unverified_chain_fails_closed;
          tc "compiled cycles cheaper" test_compiled_cycles_cheaper;
        ] );
      ( "hostile input",
        [
          tc "huge int literal" test_parse_huge_int_literal;
          tc "deep nesting bounded" test_parse_deep_nesting_bounded;
          tc "shallow nesting works" test_parse_shallow_nesting_still_works;
          tc "long chains iterative" test_parse_long_chains_iterative;
          tc "res reports line" test_parse_res_reports_line;
          tc "hostile credential EACCES" test_hostile_credential_denied_not_crash;
        ] );
      ( "fail closed",
        [
          tc "unknown level denies on every path" test_unknown_level_denies_on_every_path;
          tc "unknown min_level fails closed" test_unknown_min_level_fails_closed;
        ] );
      ( "admission",
        [
          tc "stateful composite" test_parity_stateful_composite;
          tc "decision cache" test_parity_decision_cache;
          tc "fast path" test_parity_fast_path;
        ] );
      ( "dispatch",
        [
          tc "end to end with caches" test_compiled_dispatch_end_to_end;
          tc "batch volatile per slot" test_batch_volatile_compiled_per_slot;
          tc "batch volatile fused per slot" test_batch_volatile_fused_per_slot;
          tc "batch volatile credential per slot" test_batch_volatile_credential_per_slot;
          tc "program slot across transports" test_program_slot_across_transports;
        ] );
      ( "invalidation",
        [
          tc "rotation evicts same step" test_rotation_evicts_same_step;
          tc "rotation before first batch" test_rotation_between_session_and_first_batch;
          tc "fused snapshot dropped on rotation" test_fused_rotation_between_batches;
          tc "attach clause across rotation" test_attach_clause_across_rotation;
          tc "set_policy evicts" test_set_policy_evicts;
          tc "registration drops programs" test_registration_drops_programs;
          tc "revisions free fused plans" test_revisions_free_plans;
          tc "late fusion takes effect" test_late_fusion_takes_effect;
        ] );
    ]
