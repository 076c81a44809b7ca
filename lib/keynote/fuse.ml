(* Fused batch execution of compiled decision programs.

   [Compile.run] executes one full program per admission query.  Under a
   64-slot ring batch that is 64 complete interpreter passes even though
   every opcode that depends only on the credential chain, the module
   identity, and the call origin computes the same value in every slot.
   This module re-lowers a compiled program into *segments*, classifies
   each segment as batch-invariant or per-slot, runs the invariant part
   once per batch into a snapshot, and replays only the residue per slot.

   The re-lowering leans on a structural property of [Compile.compile]:
   because nested emissions (licensee principals, shared-principal merges)
   complete before the enclosing assertion emits its own opcodes, the flat
   program is a concatenation of contiguous, self-contained segments —
   assertion bodies ([Node_begin] … [Node_end]/[Node_end_const]),
   principal merges ([Push_level] … [Store_node]), and the final [Root] —
   whose jumps are segment-local and which communicate only through the
   value-node array.  [segment_bounds] checks that property instead of
   assuming it; a program that ever violates it degrades to one all-residue
   segment, which is just per-slot execution under another name. *)

type origin = { o_module : string; o_ring : int; o_transport : string }

let no_origin = { o_module = "user"; o_ring = 3; o_transport = "msgq" }

type ofield = OF_module | OF_ring | OF_transport

type fop =
  (* base opcodes, unchanged semantics (jumps segment-relative) *)
  | F_test of Compile.operand * Ast.cmp * Compile.operand
  | F_push_bool of bool
  | F_not
  | F_jfalse of int
  | F_jtrue of int
  | F_node_begin
  | F_clause of int
  | F_push_level of int
  | F_load_node of int
  | F_min2
  | F_max2
  | F_kof of int * int
  | F_node_end of int
  | F_node_end_const of int * int
  | F_store_node of int
  | F_root of int * int array
  (* superoperators: two base opcodes, one dispatch, one op charged *)
  | F_test_jf of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_jt of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_clause of Compile.operand * Ast.cmp * Compile.operand * int
  | F_load_max of int  (* top := max top nodes.(i) *)
  | F_const_max of int  (* top := max top c *)
  | F_const_min of int  (* top := min top c *)
  (* origin predicates: resolved from the kernel-held origin record, not
     from the (client-influencable in principle) attribute list *)
  | F_origin of ofield * Ast.cmp * Compile.operand
  | F_origin_jf of ofield * Ast.cmp * Compile.operand * int
  | F_origin_jt of ofield * Ast.cmp * Compile.operand * int
  | F_origin_clause of ofield * Ast.cmp * Compile.operand * int

let fop_mnemonic = function
  | F_test _ -> "test"
  | F_push_bool _ -> "push-bool"
  | F_not -> "not"
  | F_jfalse _ -> "jfalse"
  | F_jtrue _ -> "jtrue"
  | F_node_begin -> "node-begin"
  | F_clause _ -> "clause"
  | F_push_level _ -> "push-level"
  | F_load_node _ -> "load-node"
  | F_min2 -> "min"
  | F_max2 -> "max"
  | F_kof _ -> "k-of"
  | F_node_end _ -> "node-end"
  | F_node_end_const _ -> "node-end-const"
  | F_store_node _ -> "store-node"
  | F_root _ -> "root"
  | F_test_jf _ -> "test+jf"
  | F_test_jt _ -> "test+jt"
  | F_test_clause _ -> "test+clause"
  | F_load_max _ -> "load+max"
  | F_const_max _ -> "const+max"
  | F_const_min _ -> "const+min"
  | F_origin _ -> "origin"
  | F_origin_jf _ -> "origin+jf"
  | F_origin_jt _ -> "origin+jt"
  | F_origin_clause _ -> "origin+clause"

let is_superop = function
  | F_test_jf _ | F_test_jt _ | F_test_clause _ | F_load_max _ | F_const_max _
  | F_const_min _ | F_origin_jf _ | F_origin_jt _ | F_origin_clause _ ->
      true
  | _ -> false

let is_origin_op = function
  | F_origin _ | F_origin_jf _ | F_origin_jt _ | F_origin_clause _ -> true
  | _ -> false

type seg = { ops : fop array; invariant : bool }

type t = {
  f_segs : seg array;
  f_prefix : int array;  (* invariant segment indices, program order *)
  f_residue : int array;  (* per-slot segment indices + root, program order *)
  f_nnodes : int;
  f_levels : string array;
  f_max_seg : int;  (* longest segment, bounds the evaluation stack *)
}

(* ------------------------------------------------------------------ *)
(* Structural-sharing arena                                            *)
(* ------------------------------------------------------------------ *)

(* Registry-wide hash-consing of lowered segment arrays.  Two compiled
   programs that end in the same assertion suffix (the common case in a
   large registry grown from templates) lower to structurally equal
   segment arrays — same opcodes, same node indices, same local jump
   targets — so the arena stores one copy.  The arena is domain-local
   (bench workers plan concurrently; a shared table would need locking
   and would make per-task stats racy) and purely an interning cache:
   plans from different arenas are still semantically identical. *)

type arena = {
  tbl : (fop array, fop array) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

type arena_stats = {
  a_segments : int;  (* distinct segment arrays held *)
  a_hits : int;
  a_misses : int;
  a_bytes_saved : int;
}

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 256; hits = 0; misses = 0; bytes_saved = 0 })

(* Boxed-size estimate of one lowered opcode: constructor block + operand
   blocks, ~4 words.  Only used for the bytes-saved statistic. *)
let fop_bytes ops = 32 * Array.length ops

let intern ops =
  let a = Domain.DLS.get arena_key in
  match Hashtbl.find_opt a.tbl ops with
  | Some shared ->
      a.hits <- a.hits + 1;
      a.bytes_saved <- a.bytes_saved + fop_bytes ops;
      shared
  | None ->
      a.misses <- a.misses + 1;
      Hashtbl.replace a.tbl ops ops;
      ops

let arena_stats () =
  let a = Domain.DLS.get arena_key in
  {
    a_segments = Hashtbl.length a.tbl;
    a_hits = a.hits;
    a_misses = a.misses;
    a_bytes_saved = a.bytes_saved;
  }

let arena_reset () =
  let a = Domain.DLS.get arena_key in
  Hashtbl.reset a.tbl;
  a.hits <- 0;
  a.misses <- 0;
  a.bytes_saved <- 0

let arena_hit_rate_pct () =
  let a = Domain.DLS.get arena_key in
  let total = a.hits + a.misses in
  if total = 0 then None else Some (100.0 *. float_of_int a.hits /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Planning: segment, lower, fuse, classify                            *)
(* ------------------------------------------------------------------ *)

(* [Some bounds] iff the program splits into contiguous runs each closed
   by a node-writing terminator (or [Root]) with all jumps local. *)
let segment_bounds instrs =
  let n = Array.length instrs in
  let bounds = ref [] in
  let jumps = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match instrs.(i) with
    | Compile.Jfalse t | Compile.Jtrue t -> jumps := (i, t) :: !jumps
    | Compile.Node_end _ | Compile.Node_end_const _ | Compile.Store_node _
    | Compile.Root _ ->
        bounds := (!start, i) :: !bounds;
        start := i + 1
    | _ -> ()
  done;
  if !start <> n || !bounds = [] then None
  else begin
    let bounds = Array.of_list (List.rev !bounds) in
    (* Every jump must stay inside its own segment (strictly before the
       terminator) — that is what makes segments independently runnable. *)
    let local (pos, target) =
      Array.exists (fun (s, e) -> s <= pos && pos <= e && s <= target && target < e) bounds
    in
    if List.for_all local !jumps then Some bounds else None
  end

let origin_field_of_attr = function
  | "origin_module" -> Some OF_module
  | "origin_ring" -> Some OF_ring
  | "origin_transport" -> Some OF_transport
  | _ -> None

(* Mirror a comparison so the origin value can sit on the left. *)
let flip_cmp = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* Base lowering: one fop per instr, jumps rebased to the segment, origin
   tests against literals turned into origin opcodes.  Origin-vs-attribute
   comparisons stay [F_test] — the dispatcher appends the origin pairs to
   the attribute list, so they still resolve (to the same values). *)
let lower_instr ~start = function
  | Compile.Test (a, op, b) -> (
      let lower_one side op other =
        match side with
        | Compile.O_attr name -> (
            match origin_field_of_attr name with
            | Some f -> (
                match other with
                | Compile.O_str _ -> Some (F_origin (f, op, other))
                | Compile.O_attr o when origin_field_of_attr o = None ->
                    Some (F_origin (f, op, other))
                | Compile.O_attr _ -> None (* origin vs origin: keep F_test *))
            | None -> None)
        | Compile.O_str _ -> None
      in
      match lower_one a op b with
      | Some f -> f
      | None -> (
          match lower_one b (flip_cmp op) a with
          | Some f -> f
          | None -> F_test (a, op, b)))
  | Compile.Push_bool b -> F_push_bool b
  | Compile.Not_top -> F_not
  | Compile.Jfalse t -> F_jfalse (t - start)
  | Compile.Jtrue t -> F_jtrue (t - start)
  | Compile.Node_begin -> F_node_begin
  | Compile.Clause l -> F_clause l
  | Compile.Push_level v -> F_push_level v
  | Compile.Load_node i -> F_load_node i
  | Compile.Min2 -> F_min2
  | Compile.Max2 -> F_max2
  | Compile.Kof (k, n) -> F_kof (k, n)
  | Compile.Node_end i -> F_node_end i
  | Compile.Node_end_const (i, c) -> F_node_end_const (i, c)
  | Compile.Store_node i -> F_store_node i
  | Compile.Root (base, nodes) -> F_root (base, nodes)

let jump_target = function
  | F_jfalse t | F_jtrue t
  | F_test_jf (_, _, _, t)
  | F_test_jt (_, _, _, t)
  | F_origin_jf (_, _, _, t)
  | F_origin_jt (_, _, _, t) ->
      Some t
  | _ -> None

let remap_jump newpos = function
  | F_jfalse t -> F_jfalse newpos.(t)
  | F_jtrue t -> F_jtrue newpos.(t)
  | F_test_jf (a, c, b, t) -> F_test_jf (a, c, b, newpos.(t))
  | F_test_jt (a, c, b, t) -> F_test_jt (a, c, b, newpos.(t))
  | F_origin_jf (f, c, b, t) -> F_origin_jf (f, c, b, newpos.(t))
  | F_origin_jt (f, c, b, t) -> F_origin_jt (f, c, b, newpos.(t))
  | op -> op

(* Peephole superoperator fusion over one segment.  A pair [(i, i+1)] may
   fuse only when [i + 1] is not a jump target — otherwise the jump would
   land in the middle of the superoperator.  Jump targets survive fusion
   through an old-position -> new-position map (a target is never the
   second element of a fused pair, so its mapping is always exact). *)
let fuse_segment ops =
  let n = Array.length ops in
  let is_target = Array.make (n + 1) false in
  Array.iter
    (fun op -> match jump_target op with Some t -> is_target.(t) <- true | None -> ())
    ops;
  let out = ref [] in
  let newpos = Array.make (n + 1) 0 in
  let i = ref 0 in
  let m = ref 0 in
  while !i < n do
    newpos.(!i) <- !m;
    let next = if !i + 1 < n && not is_target.(!i + 1) then Some ops.(!i + 1) else None in
    let fused =
      match (ops.(!i), next) with
      | F_test (a, c, b), Some (F_jfalse t) -> Some (F_test_jf (a, c, b, t))
      | F_test (a, c, b), Some (F_jtrue t) -> Some (F_test_jt (a, c, b, t))
      | F_test (a, c, b), Some (F_clause l) -> Some (F_test_clause (a, c, b, l))
      | F_origin (f, c, b), Some (F_jfalse t) -> Some (F_origin_jf (f, c, b, t))
      | F_origin (f, c, b), Some (F_jtrue t) -> Some (F_origin_jt (f, c, b, t))
      | F_origin (f, c, b), Some (F_clause l) -> Some (F_origin_clause (f, c, b, l))
      | F_load_node k, Some F_max2 -> Some (F_load_max k)
      | F_push_level v, Some F_max2 -> Some (F_const_max v)
      | F_push_level v, Some F_min2 -> Some (F_const_min v)
      | _ -> None
    in
    (match fused with
    | Some f ->
        out := f :: !out;
        newpos.(!i + 1) <- !m;
        i := !i + 2
    | None ->
        out := ops.(!i) :: !out;
        incr i);
    incr m
  done;
  newpos.(n) <- !m;
  Array.map (remap_jump newpos) (Array.of_list (List.rev !out))

let reads_varying ~varying op =
  let attr_varying = function
    | Compile.O_attr a -> List.mem a varying
    | Compile.O_str _ -> false
  in
  match op with
  | F_test (a, _, b) | F_test_jf (a, _, b, _) | F_test_jt (a, _, b, _)
  | F_test_clause (a, _, b, _) ->
      attr_varying a || attr_varying b
  | F_origin (_, _, b) | F_origin_jf (_, _, b, _) | F_origin_jt (_, _, b, _)
  | F_origin_clause (_, _, b, _) ->
      attr_varying b
  | _ -> false

let node_loads op =
  match op with F_load_node k | F_load_max k -> Some k | _ -> None

let node_writes op =
  match op with
  | F_node_end i | F_node_end_const (i, _) | F_store_node i -> Some i
  | _ -> None

let plan program ~varying =
  let instrs = Compile.instrs program in
  let nnodes = Compile.node_count program in
  let levels = Compile.levels program in
  let lowered_of start stop =
    intern (fuse_segment (Array.init (stop - start + 1) (fun k -> lower_instr ~start instrs.(start + k))))
  in
  let segs, prefix, residue =
    match segment_bounds instrs with
    | None ->
        (* Shape violation (cannot happen for programs [Compile.compile]
           emits, but stay total): everything is residue — plain per-slot
           execution, still fused within the single segment. *)
        let all = lowered_of 0 (Array.length instrs - 1) in
        ([| { ops = all; invariant = false } |], [||], [| 0 |])
    | Some bounds ->
        let node_inv = Array.make (max nnodes 1) false in
        let segs =
          Array.map
            (fun (start, stop) ->
              let ops = lowered_of start stop in
              let is_root = match instrs.(stop) with Compile.Root _ -> true | _ -> false in
              let invariant =
                (not is_root)
                && Array.for_all
                     (fun op ->
                       (not (reads_varying ~varying op))
                       &&
                       match node_loads op with
                       | Some k -> node_inv.(k)
                       | None -> true)
                     ops
              in
              Array.iter
                (fun op ->
                  match node_writes op with
                  | Some i -> node_inv.(i) <- invariant
                  | None -> ())
                ops;
              { ops; invariant })
            bounds
        in
        let idx p = Array.to_list segs |> List.mapi (fun i s -> (i, s))
                    |> List.filter_map (fun (i, s) -> if p s then Some i else None)
                    |> Array.of_list in
        (segs, idx (fun s -> s.invariant), idx (fun s -> not s.invariant))
  in
  let max_seg = Array.fold_left (fun m s -> max m (Array.length s.ops)) 1 segs in
  { f_segs = segs; f_prefix = prefix; f_residue = residue; f_nnodes = nnodes;
    f_levels = levels; f_max_seg = max_seg }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = { s_nodes : int array; s_setup_ops : int }

let m_scope = Smod_metrics.scope "keynote"
let m_fused_batches = Smod_metrics.Scope.counter m_scope "fused_batches"
let m_fused_slots = Smod_metrics.Scope.counter m_scope "fused_slots"
let m_fused_ops = Smod_metrics.Scope.counter m_scope "fused_ops"

let origin_value origin = function
  | OF_module -> origin.o_module
  | OF_ring -> string_of_int origin.o_ring
  | OF_transport -> origin.o_transport

let holds op c = match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* One segment, local program counter and stack.  Returns the value left
   on the stack (only the [Root] segment leaves one). *)
let exec_seg ops ~nodes ~origin ~attrs ~stack ~ops_count =
  let n = Array.length ops in
  let sp = ref 0 in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    decr sp;
    stack.(!sp)
  in
  let operand_value = function
    | Compile.O_str s -> s
    | Compile.O_attr a -> (
        match List.assoc_opt a attrs with Some v -> v | None -> "")
  in
  let test a op b = holds op (Eval.compare_values (operand_value a) (operand_value b)) in
  let otest f op b =
    holds op (Eval.compare_values (origin_value origin f) (operand_value b))
  in
  let acc = ref 0 in
  let pc = ref 0 in
  while !pc < n do
    incr ops_count;
    match ops.(!pc) with
    | F_test (a, op, b) ->
        push (if test a op b then 1 else 0);
        incr pc
    | F_push_bool b ->
        push (if b then 1 else 0);
        incr pc
    | F_not ->
        stack.(!sp - 1) <- (if stack.(!sp - 1) = 0 then 1 else 0);
        incr pc
    | F_jfalse target ->
        if stack.(!sp - 1) = 0 then pc := target
        else begin
          ignore (pop ());
          incr pc
        end
    | F_jtrue target ->
        if stack.(!sp - 1) <> 0 then pc := target
        else begin
          ignore (pop ());
          incr pc
        end
    | F_node_begin ->
        acc := 0;
        incr pc
    | F_clause level ->
        if pop () <> 0 then acc := max !acc level;
        incr pc
    | F_push_level v ->
        push v;
        incr pc
    | F_load_node i ->
        push nodes.(i);
        incr pc
    | F_min2 ->
        let b = pop () in
        let a = pop () in
        push (min a b);
        incr pc
    | F_max2 ->
        let b = pop () in
        let a = pop () in
        push (max a b);
        incr pc
    | F_kof (k, count) ->
        let members = ref [] in
        for _ = 1 to count do
          members := pop () :: !members
        done;
        push (Compile.kth_largest k !members);
        incr pc
    | F_node_end i ->
        let lic = pop () in
        nodes.(i) <- min !acc lic;
        incr pc
    | F_node_end_const (i, lic) ->
        nodes.(i) <- min !acc lic;
        incr pc
    | F_store_node i ->
        nodes.(i) <- pop ();
        incr pc
    | F_root (base, roots) ->
        push (Array.fold_left (fun m i -> max m nodes.(i)) base roots);
        incr pc
    (* superoperators: exact composition of the two base opcodes *)
    | F_test_jf (a, op, b, target) ->
        if test a op b then incr pc
        else begin
          push 0;
          pc := target
        end
    | F_test_jt (a, op, b, target) ->
        if test a op b then begin
          push 1;
          pc := target
        end
        else incr pc
    | F_test_clause (a, op, b, level) ->
        if test a op b then acc := max !acc level;
        incr pc
    | F_load_max i ->
        stack.(!sp - 1) <- max stack.(!sp - 1) nodes.(i);
        incr pc
    | F_const_max c ->
        stack.(!sp - 1) <- max stack.(!sp - 1) c;
        incr pc
    | F_const_min c ->
        stack.(!sp - 1) <- min stack.(!sp - 1) c;
        incr pc
    | F_origin (f, op, b) ->
        push (if otest f op b then 1 else 0);
        incr pc
    | F_origin_jf (f, op, b, target) ->
        if otest f op b then incr pc
        else begin
          push 0;
          pc := target
        end
    | F_origin_jt (f, op, b, target) ->
        if otest f op b then begin
          push 1;
          pc := target
        end
        else incr pc
    | F_origin_clause (f, op, b, level) ->
        if otest f op b then acc := max !acc level;
        incr pc
  done;
  if !sp > 0 then Some stack.(!sp - 1) else None

let begin_batch t ~origin ~attrs =
  let nodes = Array.make (max t.f_nnodes 1) 0 in
  let stack = Array.make (t.f_max_seg + 1) 0 in
  let ops_count = ref 0 in
  Array.iter
    (fun si -> ignore (exec_seg t.f_segs.(si).ops ~nodes ~origin ~attrs ~stack ~ops_count))
    t.f_prefix;
  Smod_metrics.Counter.incr m_fused_batches;
  Smod_metrics.Counter.add m_fused_ops !ops_count;
  { s_nodes = nodes; s_setup_ops = !ops_count }

(* Per-slot residue replay.  Residue segments only ever write nodes that
   residue segments themselves define (a reader of a variant node is
   itself variant by construction), and each is rewritten before it is
   read within a slot — so the snapshot's node array is safely reused in
   place across slots, with the invariant entries never touched. *)
let run_slot t snapshot ~origin ~attrs =
  let nodes = snapshot.s_nodes in
  let stack = Array.make (t.f_max_seg + 1) 0 in
  let ops_count = ref 0 in
  let result = ref 0 in
  Array.iter
    (fun si ->
      match exec_seg t.f_segs.(si).ops ~nodes ~origin ~attrs ~stack ~ops_count with
      | Some v -> result := v
      | None -> ())
    t.f_residue;
  let index = max 0 (min (Array.length t.f_levels - 1) !result) in
  Smod_metrics.Counter.incr m_fused_slots;
  Smod_metrics.Counter.add m_fused_ops !ops_count;
  Compile.{ level = t.f_levels.(index); index; ops = !ops_count }

let run t ~origin ~attrs =
  let snapshot = begin_batch t ~origin ~attrs in
  let outcome = run_slot t snapshot ~origin ~attrs in
  (snapshot, outcome)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  segments : int;
  invariant_segments : int;
  total_fops : int;
  invariant_fops : int;
  superops : (string * int) list;
  origin_fops : int;
}

let stats t =
  let total = ref 0 and inv = ref 0 and orig = ref 0 in
  let inv_segs = ref 0 in
  let supers = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      if s.invariant then incr inv_segs;
      Array.iter
        (fun op ->
          incr total;
          if s.invariant then incr inv;
          if is_origin_op op then incr orig;
          if is_superop op then begin
            let m = fop_mnemonic op in
            Hashtbl.replace supers m (1 + Option.value ~default:0 (Hashtbl.find_opt supers m))
          end)
        s.ops)
    t.f_segs;
  let superops =
    Hashtbl.fold (fun m n acc -> (m, n) :: acc) supers []
    |> List.sort (fun (ma, na) (mb, nb) ->
           if na <> nb then compare nb na else compare ma mb)
  in
  {
    segments = Array.length t.f_segs;
    invariant_segments = !inv_segs;
    total_fops = !total;
    invariant_fops = !inv;
    superops;
    origin_fops = !orig;
  }

let prefix_fraction t =
  let s = stats t in
  if s.total_fops = 0 then 0.0
  else float_of_int s.invariant_fops /. float_of_int s.total_fops

(* Plan internals for the batch-major executor (Vexec): the vectorized
   walk re-interprets residue segments lane-major, so it needs the raw
   lowered form, not just [run_slot]. *)
let segments t = t.f_segs
let residue_segments t = t.f_residue
let levels t = t.f_levels
let node_count t = t.f_nnodes
let max_seg t = t.f_max_seg

let residue_reads t attrs =
  Array.exists
    (fun si -> Array.exists (reads_varying ~varying:attrs) t.f_segs.(si).ops)
    t.f_residue
