(* Fused batch execution of compiled decision programs.

   [Compile.run] executes one full program per admission query.  Under a
   64-slot ring batch that is 64 complete interpreter passes even though
   every opcode that depends only on the credential chain, the module
   identity, and the call origin computes the same value in every slot.
   This module splits a compiled program into *segments*, rewrites each
   within [Compile.instr] (origin opcodes, superoperators, segment-relative
   jumps), classifies each segment as batch-invariant or per-slot, runs
   the invariant part once per batch into a snapshot, and replays only the
   residue per slot — every segment on [Compile.exec_seg].

   The split leans on a structural property of [Compile.compile]:
   because nested emissions (licensee principals, shared-principal merges)
   complete before the enclosing assertion emits its own opcodes, the flat
   program is a concatenation of contiguous, self-contained segments —
   assertion bodies ([Node_begin] … [Node_end]/[Node_end_const]),
   principal merges ([Push_level] … [Store_node]), and the final [Root] —
   whose jumps are segment-local and which communicate only through the
   value-node array.  [segment_bounds] checks that property instead of
   assuming it; a program that ever violates it degrades to one all-residue
   segment, which is just per-slot execution under another name. *)

type origin = Compile.origin = { o_module : string; o_ring : int; o_transport : string }

let no_origin = Compile.no_origin

type seg = { ops : Compile.instr array; invariant : bool }

type t = {
  f_segs : seg array;
  f_prefix : int array;  (* invariant segment indices, program order *)
  f_residue : int array;  (* per-slot segment indices + root, program order *)
  f_nnodes : int;
  f_levels : string array;
  f_max_seg : int;  (* longest segment, bounds the evaluation stack *)
}

(* ------------------------------------------------------------------ *)
(* Planning: segment, rewrite, fuse, classify                          *)
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
  | "origin_module" -> Some Compile.OF_module
  | "origin_ring" -> Some Compile.OF_ring
  | "origin_transport" -> Some Compile.OF_transport
  | _ -> None

(* Mirror a comparison so the origin value can sit on the left. *)
let flip_cmp = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* Base rewrite: jumps rebased to the segment, origin tests against
   literals turned into origin opcodes.  Origin-vs-attribute comparisons
   stay [Test] — the dispatcher appends the origin pairs to the attribute
   list, so they still resolve (to the same values). *)
let lower_instr ~start = function
  | Compile.Test (a, op, b) -> (
      let lower_one side op other =
        match side with
        | Compile.O_attr name -> (
            match origin_field_of_attr name with
            | Some f -> (
                match other with
                | Compile.O_str _ -> Some (Compile.Origin_test (f, op, other))
                | Compile.O_attr o when origin_field_of_attr o = None ->
                    Some (Compile.Origin_test (f, op, other))
                | Compile.O_attr _ -> None (* origin vs origin: keep Test *))
            | None -> None)
        | Compile.O_str _ -> None
      in
      match lower_one a op b with
      | Some f -> f
      | None -> (
          match lower_one b (flip_cmp op) a with
          | Some f -> f
          | None -> Compile.Test (a, op, b)))
  | Compile.Jfalse t -> Compile.Jfalse (t - start)
  | Compile.Jtrue t -> Compile.Jtrue (t - start)
  | instr -> instr

let remap_jump newpos = function
  | Compile.Jfalse t -> Compile.Jfalse newpos.(t)
  | Compile.Jtrue t -> Compile.Jtrue newpos.(t)
  | Compile.Test_jf (a, c, b, t) -> Compile.Test_jf (a, c, b, newpos.(t))
  | Compile.Test_jt (a, c, b, t) -> Compile.Test_jt (a, c, b, newpos.(t))
  | Compile.Origin_jf (f, c, b, t) -> Compile.Origin_jf (f, c, b, newpos.(t))
  | Compile.Origin_jt (f, c, b, t) -> Compile.Origin_jt (f, c, b, newpos.(t))
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
    (function Compile.Jfalse t | Compile.Jtrue t -> is_target.(t) <- true | _ -> ())
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
      | Compile.Test (a, c, b), Some (Compile.Jfalse t) -> Some (Compile.Test_jf (a, c, b, t))
      | Compile.Test (a, c, b), Some (Compile.Jtrue t) -> Some (Compile.Test_jt (a, c, b, t))
      | Compile.Test (a, c, b), Some (Compile.Clause l) ->
          Some (Compile.Test_clause (a, c, b, l))
      | Compile.Origin_test (f, c, b), Some (Compile.Jfalse t) ->
          Some (Compile.Origin_jf (f, c, b, t))
      | Compile.Origin_test (f, c, b), Some (Compile.Jtrue t) ->
          Some (Compile.Origin_jt (f, c, b, t))
      | Compile.Origin_test (f, c, b), Some (Compile.Clause l) ->
          Some (Compile.Origin_clause (f, c, b, l))
      | Compile.Load_node k, Some Compile.Max2 -> Some (Compile.Load_max k)
      | Compile.Push_level v, Some Compile.Max2 -> Some (Compile.Const_max v)
      | Compile.Push_level v, Some Compile.Min2 -> Some (Compile.Const_min v)
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
  | Compile.Test (a, _, b)
  | Compile.Test_jf (a, _, b, _)
  | Compile.Test_jt (a, _, b, _)
  | Compile.Test_clause (a, _, b, _) ->
      attr_varying a || attr_varying b
  | Compile.Origin_test (_, _, b)
  | Compile.Origin_jf (_, _, b, _)
  | Compile.Origin_jt (_, _, b, _)
  | Compile.Origin_clause (_, _, b, _) ->
      attr_varying b
  | _ -> false

let node_loads op =
  match op with Compile.Load_node k | Compile.Load_max k -> Some k | _ -> None

let node_writes op =
  match op with
  | Compile.Node_end i | Compile.Node_end_const (i, _) | Compile.Store_node i -> Some i
  | _ -> None

let plan program ~varying =
  let instrs = Compile.instrs program in
  let nnodes = Compile.node_count program in
  let levels = Compile.levels program in
  let lowered_of start stop =
    fuse_segment
      (Array.init (stop - start + 1) (fun k -> lower_instr ~start instrs.(start + k)))
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

let begin_batch t ~origin ~attrs =
  let nodes = Array.make (max t.f_nnodes 1) 0 in
  let stack = Array.make (t.f_max_seg + 1) 0 in
  let ops = ref 0 in
  Array.iter
    (fun si -> ignore (Compile.exec_seg t.f_segs.(si).ops ~nodes ~origin ~attrs ~stack ~ops))
    t.f_prefix;
  Smod_metrics.Counter.incr m_fused_batches;
  Smod_metrics.Counter.add m_fused_ops !ops;
  { s_nodes = nodes; s_setup_ops = !ops }

(* Per-slot residue replay.  Residue segments only ever write nodes that
   residue segments themselves define (a reader of a variant node is
   itself variant by construction), and each is rewritten before it is
   read within a slot — so the snapshot's node array is safely reused in
   place across slots, with the invariant entries never touched. *)
let run_slot t snapshot ~origin ~attrs =
  let nodes = snapshot.s_nodes in
  let stack = Array.make (t.f_max_seg + 1) 0 in
  let ops = ref 0 in
  let result = ref 0 in
  Array.iter
    (fun si ->
      let sp = Compile.exec_seg t.f_segs.(si).ops ~nodes ~origin ~attrs ~stack ~ops in
      if sp > 0 then result := stack.(sp - 1))
    t.f_residue;
  let index = max 0 (min (Array.length t.f_levels - 1) !result) in
  Smod_metrics.Counter.incr m_fused_slots;
  Smod_metrics.Counter.add m_fused_ops !ops;
  Compile.{ level = t.f_levels.(index); index; ops = !ops }

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

let is_superop = function
  | Compile.Test_jf _ | Compile.Test_jt _ | Compile.Test_clause _ | Compile.Load_max _
  | Compile.Const_max _ | Compile.Const_min _ | Compile.Origin_jf _ | Compile.Origin_jt _
  | Compile.Origin_clause _ ->
      true
  | _ -> false

let is_origin_op = function
  | Compile.Origin_test _ | Compile.Origin_jf _ | Compile.Origin_jt _
  | Compile.Origin_clause _ ->
      true
  | _ -> false

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
            let m = Compile.mnemonic op in
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

(* Plan internals for the batch-major executor (Vexec), which replays the
   residue lane by lane on the same executor. *)
let segments t = t.f_segs
let residue_segments t = t.f_residue
let levels t = t.f_levels
let max_seg t = t.f_max_seg

let residue_reads t attrs =
  Array.exists
    (fun si -> Array.exists (reads_varying ~varying:attrs) t.f_segs.(si).ops)
    t.f_residue
