(* Batch-major (vectorized) residue execution.

   [Fuse.run_slot] replays the per-slot residue one slot at a time: under
   a 64-slot ring batch that is 64 interpreter walks over the same
   residue program, 64 dispatches per opcode.  This module executes the
   residue the other way around — one pass per opcode over all N lanes —
   against struct-of-arrays columns of the per-slot state: a node column,
   a stack column, an accumulator and a program counter per lane.

   The walk is a *min-pc uniform walk*.  [Compile.compile] only ever
   emits forward jumps (targets are patched to a later emission index),
   a property the lowering preserves, so per-lane program counters are
   monotone.  The walk position is always the minimum pc over live
   lanes: the opcode there executes for exactly the lanes whose pc sits
   on it, lanes that jumped ahead sleep (they are mask-skipped, not
   branched around), and when every lane has jumped past a stretch the
   walk skips it entirely.  A lane leaves the live set only by running
   off the end of the segment — the per-lane divergence a fused
   [test+jf] causes never branches the walk itself.

   Cost accounting mirrors the SIMD pricing of the accelerator guides:
   each pass over L live lanes costs [ceil(L/W)] units of
   {!Smod_sim.Cost_model.Policy_vector_op} (the caller charges
   [vr_units]).  At one lane the walk visits exactly the positions the
   scalar interpreter would and charges one unit each — the honest
   scalar fallback: identical op count to [Fuse.run_slot]. *)

type lane = { l_origin : Fuse.origin; l_attrs : (string * string) list }

type result = {
  vr_indices : int array;
  vr_passes : int;
  vr_units : int;
}

let default_width = 8

let m_scope = Smod_metrics.scope "keynote"
let m_vector_batches = Smod_metrics.Scope.counter m_scope "vector_batches"
let m_vector_lanes = Smod_metrics.Scope.counter m_scope "vector_lanes"
let m_vector_passes = Smod_metrics.Scope.counter m_scope "vector_passes"
let m_vector_units = Smod_metrics.Scope.counter m_scope "vector_units"

let run_residue plan snapshot ~width ~lanes =
  if width < 1 then invalid_arg "Vexec.run_residue: width < 1";
  let n = Array.length lanes in
  let levels = Fuse.levels plan in
  if n = 0 then { vr_indices = [||]; vr_passes = 0; vr_units = 0 }
  else begin
    let segs = Fuse.segments plan in
    (* SoA columns.  Node columns are seeded from the invariant snapshot:
       residue segments rewrite every variant entry before reading it
       (within a lane), and invariant entries are never written, so a
       per-lane copy is exactly the state [Fuse.run_slot] sees. *)
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
          match List.assoc_opt a lanes.(k).l_attrs with Some v -> v | None -> "")
    in
    let test k a op b =
      Fuse.holds op (Eval.compare_values (operand_value k a) (operand_value k b))
    in
    let otest k f op b =
      Fuse.holds op
        (Eval.compare_values
           (Fuse.origin_value lanes.(k).l_origin f)
           (operand_value k b))
    in
    (* One opcode for one lane: the scalar [Fuse.exec_seg] semantics over
       lane [k]'s columns.  Updates [pc.(k)]. *)
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
      match op with
      | Fuse.F_test (a, op, b) ->
          push (if test k a op b then 1 else 0);
          advance ()
      | Fuse.F_push_bool b ->
          push (if b then 1 else 0);
          advance ()
      | Fuse.F_not ->
          st.(sp.(k) - 1) <- (if st.(sp.(k) - 1) = 0 then 1 else 0);
          advance ()
      | Fuse.F_jfalse target ->
          if st.(sp.(k) - 1) = 0 then pc.(k) <- target
          else begin
            ignore (pop ());
            advance ()
          end
      | Fuse.F_jtrue target ->
          if st.(sp.(k) - 1) <> 0 then pc.(k) <- target
          else begin
            ignore (pop ());
            advance ()
          end
      | Fuse.F_node_begin ->
          acc.(k) <- 0;
          advance ()
      | Fuse.F_clause level ->
          if pop () <> 0 then acc.(k) <- max acc.(k) level;
          advance ()
      | Fuse.F_push_level v ->
          push v;
          advance ()
      | Fuse.F_load_node i ->
          push nodes.(k).(i);
          advance ()
      | Fuse.F_min2 ->
          let b = pop () in
          let a = pop () in
          push (min a b);
          advance ()
      | Fuse.F_max2 ->
          let b = pop () in
          let a = pop () in
          push (max a b);
          advance ()
      | Fuse.F_kof (kk, count) ->
          let members = ref [] in
          for _ = 1 to count do
            members := pop () :: !members
          done;
          push (Compile.kth_largest kk !members);
          advance ()
      | Fuse.F_node_end i ->
          let lic = pop () in
          nodes.(k).(i) <- min acc.(k) lic;
          advance ()
      | Fuse.F_node_end_const (i, lic) ->
          nodes.(k).(i) <- min acc.(k) lic;
          advance ()
      | Fuse.F_store_node i ->
          nodes.(k).(i) <- pop ();
          advance ()
      | Fuse.F_root (base, roots) ->
          push (Array.fold_left (fun m i -> max m nodes.(k).(i)) base roots);
          advance ()
      | Fuse.F_test_jf (a, op, b, target) ->
          if test k a op b then advance ()
          else begin
            push 0;
            pc.(k) <- target
          end
      | Fuse.F_test_jt (a, op, b, target) ->
          if test k a op b then begin
            push 1;
            pc.(k) <- target
          end
          else advance ()
      | Fuse.F_test_clause (a, op, b, level) ->
          if test k a op b then acc.(k) <- max acc.(k) level;
          advance ()
      | Fuse.F_load_max i ->
          st.(sp.(k) - 1) <- max st.(sp.(k) - 1) nodes.(k).(i);
          advance ()
      | Fuse.F_const_max c ->
          st.(sp.(k) - 1) <- max st.(sp.(k) - 1) c;
          advance ()
      | Fuse.F_const_min c ->
          st.(sp.(k) - 1) <- min st.(sp.(k) - 1) c;
          advance ()
      | Fuse.F_origin (f, op, b) ->
          push (if otest k f op b then 1 else 0);
          advance ()
      | Fuse.F_origin_jf (f, op, b, target) ->
          if otest k f op b then advance ()
          else begin
            push 0;
            pc.(k) <- target
          end
      | Fuse.F_origin_jt (f, op, b, target) ->
          if otest k f op b then begin
            push 1;
            pc.(k) <- target
          end
          else advance ()
      | Fuse.F_origin_clause (f, op, b, level) ->
          if otest k f op b then acc.(k) <- max acc.(k) level;
          advance ()
    in
    Array.iter
      (fun si ->
        let ops = segs.(si).Fuse.ops in
        let len = Array.length ops in
        Array.fill pc 0 n 0;
        Array.fill sp 0 n 0;
        (* Walk position = min pc over live lanes; jumps are forward, so
           it is monotone and every live lane's pc is >= it. *)
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
          (* Advance to the next position any live lane needs. *)
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
    let indices =
      Array.map (fun r -> max 0 (min (Array.length levels - 1) r)) result
    in
    Smod_metrics.Counter.incr m_vector_batches;
    Smod_metrics.Counter.add m_vector_lanes n;
    Smod_metrics.Counter.add m_vector_passes !passes;
    Smod_metrics.Counter.add m_vector_units !units;
    { vr_indices = indices; vr_passes = !passes; vr_units = !units }
  end

let level_of plan index = (Fuse.levels plan).(index)
