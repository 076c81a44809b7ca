(* Batch-major (vectorized) residue execution.

   [Fuse.run_slot] replays the per-slot residue one slot at a time, and
   the cost model charges one compiled op per executed opcode per slot.
   This module prices the same residue the way a SIMD engine would run
   it: one pass per opcode position over all N lanes, with lanes that
   jumped ahead mask-skipped rather than branched around.

   The charge is computed from lane paths.  Each lane replays the
   residue on [Compile.exec_seg], the executor every engine shares, and
   the executor records the positions it executes in a per-segment
   trace.  Jumps are strictly forward, so a lockstep walk whose position
   is the minimum pc over live lanes visits exactly the union of the
   lanes' positions, in order, and a lane stays live until it has
   executed its last op in the segment.  So within each residue segment:

     passes = positions at least one lane executes
     units  = sum over those positions of ceil(live/W), where live counts
              the lanes whose last op in the segment is at or after it

   At one lane the passes are exactly the lane's path and each costs one
   unit — the honest scalar fallback: identical op count to
   [Fuse.run_slot].  The walk itself is kept as the reference in
   test/test_compile.ml. *)

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
  if n = 0 then { vr_indices = [||]; vr_passes = 0; vr_units = 0 }
  else begin
    let segs =
      Array.map (fun si -> (Fuse.segments plan).(si).Fuse.ops) (Fuse.residue_segments plan)
    in
    (* Per residue segment: the positions any lane executed, and per
       position how many lanes executed their last op there. *)
    let traces =
      Array.map
        (fun ops -> { Compile.seen = Array.make (Array.length ops) false; last = 0 })
        segs
    in
    let leaving = Array.map (fun ops -> Array.make (Array.length ops) 0) segs in
    let stack = Array.make (Fuse.max_seg plan + 1) 0 in
    let levels = Fuse.levels plan in
    (* Lanes replay in place on the snapshot's nodes, as slots do in
       [Fuse.run_slot]: invariant entries are never written. *)
    let nodes = snapshot.Fuse.s_nodes in
    let ops = ref 0 in
    let indices =
      Array.map
        (fun lane ->
          let result = ref 0 in
          for j = 0 to Array.length segs - 1 do
            let trace = traces.(j) in
            let sp =
              Compile.exec_seg ~trace segs.(j) ~nodes ~origin:lane.l_origin
                ~attrs:lane.l_attrs ~stack ~ops
            in
            if sp > 0 then result := stack.(sp - 1);
            leaving.(j).(trace.last) <- leaving.(j).(trace.last) + 1
          done;
          max 0 (min (Array.length levels - 1) !result))
        lanes
    in
    let passes = ref 0 and units = ref 0 in
    Array.iteri
      (fun j (trace : Compile.trace) ->
        let live = ref n in
        Array.iteri
          (fun pos hit ->
            if hit then begin
              incr passes;
              units := !units + ((!live + width - 1) / width)
            end;
            live := !live - leaving.(j).(pos))
          trace.seen)
      traces;
    Smod_metrics.Counter.incr m_vector_batches;
    Smod_metrics.Counter.add m_vector_lanes n;
    Smod_metrics.Counter.add m_vector_passes !passes;
    Smod_metrics.Counter.add m_vector_units !units;
    { vr_indices = indices; vr_passes = !passes; vr_units = !units }
  end
