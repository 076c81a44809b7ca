(* The open-loop load generator.

   One rep builds a fresh world, connects and warms the workload's
   sessions, then releases a seeded Poisson schedule of ops into it.  The
   generator owns the loop: it hands every op whose due time has passed to
   its session and wakes that session, then runs one [Machine.step].  When
   nothing is runnable it advances the clock to the next due time (the
   CPU is idle).  Latency runs from the op's scheduled arrival to its
   completion, so queueing behind a stalled session counts.

   After the last arrival a 1 s simulated drain deadline applies; an op
   still unfinished then counts as failed.  Everything simulated in a rep
   is a function of the workload, the seed, the rate and the op count —
   wall time is measured beside it and never feeds back. *)

module Machine = Smod_kern.Machine
module Sched = Smod_kern.Sched
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Rng = Smod_util.Rng
module Smod = Secmodule.Smod
module Stub = Secmodule.Stub
module W = Workloads

(* ------------------------------------------------------------------ *)
(* The seeded schedule                                                 *)
(* ------------------------------------------------------------------ *)

type schedule = {
  arrivals : float array;  (** sorted arrival times at unit rate *)
  session_of : int array;
  op_seed : int64;
}

(* A Poisson process conditioned on its count: given n arrivals in
   [0, n), their times are n sorted uniform draws.  Fixing the count and
   the window removes the run-to-run wobble of the offered rate itself,
   and every session gets exactly its share of the ops, in a seeded
   order.  A rep at rate r spaces the same arrivals by 1/r, so the knee
   probes see one pattern at different speeds. *)
let schedule (w : W.t) ~seed ~n =
  let rng = Rng.create (Int64.of_int ((seed * 2_000_029) + 101)) in
  let arrivals = Array.init n (fun _ -> Rng.float rng (float_of_int n)) in
  Array.sort Float.compare arrivals;
  let session_of = Array.init n (fun i -> i mod w.sessions) in
  Rng.shuffle rng session_of;
  { arrivals; session_of; op_seed = Rng.next_int64 rng }

(* Op [i]'s calls come from a generator of its own, so a schedule stores
   no op contents (a ring-policy op is 16 calls). *)
let op (w : W.t) sched i = W.gen_op w (Rng.create (Int64.add sched.op_seed (Int64.of_int i)))

let world_seed ~seed = Int64.of_int ((seed * 1_000_003) + 11)

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

type rep = {
  n : int;
  latency_us : float array;  (** per op; nan when it never completed *)
  lag_us : float array;  (** due -> handed to its session *)
  queue_us : float array;  (** due -> its session started it *)
  completed : int;
  wrong : int;  (** completed with a wrong value, verdict or errno *)
  aborted : bool;  (** probe stopped once its p99 limit was certainly missed *)
  outstanding_at_last : int;  (** ops in flight when the last one arrived *)
  max_backlog : int;
  steps : int;
  updates : int;  (** policy updates applied in the window *)
  window_us : float;  (** simulated length of the measured window *)
  slice_ops : int;  (** completions per slice *)
  slice_s : float array;
      (** wall seconds of each [slice_ops] completions, in completion order:
          every rep of one schedule puts the same ops in the same slice *)
  setup_s : float;  (** wall time to build, connect and warm the world *)
  counters : Smod_metrics.snapshot;  (** delta over the measured window *)
  poller_sweeps : int;
  poller_empty_sweeps : int;
  mux_peak : int;
  heap_mb : float;  (** live heap the world holds after the window; nan unless asked *)
}

let failed r = r.n - r.completed + r.wrong
let calls (w : W.t) r = r.completed * w.calls_per_op

let drain_us = 1_000_000.0

(* Wall time is sampled over [slices] equal runs of a rep's completions,
   so a host stall shows up as a few slow slices rather than one slow
   rep. *)
let slices = 16

(* Advancing the clock to a due time converts through cycles, which can
   land a rounding error short of it; anything due within this slack
   counts as due. *)
let eps_us = 1e-6

type session = { inbox : int Queue.t; wq : Sched.waitq }

exception Setup_failed of string

let wall_s_since t0 = (Spans.wall_ns () -. t0) /. 1e9

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let poller_counts smod =
  match Smod.poller_status smod with
  | Some ps -> (ps.Smod.ps_sweeps, ps.Smod.ps_empty_sweeps)
  | None -> (0, 0)

(* [expect] overrides each call's expected outcome (tests flip one to
   check that a wrong result is caught).  [abort_limit_us] lets a knee
   probe stop once more than 5% of its ops have exceeded the p99 limit,
   or its backlog at the last arrival is already too deep: either settles
   the probe's verdict without running it out, and a probe near the knee
   (p99 just over the limit) still runs to the end, so its p99 is
   known. *)
let run_rep ?spans ?(expect = fun (c : W.call) -> c.W.expect) ?abort_limit_us
    ?(heap = false) (w : W.t) ~seed (sched : schedule) ~rate =
  let n = Array.length sched.arrivals in
  let due = Array.make n 0.0 in
  let latency = Array.make n Float.nan in
  let lag = Array.make n Float.nan and queue = Array.make n Float.nan in
  let root = Array.make n (-1) in
  (* The heap the world holds is measured against this baseline, taken
     after the rep's own arrays exist. *)
  let live_before = if heap then live_words () else 0 in
  let wall_setup = Spans.wall_ns () in
  let setup_span =
    match spans with
    | None -> W.no_span
    | Some s ->
        {
          W.span =
            (fun name f ->
              Spans.with_span s ~name ~op:(-1) ~parent:(-1) ~track:0 ~now:(fun () -> 0.0) f);
        }
  in
  let env = W.build ~span:setup_span w ~seed:(world_seed ~seed) in
  let machine = env.W.world.Smod_bench_kit.World.machine in
  let smod = env.W.world.Smod_bench_kit.World.smod in
  let clock = Machine.clock machine in
  let now_us () = Clock.now_us clock in
  let completed = ref 0 and wrong = ref 0 and over_limit = ref 0 in
  let warmed = ref 0 and warm_wrong = ref 0 in
  let sessions =
    Array.init w.W.sessions (fun _ ->
        { inbox = Queue.create (); wq = Sched.waitq "e2e-arrival" })
  in
  let op_span ~track id =
    match spans with
    | None -> W.no_span
    | Some s ->
        {
          W.span =
            (fun name f ->
              Spans.with_span s ~name ~op:id ~parent:root.(id) ~track ~now:now_us f);
        }
  in
  let check_results (op : W.op) results =
    Array.length results = Array.length op
    && Array.for_all2 (fun c r -> W.matches (expect c) r) op results
  in
  (* Runs one op (or the warm-up op when [id] < 0) and reports whether
     every call's result matched its expectation. *)
  let run_op ~track ~conn ~p id (op : W.op) =
    let span = if id >= 0 then op_span ~track id else W.no_span in
    match W.session_kind w with
    | W.Long_lived -> check_results op (W.run_calls ~span w (Option.get conn) op)
    | W.Per_op ->
        let c = span.W.span "secmodule.connect" (fun () -> W.connect env p) in
        let results = W.run_calls ~span w c op in
        span.W.span "secmodule.close" (fun () -> Stub.close c);
        check_results op results
  in
  let slice_ops = max 1 (n / slices) in
  let slice_start = ref 0.0 and slice_s = ref [] in
  let complete id ok =
    let l = now_us () -. due.(id) in
    latency.(id) <- l;
    incr completed;
    if !completed mod slice_ops = 0 then begin
      let now = Spans.wall_ns () in
      slice_s := ((now -. !slice_start) /. 1e9) :: !slice_s;
      slice_start := now
    end;
    if not ok then incr wrong;
    (match abort_limit_us with Some lim when l > lim -> incr over_limit | _ -> ());
    match spans with Some s -> Spans.finish s root.(id) ~sim_us:(now_us ()) | None -> ()
  in
  Array.iteri
    (fun track s ->
      ignore
        (Machine.spawn machine ~name:(Printf.sprintf "e2e-%s-%d" w.W.name track) (fun p ->
             let pid = p.Proc.pid in
             let conn =
               match W.session_kind w with
               | W.Per_op -> None
               | W.Long_lived ->
                   let c = W.connect env p in
                   if W.uses_ring w then ignore (Stub.arm_ring ~nslots:w.W.calls_per_op c);
                   Some c
             in
             let ok =
               try run_op ~track ~conn ~p (-1) (W.warmup_op w) with Errno.Error _ -> false
             in
             if not ok then incr warm_wrong;
             incr warmed;
             let rec serve () =
               match Queue.take_opt s.inbox with
               | None ->
                   Sched.wait_on s.wq pid;
                   serve ()
               | Some id ->
                   queue.(id) <- now_us () -. due.(id);
                   let ok =
                     try run_op ~track ~conn ~p id (op w sched id) with Errno.Error _ -> false
                   in
                   complete id ok;
                   serve ()
             in
             serve ())))
    sessions;
  (* Set-up ends when every session is connected, warmed and parked. *)
  let settle = ref 0 in
  while Machine.step machine do
    incr settle;
    if !settle > 10_000_000 then raise (Setup_failed "set-up never went idle")
  done;
  if !warmed <> w.W.sessions then
    raise (Setup_failed (Printf.sprintf "%d of %d sessions warmed" !warmed w.W.sessions));
  if !warm_wrong > 0 then raise (Setup_failed "a warm-up op returned a wrong result");
  let setup_s = wall_s_since wall_setup in
  let before = Smod_metrics.snapshot () in
  let sweeps0, empty0 = poller_counts smod in
  slice_start := Spans.wall_ns ();
  let t0 = now_us () in
  for i = 0 to n - 1 do
    due.(i) <- t0 +. (sched.arrivals.(i) /. rate *. 1e6)
  done;
  let last_due = if n = 0 then t0 else due.(n - 1) in
  let updating = W.updates_policy w in
  let next_update = ref (t0 +. W.policy_update_period_us) in
  let updates = ref 0 in
  let released = ref 0 and steps = ref 0 in
  let max_backlog = ref 0 and outstanding_at_last = ref 0 in
  let abort_after = (n / 20) + 1 in
  let aborted = ref false and finished = ref false in
  let release i =
    let s = sessions.(sched.session_of.(i)) in
    lag.(i) <- now_us () -. due.(i);
    (match spans with
    | Some sp ->
        root.(i) <-
          Spans.start sp ~name:"op" ~op:i ~parent:(-1) ~track:sched.session_of.(i)
            ~sim_us:due.(i)
    | None -> ());
    Queue.add i s.inbox;
    ignore (Machine.wake machine s.wq);
    max_backlog := max !max_backlog (i + 1 - !completed)
  in
  let step () =
    match spans with
    | Some sp when !released < Spans.max_ops ->
        Spans.with_span sp ~name:"sched.step" ~op:(-1) ~parent:(-1) ~track:0 ~now:now_us
          (fun () -> Machine.step machine)
    | Some _ | None -> Machine.step machine
  in
  let advance_to t =
    let now = Clock.now_cycles clock and target = t *. Cost.cycles_per_us in
    if target > now then Clock.charge_cycles clock (target -. now)
  in
  while not !finished do
    let now = now_us () in
    while !released < n && due.(!released) <= now +. eps_us do
      release !released;
      incr released;
      if !released = n then outstanding_at_last := n - !completed
    done;
    if updating && now +. eps_us >= !next_update then begin
      (match spans with
      | Some sp ->
          Spans.with_span sp ~name:"registry.set_policy" ~op:(-1) ~parent:(-1) ~track:0
            ~now:now_us (fun () -> W.update_policy env)
      | None -> W.update_policy env);
      incr updates;
      next_update := !next_update +. W.policy_update_period_us
    end
    else if step () then incr steps
    else if !released < n then
      let target = due.(!released) in
      advance_to (if updating then Float.min target !next_update else target)
    else finished := true (* idle with nothing left to arrive *);
    if !completed = n then finished := true;
    if !released = n && now_us () > last_due +. drain_us then finished := true;
    match abort_limit_us with
    | Some _
      when !over_limit > abort_after
           || (!released = n && !outstanding_at_last > max w.W.sessions (n / 100)) ->
        aborted := true;
        finished := true
    | Some _ | None -> ()
  done;
  let window_us = now_us () -. t0 in
  let counters = Smod_metrics.delta ~before ~after:(Smod_metrics.snapshot ()) in
  let sweeps1, empty1 = poller_counts smod in
  let heap_mb =
    if heap then begin
      let live = live_words () in
      ignore (Sys.opaque_identity env);
      float_of_int ((live - live_before) * (Sys.word_size / 8)) /. 1048576.0
    end
    else Float.nan
  in
  {
    n;
    latency_us = latency;
    lag_us = lag;
    queue_us = queue;
    completed = !completed;
    wrong = !wrong;
    aborted = !aborted;
    outstanding_at_last = !outstanding_at_last;
    max_backlog = !max_backlog;
    steps = !steps;
    updates = !updates;
    window_us;
    slice_ops;
    slice_s = Array.of_list (List.rev !slice_s);
    setup_s;
    counters;
    poller_sweeps = sweeps1 - sweeps0;
    poller_empty_sweeps = empty1 - empty0;
    mux_peak = (match Smod.mux_status smod with Some m -> m.Smod.mxs_peak | None -> 0);
    heap_mb;
  }

(* Everything simulated about a rep, for the bit-identity checks between
   reps and between traced and untraced runs.  A histogram's delta keeps
   its bucket counts but not its sum: the registry's running float sum is
   process-wide, so the difference of two sums rounds differently as it
   grows. *)
let digest r =
  let counters =
    List.map
      (fun (name, sample) ->
        match sample with
        | Smod_metrics.Counter_sample v -> (name, [| v |])
        | Smod_metrics.Histogram_sample h -> (name, h.Smod_metrics.hs_counts))
      r.counters
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.latency_us,
            r.lag_us,
            r.queue_us,
            (r.completed, r.wrong, r.aborted, r.outstanding_at_last, r.max_backlog),
            ( r.steps,
              r.updates,
              r.window_us,
              r.poller_sweeps,
              r.poller_empty_sweeps,
              r.mux_peak ),
            counters )
          []))
