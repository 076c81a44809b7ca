(* One benchmark run of one workload, in either of two modes.

   Untraced (the end-to-end run): a light-rate rep (twice), a knee
   bisection and one headline rep give the simulated metrics, then
   set-up alone repeats for [seconds]; set-up time is the median over
   every world the run built.  Repeated reps' simulated results must be
   bit-identical.

   Traced: wall reps alternating untraced and traced for [seconds], then
   an untraced and a traced headline rep, which must give bit-identical
   simulated results; the per-layer spans come from the traced headline
   rep, the wall rate from the untraced wall reps ([wall_rate]), and the
   tracing overhead is 1 - traced/untraced wall rate. *)

module W = Workloads
module L = Loadgen
module Stats = Smod_util.Stats

(* Per-op arrays hold nan for ops that never got that far. *)
let finite xs = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs))

let completed_latencies (r : L.rep) = finite r.L.latency_us

let percentile xs p = if Array.length xs = 0 then Float.nan else Stats.percentile xs p

(* ------------------------------------------------------------------ *)
(* Knee                                                                *)
(* ------------------------------------------------------------------ *)

type probe = {
  p_rate : float;
  p_pass : bool;
  p_p99_us : float;
  p_aborted : bool;
  p_wrong : int;
}

(* A rate passes when p99 meets the workload's limit, no op failed, and
   the backlog at the last arrival is no more than max(sessions, 1% of
   N) — a growing queue fails even if its p99 still looks fine. *)
let serviced (w : W.t) (r : L.rep) =
  (not r.L.aborted)
  && L.failed r = 0
  && r.L.outstanding_at_last <= max w.W.sessions (r.L.n / 100)

let knee_tolerance = 1.02

(* Geometric bisection of [knee_lo, knee_hi] to 2%.  Every probe reuses
   the same seeded schedule, only spaced for its rate, so p99 moves
   smoothly with the rate; the knee is where p99 crosses the limit,
   interpolated inside the final bracket when both ends have a p99 (a
   bracket end that failed on backlog or failures has none, and the knee
   is then the bracket's passing end). *)
let knee ~on_rep (w : W.t) ~seed =
  let limit = w.W.p99_limit_us in
  let sched = L.schedule w ~seed ~n:w.W.probe_ops in
  let probes = ref [] in
  let probe rate =
    let r = L.run_rep ~abort_limit_us:limit w ~seed sched ~rate in
    on_rep r;
    let p99 = percentile (completed_latencies r) 99.0 and ok = serviced w r in
    let pass = ok && p99 <= limit in
    probes :=
      {
        p_rate = rate;
        p_pass = pass;
        p_p99_us = p99;
        p_aborted = r.L.aborted;
        p_wrong = r.L.wrong;
      }
      :: !probes;
    (pass, if ok then Some p99 else None)
  in
  let rec bisect (lo, lo_p99) (hi, hi_p99) =
    if hi /. lo > knee_tolerance then begin
      let mid = sqrt (lo *. hi) in
      match probe mid with
      | true, p -> bisect (mid, p) (hi, hi_p99)
      | false, p -> bisect (lo, lo_p99) (mid, p)
    end
    else
      match (lo_p99, hi_p99) with
      | Some a, Some b when b > a ->
          lo +. ((hi -. lo) *. Float.min 1.0 (Float.max 0.0 ((limit -. a) /. (b -. a))))
      | _ -> lo
  in
  let k = bisect (w.W.knee_lo, None) (w.W.knee_hi, None) in
  (k, List.rev !probes)

(* ------------------------------------------------------------------ *)
(* Wall reps                                                           *)
(* ------------------------------------------------------------------ *)

(* The slice times of repeated reps of one schedule.  Every such rep
   does the same simulated work slice by slice, so only the host differs
   between their times for a slice. *)
type wall = {
  slice_calls : int;
  reps_slice_s : float array list;  (** one array per rep *)
}

let no_wall = { slice_calls = 0; reps_slice_s = [] }

let add_rep (w : W.t) wall (r : L.rep) =
  {
    slice_calls = r.L.slice_ops * w.W.calls_per_op;
    reps_slice_s = r.L.slice_s :: wall.reps_slice_s;
  }

(* Host contention comes and goes over seconds and only ever slows a
   slice down, so each slice costs the fastest time any rep took for it,
   and the rate is the calls of all slices over the sum of those costs.
   A slower program slows a slice in every rep, so it shows; a host stall
   would have to hit the same slice in every rep. *)
let wall_rate wall =
  match wall.reps_slice_s with
  | [] -> Float.nan
  | first :: rest ->
      let best = Array.copy first in
      let keep_faster i t = if i < Array.length best then best.(i) <- Float.min best.(i) t in
      List.iter (Array.iteri keep_faster) rest;
      float_of_int (Array.length best * wall.slice_calls)
      /. Array.fold_left ( +. ) 0.0 best
      /. 1e3

(* Wraps a rep runner so that every rep it runs must match the first
   bit for bit; the second function returns that first rep. *)
let matching ~identical run =
  let first = ref None in
  let rep x =
    let r = run x in
    (match !first with
    | None -> first := Some (r, L.digest r)
    | Some (_, d) -> if L.digest r <> d then identical := false);
    r
  in
  (rep, fun () -> fst (Option.get !first))

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type untraced = {
  light : L.rep;
  knee_ops_s : float;
  probes : probe list;
  headline : L.rep;
  setup_s : float array;  (** one per world built *)
}

type traced = {
  t_headline : L.rep;  (** untraced; the traced one matches it bit for bit *)
  t_spans : Spans.t;  (** from the traced headline rep *)
  t_untraced : wall;
  t_traced : wall;
}

type mode = Untraced of untraced | Traced of traced

type t = {
  workload : W.t;
  seed : int;
  mode : mode;
  identical : bool;  (** every rep's simulated results matched its twins' *)
}

(* The light rep twice (the repeat checks determinism), the knee probes
   and one headline rep give the simulated metrics.  Then set-up alone —
   a rep with no ops builds the world, connects and warms its sessions,
   and stops — repeats for [seconds] (at least once), so the set-up
   median rests on many worlds. *)
let run_untraced ?(log = ignore) (w : W.t) ~seed ~seconds =
  let setups = ref [] and identical = ref true in
  let at_rate ?heap n rate =
    let sched = L.schedule w ~seed ~n in
    fun () ->
      let r = L.run_rep ?heap w ~seed sched ~rate in
      setups := r.L.setup_s :: !setups;
      r
  in
  let light_rep, light = matching ~identical (at_rate w.W.light_ops w.W.light_rate) in
  ignore (light_rep ());
  ignore (light_rep ());
  let knee_ops_s, probes =
    knee ~on_rep:(fun (r : L.rep) -> setups := r.L.setup_s :: !setups) w ~seed
  in
  log
    (Printf.sprintf "%s: knee %.0f ops/s after %d probes" w.W.name knee_ops_s
       (List.length probes));
  let headline = at_rate ~heap:true w.W.ops w.W.headline_rate () in
  let setup_only = at_rate 0 w.W.headline_rate in
  let start = Spans.wall_ns () in
  ignore (setup_only ());
  let once_s = L.wall_s_since start in
  while L.wall_s_since start +. once_s <= seconds do
    ignore (setup_only ())
  done;
  log (Printf.sprintf "%s: %d worlds built" w.W.name (List.length !setups));
  {
    workload = w;
    seed;
    identical = !identical;
    mode =
      Untraced
        {
          light = light ();
          knee_ops_s;
          probes;
          headline;
          setup_s = Array.of_list (List.rev !setups);
        };
  }

(* Untraced and traced wall reps (a shorter schedule at the headline
   rate) alternate for [seconds], at least [min_pairs] pairs, giving the
   untraced wall rate and the tracing overhead, 1 - traced / untraced
   wall rate.  They run first, while the heap holds no kept spans.  Then
   an untraced headline rep (the counters) and a traced one (the spans)
   that must match it. *)
let min_pairs = 3

let run_traced ?(log = ignore) (w : W.t) ~seed ~seconds =
  let identical = ref true in
  let at_rate n =
    let sched = L.schedule w ~seed ~n in
    fun spans -> L.run_rep ?spans w ~seed sched ~rate:w.W.headline_rate
  in
  let wall_rep, _ = matching ~identical (at_rate w.W.wall_ops) in
  let start = Spans.wall_ns () in
  let rec alternate pairs untraced traced =
    let untraced = add_rep w untraced (wall_rep None) in
    let traced = add_rep w traced (wall_rep (Some (Spans.create ()))) in
    if pairs + 1 < min_pairs || L.wall_s_since start < seconds then
      alternate (pairs + 1) untraced traced
    else (untraced, traced)
  in
  let t_untraced, t_traced = alternate 0 no_wall no_wall in
  log
    (Printf.sprintf "%s: %d untraced/traced wall pairs" w.W.name
       (List.length t_untraced.reps_slice_s));
  let headline_rep, headline = matching ~identical (at_rate w.W.ops) in
  let t_spans = Spans.create () in
  ignore (headline_rep None);
  ignore (headline_rep (Some t_spans));
  {
    workload = w;
    seed;
    identical = !identical;
    mode = Traced { t_headline = headline (); t_spans; t_untraced; t_traced };
  }
