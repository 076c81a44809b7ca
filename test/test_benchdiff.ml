(* The benchdiff comparison core (lib/bench_kit/diff.ml) and the
   trajectory record (lib/bench_kit/trajectory.ml): per-metric gates —
   means tighter than p99 — skipped-row accounting, gates.json parsing,
   and headline history ordering. *)

module Json = Smod_util.Json
module Bench_json = Smod_bench_kit.Bench_json
module Diff = Smod_bench_kit.Diff
module Trajectory = Smod_bench_kit.Trajectory

(* A small two-experiment document shaped like the real artifact: a mean
   row, a p99 row (label marks the metric class), and an exact-zero E12
   row for the additive-epsilon cases. *)
let doc ?(smod_mean = 6.407) ?(ring_p99 = 1.9326) ?(queue_depth = 0.0) () =
  {
    Bench_json.mode = "quick";
    meta = None;
    experiments =
      [
        Bench_json.experiment ~id:"e1" ~title:"Figure 8"
          [
            Bench_json.row ~label:"getpid()" ~mean:0.658 ~stdev:0.005 ();
            Bench_json.row ~label:"SMOD(test-incr)" ~mean:smod_mean ~stdev:0.06 ();
          ];
        Bench_json.experiment ~id:"e18" ~title:"rings"
          [
            Bench_json.row ~label:"ring batch 16 (mean)" ~mean:0.9663 ~stdev:0.01 ();
            Bench_json.row ~label:"ring batch 16 (p99)" ~mean:ring_p99 ~stdev:0.0 ();
          ];
        Bench_json.experiment ~id:"e12" ~title:"queueing"
          [
            Bench_json.row ~label:"1 clients, own handles" ~unit_:"depth" ~mean:queue_depth
              ~stdev:0.0 ();
          ];
      ];
    metrics = [];
  }

let statuses r =
  List.map
    (fun (rr : Diff.row_result) -> (rr.Diff.rr_experiment ^ "/" ^ rr.rr_label, rr.rr_status))
    r.Diff.rows

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_within_tolerance () =
  let baseline = doc () in
  let current = doc ~smod_mean:(6.407 *. 1.01) () in
  let r = Diff.compare_docs ~baseline ~current () in
  Alcotest.(check int) "all rows compared" 5 r.Diff.compared;
  Alcotest.(check int) "no skips" 0 r.Diff.skipped;
  Alcotest.(check bool) "1% mean drift passes at 2%" true (Diff.ok r)

let test_mean_regression_fails () =
  let baseline = doc () in
  let current = doc ~smod_mean:(6.407 *. 1.05) () in
  let r = Diff.compare_docs ~baseline ~current () in
  Alcotest.(check bool) "5% mean drift fails at 2%" false (Diff.ok r);
  let failed =
    List.filter (fun (rr : Diff.row_result) -> rr.Diff.rr_status = Diff.Fail) r.Diff.rows
  in
  Alcotest.(check (list string)) "only the drifted row"
    [ "SMOD(test-incr)" ]
    (List.map (fun (rr : Diff.row_result) -> rr.Diff.rr_label) failed)

let test_p99_looser_gate () =
  (* A 3% drift on a p99 row: over the 2% mean gate, inside the 5% p99
     gate — it must be classified P99 and pass.  At 7% it fails even the
     looser gate. *)
  let baseline = doc () in
  let wobble = doc ~ring_p99:(1.9326 *. 1.03) () in
  let r = Diff.compare_docs ~baseline ~current:wobble () in
  Alcotest.(check bool) "3% p99 drift passes at 5%" true (Diff.ok r);
  (match
     List.find
       (fun (rr : Diff.row_result) -> rr.Diff.rr_label = "ring batch 16 (p99)")
       r.Diff.rows
   with
  | rr ->
      Alcotest.(check bool) "classified p99" true (rr.Diff.rr_metric = Diff.P99);
      Alcotest.(check (float 0.0)) "judged at the p99 tolerance" 0.05 rr.Diff.rr_rel_tol);
  let spike = doc ~ring_p99:(1.9326 *. 1.07) () in
  let r = Diff.compare_docs ~baseline ~current:spike () in
  Alcotest.(check bool) "7% p99 drift fails at 5%" false (Diff.ok r);
  (* The same 3% drift on the mean row fails: means are gated tighter. *)
  let mean_wobble = doc ~smod_mean:(6.407 *. 1.03) () in
  let r = Diff.compare_docs ~baseline ~current:mean_wobble () in
  Alcotest.(check bool) "3% mean drift fails at 2%" false (Diff.ok r)

let test_missing_row_skipped () =
  (* A smoke run carrying only e1: the e18/e12 baseline rows are
     reported skipped — visible, not a silent pass — and the gate still
     passes on what was compared. *)
  let baseline = doc () in
  let subset =
    { baseline with Bench_json.experiments = [ List.hd baseline.Bench_json.experiments ] }
  in
  let r = Diff.compare_docs ~baseline ~current:subset () in
  Alcotest.(check int) "two rows compared" 2 r.Diff.compared;
  Alcotest.(check int) "three rows skipped" 3 r.Diff.skipped;
  Alcotest.(check bool) "subset run passes" true (Diff.ok r);
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " skipped") true
        (List.assoc_opt key (statuses r) = Some Diff.Skipped))
    [ "e18/ring batch 16 (mean)"; "e18/ring batch 16 (p99)"; "e12/1 clients, own handles" ];
  (* The report renders the skip so CI logs show it. *)
  let rendered = Diff.render r in
  Alcotest.(check bool) "render mentions skips" true (contains ~affix:"3 skipped" rendered);
  (* Disjoint documents compare nothing — that is a failure, not a pass. *)
  let disjoint = { baseline with Bench_json.experiments = [] } in
  let r0 = Diff.compare_docs ~baseline ~current:disjoint () in
  Alcotest.(check bool) "nothing compared fails" false (Diff.ok r0)

let test_zero_row_epsilon_and_override () =
  (* E12 rows are exactly 0.0; a pure relative gate would fail on any
     change.  The tight default epsilon catches 0.0 -> 0.25; a looser
     per-experiment override waves it through and is recorded per row. *)
  let baseline = doc () in
  let current = doc ~queue_depth:0.25 () in
  let strict = Diff.compare_docs ~baseline ~current () in
  Alcotest.(check bool) "0.0 -> 0.25 caught" false (Diff.ok strict);
  let gates = { Diff.default_gates with Diff.g_abs_eps_for = [ ("e12", 0.5) ] } in
  let eased = Diff.compare_docs ~gates ~baseline ~current () in
  Alcotest.(check bool) "passes with e12 override" true (Diff.ok eased);
  List.iter
    (fun (rr : Diff.row_result) ->
      let expected = if rr.Diff.rr_experiment = "e12" then 0.5 else 1e-9 in
      Alcotest.(check (float 0.0))
        (rr.Diff.rr_experiment ^ "/" ^ rr.Diff.rr_label ^ " judged with its epsilon")
        expected rr.Diff.rr_abs_eps)
    eased.Diff.rows

let test_rel_for_override () =
  (* A per-experiment tolerance override loosens only that experiment's
     rows: a 4% mean drift on e1 fails under the global 2% gate but
     passes once e1 carries a 5%/10% override — and the override is
     recorded in the row it judged. *)
  let baseline = doc () in
  let current = doc ~smod_mean:(6.407 *. 1.04) () in
  let strict = Diff.compare_docs ~baseline ~current () in
  Alcotest.(check bool) "4% mean drift fails globally" false (Diff.ok strict);
  let gates = { Diff.default_gates with Diff.g_rel_for = [ ("e1", (0.05, 0.10)) ] } in
  let eased = Diff.compare_docs ~gates ~baseline ~current () in
  Alcotest.(check bool) "passes with e1 override" true (Diff.ok eased);
  List.iter
    (fun (rr : Diff.row_result) ->
      let expected =
        match (rr.Diff.rr_experiment, rr.Diff.rr_metric) with
        | "e1", Diff.Mean -> 0.05
        | "e1", Diff.P99 -> 0.10
        | _, Diff.Mean -> 0.02
        | _, Diff.P99 -> 0.05
      in
      Alcotest.(check (float 0.0))
        (rr.Diff.rr_experiment ^ "/" ^ rr.Diff.rr_label ^ " judged with its tolerance")
        expected rr.Diff.rr_rel_tol)
    eased.Diff.rows;
  (* An inverted override (mean looser than p99) is rejected up front. *)
  Alcotest.(check bool) "inverted rel_for rejected" true
    (match
       Diff.gates_of_string
         "{\"schema\": \"smod-bench-gates\", \"schema_version\": 1, \"mean_rel\": 0.02, \
          \"p99_rel\": 0.05, \"abs_eps\": 0, \"rel_for\": {\"e21\": {\"mean_rel\": 0.2, \
          \"p99_rel\": 0.1}}}"
     with
    | _ -> false
    | exception Json.Parse_error _ -> true)

let test_schema_mismatch_hard_error () =
  (* A v1 snapshot (or any other version) is a hard parse error with a
     regeneration hint, never a best-effort read. *)
  let check_rejected name s =
    match Bench_json.of_string s with
    | _ -> Alcotest.fail (name ^ ": expected Parse_error")
    | exception Json.Parse_error msg ->
        Alcotest.(check bool) (name ^ " hints at regeneration") true
          (contains ~affix:"bench capture" msg)
  in
  check_rejected "v1"
    "{\"schema\": \"smod-bench\", \"schema_version\": 1, \"mode\": \"quick\", \
     \"experiments\": [], \"metrics\": []}";
  check_rejected "future"
    "{\"schema\": \"smod-bench\", \"schema_version\": 999, \"mode\": \"quick\", \
     \"experiments\": [], \"metrics\": []}"

let test_gates_json () =
  let g =
    Diff.gates_of_string
      "{\"schema\": \"smod-bench-gates\", \"schema_version\": 1, \"mean_rel\": 0.02, \
       \"p99_rel\": 0.05, \"abs_eps\": 1e-9, \"abs_eps_for\": {\"e12\": 0.5}, \
       \"rel_for\": {\"e21\": {\"mean_rel\": 0.05, \"p99_rel\": 0.1}}}"
  in
  Alcotest.(check (float 0.0)) "mean_rel" 0.02 g.Diff.g_mean_rel;
  Alcotest.(check (float 0.0)) "p99_rel" 0.05 g.Diff.g_p99_rel;
  Alcotest.(check bool) "override parsed" true (g.Diff.g_abs_eps_for = [ ("e12", 0.5) ]);
  Alcotest.(check bool) "rel override parsed" true (g.Diff.g_rel_for = [ ("e21", (0.05, 0.1)) ]);
  (* Pre-e21 gates files omit rel_for entirely; still schema_version 1. *)
  let old =
    Diff.gates_of_string
      "{\"schema\": \"smod-bench-gates\", \"schema_version\": 1, \"mean_rel\": 0.02, \
       \"p99_rel\": 0.05, \"abs_eps\": 1e-9}"
  in
  Alcotest.(check bool) "absent rel_for defaults empty" true (old.Diff.g_rel_for = []);
  (* Round-trip through the emitter. *)
  Alcotest.(check bool) "round-trips" true (Diff.gates_of_string (Diff.gates_to_string g) = g);
  (* mean looser than p99 contradicts the design and is rejected. *)
  Alcotest.(check bool) "mean > p99 rejected" true
    (match
       Diff.gates_of_string
         "{\"schema\": \"smod-bench-gates\", \"schema_version\": 1, \"mean_rel\": 0.08, \
          \"p99_rel\": 0.05, \"abs_eps\": 0}"
     with
    | _ -> false
    | exception Json.Parse_error _ -> true)

let entry ~date ~commit ~snapshot =
  let meta =
    { Bench_json.mt_date = date; mt_commit = commit; mt_jobs = 2; mt_sections = [ "e1" ] }
  in
  Trajectory.entry_of_doc ~snapshot { (doc ()) with Bench_json.meta = Some meta }

let test_trajectory_ordering_and_headlines () =
  (* Entries render and serialise in date order regardless of append
     order; appending the same snapshot twice is idempotent. *)
  let a = entry ~date:"2026-08-01" ~commit:"aaaaaaa" ~snapshot:"2026-08-01_aaaaaaa.json" in
  let b = entry ~date:"2026-08-08" ~commit:"bbbbbbb" ~snapshot:"2026-08-08_bbbbbbb.json" in
  let c = entry ~date:"2026-07-15" ~commit:"ccccccc" ~snapshot:"2026-07-15_ccccccc.json" in
  let history = List.fold_left Trajectory.append [] [ b; a; c; a ] in
  Alcotest.(check (list string)) "sorted by date, duplicate dropped"
    [ "2026-07-15"; "2026-08-01"; "2026-08-08" ]
    (List.map (fun (e : Trajectory.entry) -> e.Trajectory.t_date) history);
  let history' = Trajectory.of_string (Trajectory.to_string history) in
  Alcotest.(check bool) "round-trips" true (history = history');
  (* Headlines from the fixture doc: e1 present, the rest null — a
     partial capture records honest gaps, not zeros. *)
  let values = a.Trajectory.t_values in
  Alcotest.(check bool) "e1 headline extracted" true
    (List.assoc "e1_test_incr_us" values = Some 6.407);
  Alcotest.(check bool) "absent section is None" true
    (List.assoc "e16_attach_us" values = None);
  Alcotest.(check (list string)) "every headline key present" Trajectory.headline_keys
    (List.map fst values)

(* Two captures on one day whose shas sort the other way round: the
   history follows the order they were appended in, through append, the
   serialised round trip and the rendered table. *)
let test_trajectory_same_day_keeps_append_order () =
  let first = entry ~date:"2026-08-08" ~commit:"fffffff" ~snapshot:"2026-08-08_fffffff.json" in
  let second = entry ~date:"2026-08-08" ~commit:"0000000" ~snapshot:"2026-08-08_0000000.json" in
  let older = entry ~date:"2026-08-01" ~commit:"7777777" ~snapshot:"2026-08-01_7777777.json" in
  let commits h = List.map (fun (e : Trajectory.entry) -> e.Trajectory.t_commit) h in
  let history = List.fold_left Trajectory.append [] [ first; second; older; second ] in
  Alcotest.(check (list string)) "append order within the day"
    [ "7777777"; "fffffff"; "0000000" ] (commits history);
  Alcotest.(check (list string)) "round trip keeps it" (commits history)
    (commits (Trajectory.of_string (Trajectory.to_string history)));
  let lines = String.split_on_char '\n' (Trajectory.render history) in
  let row c = List.find_index (contains ~affix:c) lines in
  let rows = List.filter_map row (commits history) in
  Alcotest.(check bool) "rendered in the same order" true
    (List.length rows = 3 && rows = List.sort compare rows)

let test_trajectory_slope () =
  (* The E9 headline is a least-squares slope over the assertion-count
     sweep; with means lying exactly on a line the fit is exact. *)
  let e9 =
    Bench_json.experiment ~id:"e9" ~title:"policy complexity"
      [
        Bench_json.row ~label:"keynote-1" ~mean:(6.5 +. (0.7 *. 1.0)) ~stdev:0.0 ();
        Bench_json.row ~label:"keynote-4" ~mean:(6.5 +. (0.7 *. 4.0)) ~stdev:0.0 ();
        Bench_json.row ~label:"keynote-16" ~mean:(6.5 +. (0.7 *. 16.0)) ~stdev:0.0 ();
      ]
  in
  let d = { (doc ()) with Bench_json.experiments = [ e9 ] } in
  let e = Trajectory.entry_of_doc ~snapshot:"s.json" d in
  (match List.assoc "e9_slope_us" e.Trajectory.t_values with
  | Some slope -> Alcotest.(check (float 1e-9)) "slope" 0.7 slope
  | None -> Alcotest.fail "slope missing");
  (* The compiled sweep is absent from the fixture -> None, not 0. *)
  Alcotest.(check bool) "compiled slope is None" true
    (List.assoc "e9_slope_compiled_us" e.Trajectory.t_values = None)

(* Entries serialized before a headline existed (e.g. pre-E24 history)
   lack its key entirely: they must parse, mix with new entries, and
   render "-" for the absent metric — a skipped cell, never an error. *)
let test_trajectory_old_entries_tolerated () =
  let old_json =
    {|{"schema":"smod-bench-trajectory","schema_version":1,"entries":[{"date":"2026-07-01","commit":"0ldc0mm","mode":"quick","jobs":4,"snapshot":"2026-07-01_0ldc0mm.json","values":{"e1_test_incr_us":6.407}}]}|}
  in
  let history = Trajectory.of_string old_json in
  let e24 =
    Bench_json.experiment ~id:"e24" ~title:"fused batch"
      [ Bench_json.row ~label:"ring b64 kn-16 fused (mean)" ~mean:0.963 ~stdev:0.0 () ]
  in
  let d = { (doc ()) with Bench_json.experiments = [ e24 ] } in
  let e = Trajectory.entry_of_doc ~snapshot:"2026-08-08_fffffff.json" d in
  (match List.assoc "e24_fused_batch64_kn16" e.Trajectory.t_values with
  | Some v -> Alcotest.(check (float 1e-9)) "e24 headline extracted" 0.963 v
  | None -> Alcotest.fail "e24 headline missing from a doc that has the row");
  let history = Trajectory.append history e in
  let rendered = Trajectory.render history in
  Alcotest.(check bool) "old entry renders" true (contains ~affix:"0ldc0mm" rendered);
  Alcotest.(check bool) "old entry's e1 value renders" true
    (contains ~affix:"6.4070" rendered);
  Alcotest.(check bool) "new entry's e24 value renders" true
    (contains ~affix:"0.9630" rendered);
  (* The old entry's row ends in "-" cells for every post-dating headline
     (the e24 column included); rendering must not have invented a value. *)
  let old_row =
    List.find (fun l -> contains ~affix:"0ldc0mm" l) (String.split_on_char '\n' rendered)
  in
  Alcotest.(check bool) "absent e24 metric shows a dash" true
    (contains ~affix:"-" old_row && not (contains ~affix:"0.9630" old_row))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "benchdiff"
    [
      ( "gates",
        [
          tc "within tolerance" test_within_tolerance;
          tc "mean regression fails" test_mean_regression_fails;
          tc "p99 judged at looser gate" test_p99_looser_gate;
          tc "zero-row epsilon and override" test_zero_row_epsilon_and_override;
          tc "per-experiment tolerance override" test_rel_for_override;
          tc "gates.json parse and validate" test_gates_json;
        ] );
      ( "skips and schema",
        [
          tc "missing row skipped, not passed" test_missing_row_skipped;
          tc "schema mismatch is a hard error" test_schema_mismatch_hard_error;
        ] );
      ( "trajectory",
        [
          tc "ordering, idempotence, headlines" test_trajectory_ordering_and_headlines;
          tc "same-day entries keep append order" test_trajectory_same_day_keeps_append_order;
          tc "e9 least-squares slope" test_trajectory_slope;
          tc "old entries tolerate new headlines" test_trajectory_old_entries_tolerated;
        ] );
    ]
