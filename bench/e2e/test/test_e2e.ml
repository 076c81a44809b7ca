(* Smoke-scale checks of the end-to-end benchmark: determinism, tracing
   that changes no simulated number, output checking, and the metric and
   workload names agreeing with BENCHMARK.json. *)

open Smod_e2e
module Json = Smod_util.Json
module W = Workloads
module L = Loadgen

let smoke (w : W.t) = { w with W.ops = 120; light_ops = 60; probe_ops = 60; wall_ops = 60 }
let seed = 3

let headline ?spans ?expect (w : W.t) =
  let sched = L.schedule w ~seed ~n:w.W.ops in
  L.run_rep ?spans ?expect w ~seed sched ~rate:w.W.headline_rate

let each_workload f () = List.iter (fun w -> f (smoke w)) W.all

let deterministic (w : W.t) =
  let a = headline w and b = headline w in
  Alcotest.(check string) (w.W.name ^ ": same seed, same digest") (L.digest a) (L.digest b);
  let spans = Spans.create () in
  let t = headline ~spans w in
  Alcotest.(check string) (w.W.name ^ ": traced digest") (L.digest a) (L.digest t);
  Alcotest.(check bool) (w.W.name ^ ": spans recorded") true (spans.Spans.len > 0)

let no_failures (w : W.t) =
  let r = headline w in
  Alcotest.(check int) (w.W.name ^ ": failed ops") 0 (L.failed r);
  Alcotest.(check int) (w.W.name ^ ": completed") w.W.ops r.L.completed

(* Flip one expectation: the denied abs calls are now "expected" to
   return 0, so every one of them must be caught as wrong. *)
let flipped_expectation () =
  let w = smoke (Option.get (W.find "msgq-keynote")) in
  let flip (c : W.call) = match c.W.expect with W.Denied -> W.Value 0 | e -> e in
  let honest = headline w and flipped = headline ~expect:flip w in
  Alcotest.(check int) "honest run has no wrong results" 0 honest.L.wrong;
  let sched = L.schedule w ~seed ~n:w.W.ops in
  let denied =
    List.length
      (List.filter
         (fun i -> (L.op w sched i).(0).W.expect = W.Denied)
         (List.init w.W.ops Fun.id))
  in
  Alcotest.(check bool) "the schedule has denied calls" true (denied > 0);
  Alcotest.(check int) "every flipped call is caught" denied flipped.L.wrong

let benchmark_json =
  Json.of_string (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all)

let entries key = Json.to_list (Json.member_exn key benchmark_json)
let names key = List.map (fun m -> Json.get_string (Json.member_exn "name" m)) (entries key)

let units key =
  List.map
    (fun m ->
      (Json.get_string (Json.member_exn "name" m), Json.get_string (Json.member_exn "unit" m)))
    (entries key)

let sorted l = List.sort compare l

let summary_keys runs =
  match Json.member_exn "metrics" (Json.of_string (Result_doc.summary_line runs)) with
  | Json.Obj kvs -> sorted (List.map fst kvs)
  | _ -> Alcotest.fail "metrics is not an object"

let names_match () =
  Alcotest.(check (list string)) "workloads" (sorted W.names) (sorted (names "workloads"));
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" (sorted Report.end_to_end) (sorted (units "end_to_end"));
  Alcotest.check pairs "per_layer" (sorted Report.per_layer) (sorted (units "per_layer"));
  let w = smoke (Option.get (W.find "msgq-paper")) in
  Alcotest.(check (list string))
    "untraced output" (sorted (names "end_to_end"))
    (summary_keys [ Measure.run_untraced w ~seed ~seconds:0.0 ]);
  Alcotest.(check (list string))
    "traced output" (sorted (names "per_layer"))
    (summary_keys [ Measure.run_traced w ~seed ~seconds:0.0 ])

let () =
  Alcotest.run "e2e"
    [
      ( "e2e",
        [
          Alcotest.test_case "deterministic and trace-neutral" `Quick
            (each_workload deterministic);
          Alcotest.test_case "no failed ops" `Quick (each_workload no_failures);
          Alcotest.test_case "flipped expectation detected" `Quick flipped_expectation;
          Alcotest.test_case "metric and workload names" `Quick names_match;
        ] );
    ]
