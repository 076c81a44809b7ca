(* Unit and property tests for Smod_util. *)

module Rng = Smod_util.Rng
module Stats = Smod_util.Stats
module Table = Smod_util.Table
module Hexdump = Smod_util.Hexdump

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_zero_seed () =
  let r = Rng.create 0L in
  let v = Rng.next_int64 r in
  Alcotest.(check bool) "produces output from zero seed" true (v <> 0L || Rng.next_int64 r <> 0L)

let test_rng_int_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_unit_float () =
  let r = Rng.create 11L in
  for _ = 1 to 1000 do
    let v = Rng.unit_float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_jitter_range () =
  let r = Rng.create 13L in
  for _ = 1 to 1000 do
    let v = Rng.jitter r 0.02 in
    Alcotest.(check bool) "within 2%" true (v >= 0.98 && v <= 1.02)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 17L in
  let n = 20000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mu:5.0 ~sigma:2.0) in
  let s = Stats.summarize samples in
  Alcotest.(check bool) "mean near 5" true (Float.abs (s.Stats.mean -. 5.0) < 0.1);
  Alcotest.(check bool) "stdev near 2" true (Float.abs (s.Stats.stdev -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 21L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 1L in
  let child = Rng.split parent in
  Alcotest.(check bool) "split differs from parent stream" true
    (Rng.next_int64 child <> Rng.next_int64 parent)

let test_rng_copy () =
  let a = Rng.create 5L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_bytes () =
  let r = Rng.create 3L in
  let b = Rng.bytes r 100 in
  Alcotest.(check int) "length" 100 (Bytes.length b)

(* The generator as it stood with its state in four boxed int64 fields:
   the oracle for the stream the unboxed state must reproduce. *)
module Ref_rng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let splitmix64 state =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed =
    let state = ref seed in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
      { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
    else { s0; s1; s2; s3 }

  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

  let next_int64 t =
    let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
    let tmp = Int64.shift_left t.s1 17 in
    t.s2 <- Int64.logxor t.s2 t.s0;
    t.s3 <- Int64.logxor t.s3 t.s1;
    t.s1 <- Int64.logxor t.s1 t.s2;
    t.s0 <- Int64.logxor t.s0 t.s3;
    t.s2 <- Int64.logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t = create (next_int64 t)
end

let check_stream name ~n r o =
  for i = 1 to n do
    let got = Rng.next_int64 r and want = Ref_rng.next_int64 o in
    if got <> want then Alcotest.failf "%s: output %d is %Ld, oracle %Ld" name i got want
  done

(* Seed 0x61C8864680B583EB (minus splitmix64's increment) makes the first
   state word zero, the nearest a seed can come to the all-zero state:
   splitmix64's mixer is a bijection fixing 0, so of four consecutive
   words at most one is zero and the fallback state cannot be reached
   from [create]. *)
let oracle_seeds = [ 0L; 1L; 42L; -1L; Int64.min_int; Int64.max_int; 0x61C8864680B583EBL ]

let test_rng_oracle_stream () =
  List.iter
    (fun seed ->
      check_stream (Printf.sprintf "seed %Ld" seed) ~n:100_000 (Rng.create seed)
        (Ref_rng.create seed))
    oracle_seeds

let test_rng_oracle_copy_split () =
  List.iter
    (fun seed ->
      let r = Rng.create seed and o = Ref_rng.create seed in
      check_stream "warm-up" ~n:1_000 r o;
      let rc = Rng.copy r and oc = Ref_rng.copy o in
      check_stream "original after copy" ~n:1_000 r o;
      (* The copy starts where the original stood and is not advanced by it. *)
      check_stream "copy" ~n:2_000 rc oc;
      let rs = Rng.split r and os = Ref_rng.split o in
      check_stream "split child" ~n:10_000 rs os;
      check_stream "parent after split" ~n:10_000 r o)
    oracle_seeds

let test_rng_draws_do_not_allocate () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create 7L in
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Rng.int r 1000))
    done;
    let words = Gc.minor_words () -. w0 in
    if words >= float_of_int n then
      Alcotest.failf "%d draws of Rng.int allocated %.0f words" n words
  end

(* ------------------------------ Stats ------------------------------ *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])
let test_stats_mean_empty () = check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_variance () =
  check_float "sample variance" (35.0 /. 12.0) (Stats.variance [| 1.0; 2.0; 3.0; 5.0 |])

let test_stats_variance_small () =
  check_float "variance of singleton" 0.0 (Stats.variance [| 42.0 |])

let test_stats_stdev () = check_float "stdev" 2.0 (Stats.stdev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] *. sqrt (7.0 /. 8.0))

let test_stats_median_odd () = check_float "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_median_even () =
  check_float "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p25" 25.0 (Stats.percentile xs 25.0)

let test_stats_percentile_interpolates () =
  check_float "interpolated" 1.5 (Stats.percentile [| 1.0; 2.0 |] 50.0)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 50.0))

let test_stats_regression () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 7.0)) in
  let slope, intercept = Stats.linear_regression pts in
  check_float "slope" 3.0 slope;
  check_float "intercept" 7.0 intercept

let test_stats_regression_flat () =
  let slope, intercept = Stats.linear_regression [| (1.0, 5.0); (1.0, 5.0) |] in
  check_float "flat slope" 0.0 slope;
  check_float "flat intercept" 5.0 intercept

let test_stats_online_matches_batch () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i)) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check int) "count" 1000 (Stats.Online.count o);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean xs) (Stats.Online.mean o);
  Alcotest.(check (float 1e-9)) "variance" (Stats.variance xs) (Stats.Online.variance o)

let test_stats_summary () =
  let s = Stats.summarize [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "median" 2.5 s.Stats.median

(* ------------------------------ Table ------------------------------ *)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long-name"; "23" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s 'n' <> None);
  (* All lines equal width. *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only-one" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_no_columns () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns") (fun () ->
      ignore (Table.create []))

let test_table_alignment () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "l"; "r" ] in
  Table.add_row t [ "ab"; "1" ];
  Table.add_row t [ "c"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "right column right-aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l > 3 && String.index_opt l '1' <> None) lines)

(* ----------------------------- Hexdump ----------------------------- *)

let test_hex_roundtrip () =
  let b = Bytes.of_string "\x00\x01\xfe\xff SecModule" in
  Alcotest.(check bytes) "roundtrip" b (Hexdump.of_hex (Hexdump.to_hex b))

let test_hex_known () =
  Alcotest.(check string) "encoding" "00ff10" (Hexdump.to_hex (Bytes.of_string "\x00\xff\x10"))

let test_hex_odd_length () =
  Alcotest.check_raises "odd" (Invalid_argument "Hexdump.of_hex: odd length") (fun () ->
      ignore (Hexdump.of_hex "abc"))

let test_hex_bad_digit () =
  Alcotest.check_raises "bad digit" (Invalid_argument "Hexdump.of_hex: not a hex digit")
    (fun () -> ignore (Hexdump.of_hex "zz"))

let test_hexdump_format () =
  let d = Hexdump.dump (Bytes.of_string "ABCDEFGHIJKLMNOPQRSTUVWX") in
  Alcotest.(check bool) "has offset column" true
    (String.length d >= 8 && String.sub d 0 8 = "00000000");
  Alcotest.(check bool) "has ascii gutter" true (String.contains d '|')

(* --------------------------- properties ---------------------------- *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Bytes.to_string (Hexdump.of_hex (Hexdump.to_hex (Bytes.of_string s))) = s)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0)) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (float_bound_inclusive 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let s = Stats.summarize a in
      s.Stats.min -. 1e-9 <= s.Stats.mean && s.Stats.mean <= s.Stats.max +. 1e-9)

let prop_online_mean =
  QCheck.Test.make ~name:"online mean = batch mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 50.0))
    (fun xs ->
      let o = Stats.Online.create () in
      List.iter (Stats.Online.add o) xs;
      Float.abs (Stats.Online.mean o -. Stats.mean (Array.of_list xs)) < 1e-6)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "seed sensitivity" test_rng_seed_sensitivity;
          tc "zero seed" test_rng_zero_seed;
          tc "int bounds" test_rng_int_bounds;
          tc "int_in bounds" test_rng_int_in;
          tc "unit float range" test_rng_unit_float;
          tc "jitter range" test_rng_jitter_range;
          tc "gaussian moments" test_rng_gaussian_moments;
          tc "shuffle permutes" test_rng_shuffle_permutation;
          tc "split independent" test_rng_split_independent;
          tc "copy" test_rng_copy;
          tc "bytes length" test_rng_bytes;
          tc "oracle stream" test_rng_oracle_stream;
          tc "oracle copy and split" test_rng_oracle_copy_split;
          tc "draws do not allocate" test_rng_draws_do_not_allocate;
        ] );
      ( "stats",
        [
          tc "mean" test_stats_mean;
          tc "mean empty" test_stats_mean_empty;
          tc "variance" test_stats_variance;
          tc "variance singleton" test_stats_variance_small;
          tc "stdev" test_stats_stdev;
          tc "median odd" test_stats_median_odd;
          tc "median even" test_stats_median_even;
          tc "percentiles" test_stats_percentile;
          tc "percentile interpolation" test_stats_percentile_interpolates;
          tc "percentile empty" test_stats_percentile_empty;
          tc "linear regression" test_stats_regression;
          tc "regression degenerate" test_stats_regression_flat;
          tc "online = batch" test_stats_online_matches_batch;
          tc "summary" test_stats_summary;
        ] );
      ( "table",
        [
          tc "render aligned" test_table_render;
          tc "pads short rows" test_table_pads_short_rows;
          tc "rejects long rows" test_table_rejects_long_rows;
          tc "rejects zero columns" test_table_no_columns;
          tc "alignment option" test_table_alignment;
        ] );
      ( "hexdump",
        [
          tc "roundtrip" test_hex_roundtrip;
          tc "known encoding" test_hex_known;
          tc "odd length" test_hex_odd_length;
          tc "bad digit" test_hex_bad_digit;
          tc "dump format" test_hexdump_format;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hex_roundtrip; prop_percentile_monotone; prop_mean_bounded; prop_online_mean ]
      );
    ]
