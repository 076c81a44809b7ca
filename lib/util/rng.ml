(* The four xoshiro256** state words, held unboxed in one 32-byte buffer
   so that advancing the state allocates nothing. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (8 * i)
let set t i v = Bytes.set_int64_le t (8 * i) v

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: used only to expand the user seed into four state words. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let create seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro256** must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

(* Inlined into the draws below, so their int64 intermediates stay
   unboxed too; only a result returned across a call is boxed. *)
let next_int64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 1 (Int64.logxor s1 s2);
  set t 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 3 (rotl s3 45);
  result
[@@inline]

let bits64 = next_int64

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let unit_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)
[@@inline]

let float t bound = unit_float t *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u = unit_float t in
    if u <= 1e-12 then draw () else u
  in
  let u1 = draw () in
  let u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let jitter t p = 1.0 -. p +. (unit_float t *. 2.0 *. p)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = create (next_int64 t)
