(* Words are native ints.  Every word stored in the state or the message
   schedule is masked to 32 bits; values computed in between may carry
   junk above bit 31, which cannot reach the low 32 bits of a sum and is
   dropped by the mask at the store. *)

let mask32 = 0xFFFFFFFF

(* [x] must be a stored (masked) word; the result has junk above bit 31. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;
  w : int array;  (* the message schedule, reused by every block of this context *)
  buf : Bytes.t;  (* one 64-byte block being assembled *)
  mutable buf_len : int;
  mutable total : int;  (* total message bytes *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    finalized = false;
  }

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask32
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
  let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and h = ref ctx.h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !h + s1 + ch + k.(t) + w.(t) in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask32
  done;
  let hs = ctx.h in
  hs.(0) <- (hs.(0) + !a) land mask32;
  hs.(1) <- (hs.(1) + !b) land mask32;
  hs.(2) <- (hs.(2) + !c) land mask32;
  hs.(3) <- (hs.(3) + !d) land mask32;
  hs.(4) <- (hs.(4) + !e) land mask32;
  hs.(5) <- (hs.(5) + !f) land mask32;
  hs.(6) <- (hs.(6) + !g) land mask32;
  hs.(7) <- (hs.(7) + !h) land mask32

let update ctx data =
  assert (not ctx.finalized);
  let n = Bytes.length data in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while n - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit data !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

(* [update] only reads its input, so the string need not be copied. *)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  assert (not ctx.finalized);
  ctx.finalized <- true;
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  Bytes.set_int64_be tail pad_len (Int64.of_int (ctx.total * 8));
  (* Feed the padding through the normal path, without recounting length. *)
  let saved_total = ctx.total in
  ctx.finalized <- false;
  update ctx tail;
  ctx.finalized <- true;
  ctx.total <- saved_total;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  Array.iteri (fun i w -> Bytes.set_int32_be out (4 * i) (Int32.of_int w)) ctx.h;
  out

let digest data =
  let ctx = init () in
  update ctx data;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex_digest_string s = Smod_util.Hexdump.to_hex (digest_string s)
