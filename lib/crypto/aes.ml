exception Bad_key_length of int

(* ------------------------------------------------------------------ *)
(* S-box construction: byte -> affine(inverse(byte)).                  *)
(* ------------------------------------------------------------------ *)

let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xff

let affine x = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63

let sbox_table =
  Array.init 256 (fun i -> affine (Gf256.inv i))

let inv_sbox_table =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox_table;
  t

let sbox i = sbox_table.(i land 0xff)
let inv_sbox i = inv_sbox_table.(i land 0xff)

(* ------------------------------------------------------------------ *)
(* Round tables                                                        *)
(* ------------------------------------------------------------------ *)

(* A column is a 32-bit word with row 0 in the high byte.  te0.(x) is the
   MixColumns image of a column holding S(x) in row 0 and zeros
   elsewhere; te1..te3 are its byte rotations, for S(x) in rows 1..3.
   td0..td3 do the same for InvMixColumns over InvS.  A round of either
   direction is then 16 lookups and 16 xors.  The tables are built here,
   once, and never written, so any number of domains may run the cipher
   at once. *)

let mask32 = 0xFFFFFFFF
let[@inline] column b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
let rotr8 w = ((w lsr 8) lor (w lsl 24)) land mask32

let rotations t0 =
  let t1 = Array.map rotr8 t0 in
  let t2 = Array.map rotr8 t1 in
  (t0, t1, t2, Array.map rotr8 t2)

let te0, te1, te2, te3 =
  rotations
    (Array.map (fun s -> column (Gf256.mul 2 s) s s (Gf256.mul 3 s)) sbox_table)

let td0, td1, td2, td3 =
  let m = Gf256.mul in
  rotations (Array.map (fun s -> column (m 14 s) (m 9 s) (m 13 s) (m 11 s)) inv_sbox_table)

(* ------------------------------------------------------------------ *)
(* Key schedule.  Round keys are stored as a flat array of 32-bit      *)
(* words (big-endian byte order within a word, as in FIPS-197).        *)
(* ------------------------------------------------------------------ *)

(* [dw] holds the round keys of the equivalent inverse cipher (FIPS-197
   §5.3.5): InvMixColumns applied to every round key but the first and
   the last. *)
type key = { w : int array; dw : int array; nr : int; bits : int }

let sub_word w =
  column
    sbox_table.(w lsr 24)
    sbox_table.((w lsr 16) land 0xff)
    sbox_table.((w lsr 8) land 0xff)
    sbox_table.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land mask32

(* td*.(S(b)) is the InvMixColumns image of b, because td* looks up InvS. *)
let inv_mix_column w =
  td0.(sbox_table.(w lsr 24))
  lxor td1.(sbox_table.((w lsr 16) land 0xff))
  lxor td2.(sbox_table.((w lsr 8) land 0xff))
  lxor td3.(sbox_table.(w land 0xff))

let rcon =
  let t = Array.make 15 0 in
  let v = ref 1 in
  for i = 1 to 14 do
    t.(i) <- !v lsl 24;
    v := Gf256.xtime !v
  done;
  t

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | n -> raise (Bad_key_length n)
  in
  let nr = nk + 6 in
  let nwords = 4 * (nr + 1) in
  let w = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    w.(i) <- Int32.to_int (String.get_int32_be raw (4 * i)) land mask32
  done;
  for i = nk to nwords - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor rcon.(i / nk)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  let dw = Array.mapi (fun i x -> if i < 4 || i >= 4 * nr then x else inv_mix_column x) w in
  { w; dw; nr; bits = nk * 32 }

let key_bits k = k.bits
let rounds k = k.nr

(* ------------------------------------------------------------------ *)
(* Block transforms.  The state is four column words, kept in native   *)
(* ints: nothing is allocated per block or per round.                  *)
(* ------------------------------------------------------------------ *)

let get_word b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)

(* Output column c of a middle round takes row r from input column c + r
   (ShiftRows) or c - r (InvShiftRows); the last round looks up the plain
   S-box instead of the round tables. *)
let[@inline] round t0 t1 t2 t3 a b c d =
  t0.(a lsr 24)
  lxor t1.((b lsr 16) land 0xff)
  lxor t2.((c lsr 8) land 0xff)
  lxor t3.(d land 0xff)

let[@inline] last_round sb a b c d =
  column sb.(a lsr 24) sb.((b lsr 16) land 0xff) sb.((c lsr 8) land 0xff) sb.(d land 0xff)

let encrypt_block key src ~src_off dst ~dst_off =
  let rk = key.w in
  let s0 = ref (get_word src src_off lxor rk.(0)) in
  let s1 = ref (get_word src (src_off + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (src_off + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (src_off + 12) lxor rk.(3)) in
  for r = 1 to key.nr - 1 do
    let k = 4 * r and a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := round te0 te1 te2 te3 a b c d lxor rk.(k);
    s1 := round te0 te1 te2 te3 b c d a lxor rk.(k + 1);
    s2 := round te0 te1 te2 te3 c d a b lxor rk.(k + 2);
    s3 := round te0 te1 te2 te3 d a b c lxor rk.(k + 3)
  done;
  let k = 4 * key.nr and a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  set_word dst dst_off (last_round sbox_table a b c d lxor rk.(k));
  set_word dst (dst_off + 4) (last_round sbox_table b c d a lxor rk.(k + 1));
  set_word dst (dst_off + 8) (last_round sbox_table c d a b lxor rk.(k + 2));
  set_word dst (dst_off + 12) (last_round sbox_table d a b c lxor rk.(k + 3))

let decrypt_block key src ~src_off dst ~dst_off =
  let rk = key.dw and k = 4 * key.nr in
  let s0 = ref (get_word src src_off lxor rk.(k)) in
  let s1 = ref (get_word src (src_off + 4) lxor rk.(k + 1)) in
  let s2 = ref (get_word src (src_off + 8) lxor rk.(k + 2)) in
  let s3 = ref (get_word src (src_off + 12) lxor rk.(k + 3)) in
  for r = key.nr - 1 downto 1 do
    let k = 4 * r and a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := round td0 td1 td2 td3 a d c b lxor rk.(k);
    s1 := round td0 td1 td2 td3 b a d c lxor rk.(k + 1);
    s2 := round td0 td1 td2 td3 c b a d lxor rk.(k + 2);
    s3 := round td0 td1 td2 td3 d c b a lxor rk.(k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  set_word dst dst_off (last_round inv_sbox_table a d c b lxor rk.(0));
  set_word dst (dst_off + 4) (last_round inv_sbox_table b a d c lxor rk.(1));
  set_word dst (dst_off + 8) (last_round inv_sbox_table c b a d lxor rk.(2));
  set_word dst (dst_off + 12) (last_round inv_sbox_table d c b a lxor rk.(3))

module Mode = struct
  exception Bad_input_length of int
  exception Bad_padding

  let block = 16

  let check_blocked data =
    let n = Bytes.length data in
    if n mod block <> 0 then raise (Bad_input_length n)

  let check_iv iv = if Bytes.length iv <> block then raise (Bad_input_length (Bytes.length iv))

  let ecb_encrypt key data =
    check_blocked data;
    let out = Bytes.create (Bytes.length data) in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      encrypt_block key data ~src_off:(i * block) out ~dst_off:(i * block)
    done;
    out

  let ecb_decrypt key data =
    check_blocked data;
    let out = Bytes.create (Bytes.length data) in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      decrypt_block key data ~src_off:(i * block) out ~dst_off:(i * block)
    done;
    out

  (* dst[dst_off, dst_off + n) ^= src[src_off, src_off + n), a word at a
     time. *)
  let xor_into dst dst_off src src_off n =
    let i = ref 0 in
    while !i + 8 <= n do
      let d = dst_off + !i in
      Bytes.set_int64_ne dst d
        (Int64.logxor (Bytes.get_int64_ne dst d) (Bytes.get_int64_ne src (src_off + !i)));
      i := !i + 8
    done;
    for j = !i to n - 1 do
      Bytes.set_uint8 dst (dst_off + j)
        (Bytes.get_uint8 dst (dst_off + j) lxor Bytes.get_uint8 src (src_off + j))
    done

  let cbc_encrypt key ~iv data =
    check_blocked data;
    check_iv iv;
    let out = Bytes.create (Bytes.length data) in
    let prev = Bytes.copy iv in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      let off = i * block in
      let tmp = Bytes.sub data off block in
      xor_into tmp 0 prev 0 block;
      encrypt_block key tmp ~src_off:0 out ~dst_off:off;
      Bytes.blit out off prev 0 block
    done;
    out

  let cbc_decrypt key ~iv data =
    check_blocked data;
    check_iv iv;
    let out = Bytes.create (Bytes.length data) in
    let prev = Bytes.copy iv in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      let off = i * block in
      decrypt_block key data ~src_off:off out ~dst_off:off;
      xor_into out off prev 0 block;
      Bytes.blit data off prev 0 block
    done;
    out

  (* Big-endian increment over the whole 16-byte counter block. *)
  let rec incr_counter counter i =
    if i >= 0 then begin
      let v = (Bytes.get_uint8 counter i + 1) land 0xff in
      Bytes.set_uint8 counter i v;
      if v = 0 then incr_counter counter (i - 1)
    end

  let ctr_transform key ~nonce data =
    check_iv nonce;
    let n = Bytes.length data in
    let out = Bytes.copy data in
    let counter = Bytes.copy nonce in
    let keystream = Bytes.create block in
    let off = ref 0 in
    while !off < n do
      encrypt_block key counter ~src_off:0 keystream ~dst_off:0;
      let chunk = min block (n - !off) in
      xor_into out !off keystream 0 chunk;
      incr_counter counter (block - 1);
      off := !off + chunk
    done;
    out

  let pkcs7_pad data =
    let n = Bytes.length data in
    let pad = block - (n mod block) in
    let out = Bytes.create (n + pad) in
    Bytes.blit data 0 out 0 n;
    Bytes.fill out n pad (Char.chr pad);
    out

  let pkcs7_unpad data =
    let n = Bytes.length data in
    if n = 0 || n mod block <> 0 then raise Bad_padding;
    let pad = Char.code (Bytes.get data (n - 1)) in
    if pad = 0 || pad > block then raise Bad_padding;
    for i = n - pad to n - 1 do
      if Char.code (Bytes.get data i) <> pad then raise Bad_padding
    done;
    Bytes.sub data 0 (n - pad)
end
