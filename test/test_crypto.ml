(* Tests for Smod_crypto: FIPS-197 / FIPS 180-4 / RFC 4231 vectors,
   algebraic properties of the GF(2^8) field and the cipher modes, and
   seeded differential checks of the table-driven AES against a
   byte-oriented reference. *)

module Gf = Smod_crypto.Gf256
module Aes = Smod_crypto.Aes
module Sha256 = Smod_crypto.Sha256
module Hmac = Smod_crypto.Hmac
module Hex = Smod_util.Hexdump
module Smof = Smod_modfmt.Smof

let hex = Hex.of_hex
let to_hex = Hex.to_hex

(* ------------------------------ GF(2^8) ---------------------------- *)

let test_gf_xtime () =
  Alcotest.(check int) "xtime 0x57" 0xae (Gf.xtime 0x57);
  Alcotest.(check int) "xtime 0xae" 0x47 (Gf.xtime 0xae);
  Alcotest.(check int) "xtime 0x80 reduces" 0x1b (Gf.xtime 0x80)

let test_gf_mul_fips_example () =
  (* FIPS-197 section 4.2.1: {57} * {13} = {fe} *)
  Alcotest.(check int) "57*13" 0xfe (Gf.mul 0x57 0x13);
  Alcotest.(check int) "57*83" 0xc1 (Gf.mul 0x57 0x83)

let test_gf_identity () =
  for a = 0 to 255 do
    Alcotest.(check int) "a*1 = a" a (Gf.mul a 1)
  done

let test_gf_inverse () =
  for a = 1 to 255 do
    Alcotest.(check int) (Printf.sprintf "a * inv a = 1 (a=%d)" a) 1 (Gf.mul a (Gf.inv a))
  done;
  Alcotest.(check int) "inv 0 = 0 (AES convention)" 0 (Gf.inv 0)

let prop_gf_commutative =
  QCheck.Test.make ~name:"gf mul commutative" ~count:1000
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) -> Gf.mul a b = Gf.mul b a)

let prop_gf_associative =
  QCheck.Test.make ~name:"gf mul associative" ~count:1000
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) -> Gf.mul a (Gf.mul b c) = Gf.mul (Gf.mul a b) c)

let prop_gf_distributive =
  QCheck.Test.make ~name:"gf mul distributes over xor" ~count:1000
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) -> Gf.mul a (b lxor c) = Gf.mul a b lxor Gf.mul a c)

(* ------------------------------- AES ------------------------------- *)

let aes_vector ~key ~plain ~cipher =
  let k = Aes.expand (Bytes.to_string (hex key)) in
  let pt = hex plain in
  let out = Bytes.create 16 in
  Aes.encrypt_block k pt ~src_off:0 out ~dst_off:0;
  Alcotest.(check string) "encrypt" cipher (to_hex out);
  let back = Bytes.create 16 in
  Aes.decrypt_block k out ~src_off:0 back ~dst_off:0;
  Alcotest.(check string) "decrypt" plain (to_hex back)

let test_aes128_fips () =
  (* FIPS-197 Appendix C.1 *)
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"69c4e0d86a7b0430d8cdb78070b4c55a"

let test_aes192_fips () =
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f1011121314151617"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"dda97ca4864cdfe06eaf70a0ec0d7191"

let test_aes256_fips () =
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"8ea2b7ca516745bfeafc49904b496089"

let test_aes128_appendix_b () =
  (* FIPS-197 Appendix B *)
  aes_vector ~key:"2b7e151628aed2a6abf7158809cf4f3c"
    ~plain:"3243f6a8885a308d313198a2e0370734" ~cipher:"3925841d02dc09fbdc118597196a0b32"

let test_aes_key_lengths () =
  Alcotest.(check int) "128" 128 (Aes.key_bits (Aes.expand (String.make 16 'k')));
  Alcotest.(check int) "192" 192 (Aes.key_bits (Aes.expand (String.make 24 'k')));
  Alcotest.(check int) "256" 256 (Aes.key_bits (Aes.expand (String.make 32 'k')));
  Alcotest.(check int) "10 rounds" 10 (Aes.rounds (Aes.expand (String.make 16 'k')));
  Alcotest.(check int) "14 rounds" 14 (Aes.rounds (Aes.expand (String.make 32 'k')))

let test_aes_bad_key () =
  Alcotest.check_raises "bad key length" (Aes.Bad_key_length 7) (fun () ->
      ignore (Aes.expand "short<<"))

let test_sbox_involution () =
  for i = 0 to 255 do
    Alcotest.(check int) "inv_sbox(sbox(x)) = x" i (Aes.inv_sbox (Aes.sbox i))
  done

let test_sbox_known () =
  (* FIPS-197 figure 7 spot checks *)
  Alcotest.(check int) "sbox 0x00" 0x63 (Aes.sbox 0x00);
  Alcotest.(check int) "sbox 0x53" 0xed (Aes.sbox 0x53);
  Alcotest.(check int) "sbox 0xff" 0x16 (Aes.sbox 0xff)

let key16 = Aes.expand "0123456789abcdef"
let iv16 = Bytes.of_string "fedcba9876543210"

let test_ecb_roundtrip () =
  let data =
    Bytes.of_string (String.concat "" (List.init 4 (fun i -> Printf.sprintf "block %06d data." i)))
  in
  let data = Bytes.sub data 0 64 in
  Alcotest.(check bytes) "roundtrip" data
    (Aes.Mode.ecb_decrypt key16 (Aes.Mode.ecb_encrypt key16 data))

let test_ecb_bad_length () =
  Alcotest.check_raises "not multiple of 16" (Aes.Mode.Bad_input_length 10) (fun () ->
      ignore (Aes.Mode.ecb_encrypt key16 (Bytes.create 10)))

let test_cbc_roundtrip () =
  let data = Bytes.init 80 (fun i -> Char.chr (i * 3 land 0xff)) in
  Alcotest.(check bytes) "roundtrip" data
    (Aes.Mode.cbc_decrypt key16 ~iv:iv16 (Aes.Mode.cbc_encrypt key16 ~iv:iv16 data))

let test_cbc_chains () =
  (* Identical plaintext blocks must yield distinct ciphertext blocks. *)
  let data = Bytes.make 32 'A' in
  let ct = Aes.Mode.cbc_encrypt key16 ~iv:iv16 data in
  Alcotest.(check bool) "blocks differ" false
    (Bytes.equal (Bytes.sub ct 0 16) (Bytes.sub ct 16 16))

let test_ecb_leaks_patterns () =
  (* The well-known ECB weakness — and why SecModule text uses CTR. *)
  let data = Bytes.make 32 'A' in
  let ct = Aes.Mode.ecb_encrypt key16 data in
  Alcotest.(check bytes) "identical blocks encrypt identically" (Bytes.sub ct 0 16)
    (Bytes.sub ct 16 16)

let test_ctr_roundtrip_odd_length () =
  let data = Bytes.of_string "seventeen bytes!!" in
  Alcotest.(check int) "odd length preserved" 17 (Bytes.length data);
  let ct = Aes.Mode.ctr_transform key16 ~nonce:iv16 data in
  Alcotest.(check bool) "changed" false (Bytes.equal ct data);
  Alcotest.(check bytes) "self-inverse" data (Aes.Mode.ctr_transform key16 ~nonce:iv16 ct)

let test_ctr_counter_increments () =
  (* Two identical blocks produce different keystream blocks. *)
  let data = Bytes.make 32 '\000' in
  let ks = Aes.Mode.ctr_transform key16 ~nonce:iv16 data in
  Alcotest.(check bool) "keystream blocks differ" false
    (Bytes.equal (Bytes.sub ks 0 16) (Bytes.sub ks 16 16))

let test_ctr_counter_carry () =
  (* A counter ending at 0xff must carry into the next byte. *)
  let nonce = Bytes.cat (Bytes.make 14 '\000') (Bytes.of_string "\x00\xff") in
  let data = Bytes.make 48 '\000' in
  let ks = Aes.Mode.ctr_transform key16 ~nonce data in
  let blocks = List.init 3 (fun i -> Bytes.sub ks (i * 16) 16) in
  let distinct = List.sort_uniq compare (List.map Bytes.to_string blocks) in
  Alcotest.(check int) "three distinct keystream blocks" 3 (List.length distinct)

let test_pkcs7_roundtrip () =
  List.iter
    (fun n ->
      let data = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let padded = Aes.Mode.pkcs7_pad data in
      Alcotest.(check int) "padded multiple of 16" 0 (Bytes.length padded mod 16);
      Alcotest.(check bool) "pad grows" true (Bytes.length padded > n);
      Alcotest.(check bytes) "roundtrip" data (Aes.Mode.pkcs7_unpad padded))
    [ 0; 1; 15; 16; 17; 31; 32; 100 ]

let test_pkcs7_bad () =
  Alcotest.check_raises "empty" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad Bytes.empty));
  Alcotest.check_raises "bad trailer" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad (Bytes.make 16 '\x00')));
  let tampered = Aes.Mode.pkcs7_pad (Bytes.make 5 'x') in
  Bytes.set tampered 10 '\x07';
  Alcotest.check_raises "inconsistent pad bytes" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad tampered))

let prop_ctr_self_inverse =
  QCheck.Test.make ~name:"ctr self-inverse" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let data = Bytes.of_string s in
      Bytes.equal data
        (Aes.Mode.ctr_transform key16 ~nonce:iv16 (Aes.Mode.ctr_transform key16 ~nonce:iv16 data)))

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"cbc roundtrip (padded)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let data = Aes.Mode.pkcs7_pad (Bytes.of_string s) in
      Bytes.equal data
        (Aes.Mode.cbc_decrypt key16 ~iv:iv16 (Aes.Mode.cbc_encrypt key16 ~iv:iv16 data)))

(* ------------------------------ SHA-256 ---------------------------- *)

let sha_hex s = Sha256.hex_digest_string s

let test_sha256_empty () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (sha_hex "")

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (sha_hex "abc")

let test_sha256_448bits () =
  Alcotest.(check string) "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  let whole = sha_hex "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.update_string ctx "the quick brown fox ";
  Sha256.update_string ctx "jumps over ";
  Sha256.update_string ctx "the lazy dog";
  Alcotest.(check string) "incremental = one-shot" whole (to_hex (Sha256.finalize ctx))

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries, fed one
     byte at a time. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update_string ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-at-a-time" n)
        (sha_hex s)
        (to_hex (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

let test_sha256_digest_words () =
  (* The message schedule lives in the context: a 4 KiB digest (65
     blocks) allocates the context and the padding, not one schedule per
     block (about 4,600 words when each block made its own). *)
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  ignore (Sha256.digest data);
  let m0 = Gc.minor_words () in
  ignore (Sha256.digest data);
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words, at most 200" words)
    true (words <= 200.)

let test_sha256_two_domains () =
  (* Each context holds its own schedule: two domains hashing at once get
     exactly the sequential digests. *)
  let inputs =
    List.init 8 (fun i -> Bytes.init (700 + (613 * i)) (fun j -> Char.chr ((i * j) land 0xff)))
  in
  let run () = List.map Sha256.digest inputs in
  let sequential = run () in
  let worker () =
    List.for_all (fun _ -> List.for_all2 Bytes.equal sequential (run ())) (List.init 40 Fun.id)
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Alcotest.(check bool) "domain 1 matches" true (Domain.join d1);
  Alcotest.(check bool) "domain 2 matches" true (Domain.join d2)

(* ------------------------ reference cipher -------------------------- *)

(* The FIPS-197 forward cipher step by step on a byte state: its own
   S-box and key schedule, then SubBytes, ShiftRows, MixColumns over
   Gf256.mul and AddRoundKey.  Slow, and sharing no tables with Aes. *)
module Ref = struct
  let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xff

  let sbox =
    Array.init 256 (fun i ->
        let x = Gf.inv i in
        x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63)

  let sub_word w =
    (sbox.((w lsr 24) land 0xff) lsl 24)
    lor (sbox.((w lsr 16) land 0xff) lsl 16)
    lor (sbox.((w lsr 8) land 0xff) lsl 8)
    lor sbox.(w land 0xff)

  let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xFFFFFFFF

  (* Round keys as 4 (nr + 1) big-endian words (FIPS-197 §5.2). *)
  let expand raw =
    let nk = String.length raw / 4 in
    let nr = nk + 6 in
    let w = Array.make (4 * (nr + 1)) 0 in
    for i = 0 to nk - 1 do
      for j = 0 to 3 do
        w.(i) <- (w.(i) lsl 8) lor Char.code raw.[(4 * i) + j]
      done
    done;
    let rcon = ref 1 in
    for i = nk to Array.length w - 1 do
      let temp = w.(i - 1) in
      let temp =
        if i mod nk = 0 then begin
          let t = sub_word (rot_word temp) lxor (!rcon lsl 24) in
          rcon := Gf.xtime !rcon;
          t
        end
        else if nk > 6 && i mod nk = 4 then sub_word temp
        else temp
      in
      w.(i) <- w.(i - nk) lxor temp
    done;
    (w, nr)

  (* state.(r + 4c) is byte r of column c. *)
  let add_round_key state w round =
    for c = 0 to 3 do
      for r = 0 to 3 do
        let k = (w.((4 * round) + c) lsr (24 - (8 * r))) land 0xff in
        state.(r + (4 * c)) <- state.(r + (4 * c)) lxor k
      done
    done

  let sub_bytes state = Array.iteri (fun i b -> state.(i) <- sbox.(b)) state

  (* Row r rotates left by r. *)
  let shift_rows state =
    let tmp = Array.copy state in
    for r = 1 to 3 do
      for c = 0 to 3 do
        state.(r + (4 * c)) <- tmp.(r + (4 * ((c + r) mod 4)))
      done
    done

  let mix_columns state =
    let m = Gf.mul in
    for c = 0 to 3 do
      let b = 4 * c in
      let s0 = state.(b) and s1 = state.(b + 1) and s2 = state.(b + 2) and s3 = state.(b + 3) in
      state.(b) <- m 2 s0 lxor m 3 s1 lxor s2 lxor s3;
      state.(b + 1) <- s0 lxor m 2 s1 lxor m 3 s2 lxor s3;
      state.(b + 2) <- s0 lxor s1 lxor m 2 s2 lxor m 3 s3;
      state.(b + 3) <- m 3 s0 lxor s1 lxor s2 lxor m 2 s3
    done

  let encrypt_block (w, nr) block =
    let state = Array.init 16 (fun i -> Char.code (Bytes.get block i)) in
    add_round_key state w 0;
    for round = 1 to nr - 1 do
      sub_bytes state;
      shift_rows state;
      mix_columns state;
      add_round_key state w round
    done;
    sub_bytes state;
    shift_rows state;
    add_round_key state w nr;
    Bytes.init 16 (fun i -> Char.chr state.(i))

  (* CTR: keystream block j is the cipher of nonce + j, a big-endian
     128-bit counter that wraps. *)
  let ctr key ~nonce data =
    let counter = Bytes.copy nonce and out = Bytes.copy data in
    let rec bump i =
      if i >= 0 then begin
        let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
        Bytes.set counter i (Char.chr v);
        if v = 0 then bump (i - 1)
      end
    in
    let n = Bytes.length data in
    for blk = 0 to ((n + 15) / 16) - 1 do
      let ks = encrypt_block key counter in
      for j = 0 to min 16 (n - (16 * blk)) - 1 do
        let i = (16 * blk) + j in
        Bytes.set out i (Char.chr (Char.code (Bytes.get out i) lxor Char.code (Bytes.get ks j)))
      done;
      bump 15
    done;
    out
end

let test_ref_fips () =
  (* The reference itself reproduces FIPS-197 Appendix C. *)
  List.iter
    (fun (key, cipher) ->
      let k = Ref.expand (Bytes.to_string (hex key)) in
      Alcotest.(check string) key cipher
        (to_hex (Ref.encrypt_block k (hex "00112233445566778899aabbccddeeff"))))
    [
      ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a");
      ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191");
      ( "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089" );
    ]

(* ----------------------- differential checks ------------------------ *)

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))
let key_sizes = [| 16; 24; 32 |]

let test_blocks_match_reference () =
  let st = Random.State.make [| 197 |] in
  for i = 0 to 1999 do
    let raw = Bytes.to_string (random_bytes st key_sizes.(i mod 3)) in
    let pt = random_bytes st 16 in
    let key = Aes.expand raw in
    let expected = Ref.encrypt_block (Ref.expand raw) pt in
    let ct = Bytes.create 16 in
    Aes.encrypt_block key pt ~src_off:0 ct ~dst_off:0;
    let case = Printf.sprintf "case %d (%d-bit key %s, block %s)" i (8 * String.length raw) in
    let case = case (Hex.to_hex (Bytes.of_string raw)) (to_hex pt) in
    Alcotest.(check string) (case ^ " encrypt") (to_hex expected) (to_hex ct);
    (* Decrypt in place: src and dst may alias. *)
    Aes.decrypt_block key ct ~src_off:0 ct ~dst_off:0;
    Alcotest.(check string) (case ^ " decrypt") (to_hex pt) (to_hex ct)
  done

let test_ctr_matches_reference () =
  let st = Random.State.make [| 38 |] in
  let nonces =
    [
      ("random", random_bytes st 16);
      ("ends in 8 x ff", Bytes.cat (random_bytes st 8) (Bytes.make 8 '\xff'));
      ("all ff (wraps)", Bytes.make 16 '\xff');
    ]
  in
  let lengths =
    List.init 81 Fun.id @ List.init 30 (fun _ -> 81 + Random.State.int st 4919) @ [ 4096; 5000 ]
  in
  List.iteri
    (fun i n ->
      let raw = Bytes.to_string (random_bytes st key_sizes.(i mod 3)) in
      let data = random_bytes st n in
      List.iter
        (fun (what, nonce) ->
          Alcotest.(check string)
            (Printf.sprintf "length %d, nonce %s" n what)
            (to_hex (Ref.ctr (Ref.expand raw) ~nonce data))
            (to_hex (Aes.Mode.ctr_transform (Aes.expand raw) ~nonce data)))
        nonces)
    lengths

(* Feed [data] to one context in chunks cut at random points. *)
let digest_in_pieces st data =
  let ctx = Sha256.init () in
  let n = Bytes.length data in
  let pos = ref 0 in
  while !pos < n do
    let take = min (n - !pos) (Random.State.int st 80) in
    Sha256.update ctx (Bytes.sub data !pos take);
    pos := !pos + take
  done;
  Sha256.finalize ctx

let test_sha256_split_invariance () =
  let st = Random.State.make [| 180 |] in
  for n = 0 to 200 do
    let data = random_bytes st n in
    let whole = to_hex (Sha256.digest data) in
    for split = 1 to 5 do
      Alcotest.(check string)
        (Printf.sprintf "length %d, split %d" n split)
        whole
        (to_hex (digest_in_pieces st data))
    done
  done;
  (* The FIPS 180-4 long-message vector, fed in random pieces of up to
     tens of thousands of bytes. *)
  let ctx = Sha256.init () in
  let left = ref 1_000_000 in
  while !left > 0 do
    let take = min !left (Random.State.int st 40_000) in
    Sha256.update_string ctx (String.make take 'a');
    left := !left - take
  done;
  Alcotest.(check string) "million a in pieces"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (to_hex (Sha256.finalize ctx))

(* Module text encryption leaves relocation sites in the clear and is the
   reference keystream everywhere else; decryption restores the image and
   passes its digest check. *)
let smof_roundtrip image =
  let key = "kernel-held key!" and nonce = Bytes.of_string "per-module nonce" in
  let enc = Smof.encrypt_text image ~key ~nonce in
  let keystream = Ref.ctr (Ref.expand key) ~nonce image.Smof.text in
  let in_reloc i =
    List.exists
      (fun r -> i >= r.Smof.rel_offset && i < r.Smof.rel_offset + r.Smof.rel_size)
      image.Smof.relocs
  in
  Bytes.iteri
    (fun i c ->
      let expected = Bytes.get (if in_reloc i then image.Smof.text else keystream) i in
      if c <> expected then Alcotest.failf "%s: ciphertext byte %d" image.Smof.mod_name i)
    enc.Smof.text;
  let dec = Smof.decrypt_text enc ~key ~nonce in
  Alcotest.(check bool) "decrypted" false dec.Smof.encrypted;
  Alcotest.(check string) (image.Smof.mod_name ^ " text restored") (to_hex image.Smof.text)
    (to_hex dec.Smof.text)

let test_smof_roundtrip_seclibc () = smof_roundtrip (Smod_libc.Seclibc.image ())

let test_smof_roundtrip_128_functions () =
  (* Every fourth function calls its predecessor, so the text carries
     relocation holes. *)
  let image =
    Secmodule.Toolchain.assemble_module ~name:"wide" ~version:1
      (List.init 128 (fun k ->
           let call = if k mod 4 = 3 then Printf.sprintf "call f%d\n" (k - 1) else "" in
           (Printf.sprintf "f%d" k, Printf.sprintf "loadarg 0\n%spush %d\nadd\nret\n" call k)))
  in
  Alcotest.(check int) "functions" 128 (List.length (Smof.function_symbols image));
  Alcotest.(check bool) "has relocations" true (image.Smof.relocs <> []);
  smof_roundtrip image

let test_ctr_two_domains () =
  (* The cipher's tables are shared, read-only state: two domains running
     CTR at once get exactly the sequential output. *)
  let key = Aes.expand "a 32-byte key for the domain run" in
  let inputs =
    List.init 8 (fun i -> Bytes.init (1000 + (517 * i)) (fun j -> Char.chr ((i + j) land 0xff)))
  in
  let run () = List.map (fun d -> Aes.Mode.ctr_transform key ~nonce:iv16 d) inputs in
  let sequential = run () in
  let worker () =
    List.for_all (fun _ -> List.for_all2 Bytes.equal sequential (run ())) (List.init 40 Fun.id)
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Alcotest.(check bool) "domain 1 matches" true (Domain.join d1);
  Alcotest.(check bool) "domain 2 matches" true (Domain.join d2)

(* ------------------------------- HMAC ------------------------------ *)

let test_hmac_rfc4231_case1 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_rfc4231_case6_long_key () =
  Alcotest.(check string) "case 6 (key > block size)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"secret" "message" in
  Alcotest.(check bool) "valid" true (Hmac.verify ~key:"secret" ~tag "message");
  Alcotest.(check bool) "wrong message" false (Hmac.verify ~key:"secret" ~tag "messagf");
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"Secret" ~tag "message");
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify ~key:"secret" ~tag:(Bytes.sub tag 0 16) "message")

let prop_hmac_distinct_keys =
  QCheck.Test.make ~name:"distinct keys give distinct tags" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(1 -- 40)))
    (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      Hmac.mac_hex ~key:k1 "fixed message" <> Hmac.mac_hex ~key:k2 "fixed message")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "crypto"
    [
      ( "gf256",
        [
          tc "xtime" test_gf_xtime;
          tc "FIPS mul examples" test_gf_mul_fips_example;
          tc "multiplicative identity" test_gf_identity;
          tc "inverses" test_gf_inverse;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_gf_commutative; prop_gf_associative; prop_gf_distributive ] );
      ( "aes",
        [
          tc "FIPS-197 C.1 (128)" test_aes128_fips;
          tc "FIPS-197 C.2 (192)" test_aes192_fips;
          tc "FIPS-197 C.3 (256)" test_aes256_fips;
          tc "FIPS-197 B" test_aes128_appendix_b;
          tc "key lengths/rounds" test_aes_key_lengths;
          tc "bad key length" test_aes_bad_key;
          tc "sbox involution" test_sbox_involution;
          tc "sbox known values" test_sbox_known;
        ] );
      ( "modes",
        [
          tc "ecb roundtrip" test_ecb_roundtrip;
          tc "ecb bad length" test_ecb_bad_length;
          tc "ecb leaks patterns" test_ecb_leaks_patterns;
          tc "cbc roundtrip" test_cbc_roundtrip;
          tc "cbc chains" test_cbc_chains;
          tc "ctr roundtrip odd len" test_ctr_roundtrip_odd_length;
          tc "ctr keystream advances" test_ctr_counter_increments;
          tc "ctr counter carry" test_ctr_counter_carry;
          tc "pkcs7 roundtrip" test_pkcs7_roundtrip;
          tc "pkcs7 malformed" test_pkcs7_bad;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_ctr_self_inverse; prop_cbc_roundtrip ] );
      ( "sha256",
        [
          tc "empty" test_sha256_empty;
          tc "abc" test_sha256_abc;
          tc "two-block" test_sha256_448bits;
          tc "million a" test_sha256_million_a;
          tc "incremental" test_sha256_incremental;
          tc "padding boundaries" test_sha256_block_boundaries;
          tc "4 KiB digest words" test_sha256_digest_words;
          tc "digests on two domains" test_sha256_two_domains;
        ] );
      ( "oracle",
        [
          tc "reference reproduces FIPS-197" test_ref_fips;
          tc "2000 blocks vs reference" test_blocks_match_reference;
          tc "ctr lengths 0-5000 vs reference" test_ctr_matches_reference;
          tc "sha256 random split points" test_sha256_split_invariance;
          tc "smof round trip: seclibc" test_smof_roundtrip_seclibc;
          tc "smof round trip: 128 functions" test_smof_roundtrip_128_functions;
          tc "ctr on two domains" test_ctr_two_domains;
        ] );
      ( "hmac",
        [
          tc "rfc4231 case 1" test_hmac_rfc4231_case1;
          tc "rfc4231 case 2" test_hmac_rfc4231_case2;
          tc "rfc4231 case 3" test_hmac_rfc4231_case3;
          tc "rfc4231 case 6" test_hmac_rfc4231_case6_long_key;
          tc "verify" test_hmac_verify;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_hmac_distinct_keys ] );
    ]
