(** AES (FIPS-197) implemented from scratch.

    The S-box is derived at module initialisation from the GF(2^8) inverse
    plus the affine transform rather than pasted in as a table; test vectors
    from FIPS-197 Appendix B/C verify the construction.  Rounds are
    word-oriented: four 256-entry tables per direction, derived from the
    S-box at module initialisation and never written, so any number of
    domains may use the cipher at once.  Table lookups are indexed by
    key-dependent bytes, so the cipher is not constant-time.

    SecModule uses this cipher to protect module text segments: every text
    byte outside a relocation site is encrypted with a key that lives only
    in (simulated) kernel space (paper §4.1, §4.4). *)

type key
(** Expanded key schedule. *)

exception Bad_key_length of int

val expand : string -> key
(** [expand raw] accepts a 16-, 24- or 32-byte raw key. *)

val key_bits : key -> int
(** 128, 192 or 256. *)

val rounds : key -> int
(** 10, 12 or 14. *)

val encrypt_block : key -> bytes -> src_off:int -> bytes -> dst_off:int -> unit
(** Encrypt one 16-byte block from [src] at [src_off] into [dst] at
    [dst_off].  [src] and [dst] may alias. *)

val decrypt_block : key -> bytes -> src_off:int -> bytes -> dst_off:int -> unit

val sbox : int -> int
(** The forward S-box, exposed for tests. *)

val inv_sbox : int -> int

(** Block-cipher modes of operation.  CBC and CTR take a 16-byte IV/nonce. *)
module Mode : sig
  exception Bad_input_length of int
  exception Bad_padding

  val ecb_encrypt : key -> bytes -> bytes
  (** Input length must be a multiple of 16. *)

  val ecb_decrypt : key -> bytes -> bytes

  val cbc_encrypt : key -> iv:bytes -> bytes -> bytes
  val cbc_decrypt : key -> iv:bytes -> bytes -> bytes

  val ctr_transform : key -> nonce:bytes -> bytes -> bytes
  (** CTR mode keystream XOR; works for any input length and is its own
      inverse.  This is the mode SecModule uses for text segments because it
      preserves length and allows leaving relocation holes in place. *)

  val pkcs7_pad : bytes -> bytes
  (** Pad to a 16-byte multiple (always appends at least one byte). *)

  val pkcs7_unpad : bytes -> bytes
  (** Raises [Bad_padding] if the trailer is malformed. *)
end
