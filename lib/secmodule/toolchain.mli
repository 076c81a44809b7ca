(** The SecModule tool chain (§4.2).

    The paper builds its stub list by scanning
    [objdump -t /usr/lib/libc.a | grep ' F '] and generates one assembly
    client stub per function.  {!scan_functions} reproduces that pipeline
    over SMOF images, {!stub_table} assigns the funcIDs, and
    {!stub_source} emits the (illustrative) per-function stub assembly.
    Registration has the paper's two halves (§4.1): the vendor's
    {!seal} encrypts the text once, and each kernel's {!register} installs
    the sealed module with its kernel-held key.  The host also links the
    sealed text once, in {!seal}, and every entry registered from the
    seal maps that one linked text.  {!package} does both. *)

val scan_functions : Smod_modfmt.Smof.t -> string list
(** Names extracted from the [objdump -t] listing's [' F '] lines. *)

val stub_table : Smod_modfmt.Smof.t -> (string * int) list
(** (function name, funcID) in text order — must agree with the kernel's
    numbering. *)

val stub_source : Smod_modfmt.Smof.t -> string
(** Autogenerated client-stub assembly listing (one stub per function,
    mirroring Figure 5's [smod_stub_call]). *)

val assemble_module :
  name:string -> version:int -> (string * string) list -> Smod_modfmt.Smof.t
(** Build a whole module from [(function name, module-VM assembly)] pairs.
    Cross-function [call name] references become Abs32 relocations that
    the kernel patches when it maps the module into a handle — which is
    why encryption must leave those sites plaintext (§4.1).  Raises
    {!Smod_modfmt.Smof.Malformed} if a call references a function that is
    not part of the module, and {!Smod_svm.Asm.Error} on assembly
    problems. *)

type sealed
(** A module as the vendor ships it: the image, with its text encrypted
    for [Encrypted] protection, and the key material only a kernel will
    hold, plus the kernel's link of those bytes ({!Registry.link}).
    Immutable, and it exposes no bytes ({!shipped_text} is a copy), so
    one sealed value can be shared by every kernel (world, domain) in a
    process. *)

val seal :
  image:Smod_modfmt.Smof.t ->
  ?protection:Registry.protection ->
  ?key_seed:string ->
  unit ->
  sealed
(** The vendor's half.  With [Encrypted] protection (default:
    [Unmap_only]), derives the AES-128 key and CTR nonce from [key_seed]
    (default: the module name — change it in anything resembling
    production) and encrypts the text with relocation sites preserved;
    with [Unmap_only], holds the plaintext image.  Then links the sealed
    bytes once ({!Registry.link_image}: decryption with the derived key,
    the digest check, relocation), for every kernel that will register
    them; a text that fails its link is sealed without one.  Charges
    nothing and touches no kernel or metric.  [image] must not be mutated
    afterwards. *)

val shipped_text : sealed -> string
(** The text as the vendor ships it, ciphertext under [Encrypted]
    protection: the one readable part of a seal, copied, since an entry
    that adopts the seal's link keeps none of it. *)

val register :
  Smod.t ->
  sealed ->
  ?policy:Policy.t ->
  ?admin_principal:string ->
  unit ->
  Registry.entry
(** The kernel's half: {!Smod.register} with fresh copies of the sealed
    image's data and text digest and of the nonce, so no two registry
    entries share a mutable byte.  The key goes to the kernel only.  The
    seal's link goes with them, with the text uncopied, and the entry
    adopts it only after checking that it was made from exactly the
    entry's image, key and nonce ({!Registry.add}): its linked image and
    text are then set at registration, never written, and shared with
    every other entry registered from this seal, and the entry keeps none
    of the text; an entry that refuses the link copies the text.  A seal
    without a link has its text copied here.  Each install still charges
    the kernel's decryption. *)

val package :
  Smod.t ->
  image:Smod_modfmt.Smof.t ->
  ?protection:Registry.protection ->
  ?policy:Policy.t ->
  ?admin_principal:string ->
  ?key_seed:string ->
  unit ->
  Registry.entry
(** [register smod (seal ~image ?protection ?key_seed ())]: seal and
    register in one step, for modules installed in one world only. *)
