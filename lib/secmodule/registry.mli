(** The kernel's table of registered SecModules.

    "A separate tool chain registers the SecModule m with the kernel,
    which must keep track of the registered SecModules" (§3).  Entries
    carry the module image (possibly text-encrypted), the access policy,
    the kernel-held decryption key (§4.4: "the secret keys for each
    encrypted segment in m exist only in kernel space"), and the bound
    native implementations for native-backed symbols. *)

type protection =
  | Encrypted  (** §4.1 approach 1: AES-encrypted text, key in kernel *)
  | Unmap_only  (** §4.1 approach 2: plaintext, but never mapped in clients *)

type native_fn = Smod_kern.Machine.t -> Smod_kern.Proc.t -> args_base:int -> int
(** Runs in handle context: the proc is the handle, whose address space
    shares the client's data/heap/stack. *)

type program_key = {
  cred : string;  (** the credential's canonical bytes ({!Credential.to_bytes}) *)
  policy_rev : int;
  keystore_gen : int;
}
(** What a compiled program's verdicts depend on besides per-call action
    attributes and the call's origin. *)

type program = {
  compiled : Policy.compiled;
  mutable prepared : (Smod_keynote.Fuse.origin * Policy.prepared) list;
      (** [compiled] prepared for each origin a session has fetched it
          for, newest first; shared by every session of that origin *)
}
(** One entry of the program cache. *)

type entry = {
  m_id : int;
  image : Smod_modfmt.Smof.t;
      (** the registered image; its text is empty once the entry adopted a
          {!link}, which holds the text as handles map it *)
  text_len : int;  (** the registered text's length, kept either way *)
  protection : protection;
  mutable policy : Policy.t;  (** swap with {!set_policy}, never directly *)
  mutable policy_rev : int;
      (** revision counter keying cached policy decisions (lib/pool);
          bumped by {!set_policy} *)
  admin_principal : string;  (** who may [sys_smod_remove] this module *)
  kernel_key : string option;
  kernel_nonce : bytes option;
  natives : (string, native_fn) Hashtbl.t;
  functions : Smod_modfmt.Smof.symbol array;  (** index = funcID, in text order *)
  mutable native_images : bytes option array;
      (** empty until {!native_image} first runs, then index = funcID: a
          native symbol's stand-in bytes, set on its first call *)
  func_ids : (string, int) Hashtbl.t;
      (** name → funcID, read by {!func_id}; a duplicate name maps to the
          last such symbol in text order *)
  mutable linked : (Smod_modfmt.Smof.t * Smod_vmem.Phys.image) option;
      (** the linked module without its text, and the text as the
          read-only chunks every handle maps, the one copy of it the entry
          keeps; neither is ever written.  Set by {!add} when it adopts a
          {!link}, else once by {!linked_image} or {!linked_text} *)
  compiled_cache : (program_key, program) Hashtbl.t;
      (** compiled decision programs and the programs prepared from them *)
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable compile_invalidations : int;
}

type t

exception Not_registered of string
exception Already_registered of string

val create : unit -> t

type link
(** A module as the kernel links it, with the image, key and nonce it was
    linked from.  Immutable and holding no kernel state, so one link can
    back entries in any number of registries, on any domain. *)

val link_image : Smod_modfmt.Smof.t -> key:string option -> nonce:bytes option -> link
(** The kernel's link of an image, pure: decrypts the text with [key] and
    [nonce] when the image is encrypted, checks it against the masked
    digest, relocates it against {!Smod_vmem.Layout.module_text_base} and
    builds its chunks ({!Smod_vmem.Phys.image_of_bytes}).  Charges
    nothing and touches no entry or metric.  Raises
    {!Smod_modfmt.Smof.Malformed} if the key is wrong or missing. *)

val add :
  t ->
  image:Smod_modfmt.Smof.t ->
  protection:protection ->
  policy:Policy.t ->
  admin_principal:string ->
  ?kernel_key:string ->
  ?kernel_nonce:bytes ->
  ?link:link ->
  unit ->
  entry
(** Raises {!Already_registered} on a (name, version) collision and
    [Invalid_argument] if an encrypted image is added without a key.  The
    entry adopts [link] as its linked form only if the link was made from
    an image equal to [image] (text, data, digest, symbols, relocations)
    under the same key and nonce, and then keeps [image] without its text
    (the link holds it); otherwise it keeps its own copy of the text, which
    the caller may share with the link's source, and links itself on first
    use.  Without [link] it keeps [image] as given. *)

val remove : t -> m_id:int -> unit
val find : t -> name:string -> version:int -> entry option
val find_by_id : t -> int -> entry option
val entries : t -> entry list

val linked_image : entry -> Smod_modfmt.Smof.t
(** The module as every handle maps it, less its text: symbols,
    relocations and data of the image whose text was decrypted with the
    kernel-held key (when the image is encrypted), checked against its
    masked digest and relocated against
    {!Smod_vmem.Layout.module_text_base}.  Its [text] is empty: the
    linked text is kept once, as {!linked_text}, and has the registered
    image's length.  Set at registration for an entry that adopted a
    {!link} (every sealed module, {!Toolchain.register}), otherwise built
    with {!link_image} on first use; returned physically equal
    afterwards.  Installs charge the decryption per install, copy the
    data segment into frames and map the text from {!linked_text}.
    Raises {!Smod_modfmt.Smof.Malformed} if the key is wrong, storing
    nothing. *)

val linked_text : entry -> Smod_vmem.Phys.image
(** The linked text as frame chunks, set or built with {!linked_image}
    and returned physically equal afterwards: every handle's text pages
    share these chunks ({!Smod_vmem.Aspace.map_image}), and so do the
    entries of every registry that adopted the same {!link}.  A write to
    one handle's text copies the chunk it touches, so it shows neither
    here nor in any other handle.  Read it back with
    {!Smod_vmem.Phys.read_image}.  Raises as {!linked_image} does. *)

val set_policy : entry -> Policy.t -> unit
(** Replace the module's access policy and bump [policy_rev] so stale
    cached decisions can never be served against the new policy; also
    drops the program cache, prepared programs included, counting the
    dropped programs in [compile_invalidations] only. *)

(** The program cache counts its own traffic, on the entry and in the
    [secmodule.policy_compile_hits], [policy_compile_misses] and
    [policy_compile_invalidations] metrics. *)

val find_compiled : entry -> program_key -> program option
(** Probe the program cache (counts a hit). *)

val store_compiled : entry -> program_key -> Policy.compiled -> program
(** Insert a freshly compiled program, prepared for no origin yet (counts
    a miss). *)

val find_prepared : program -> origin:Smod_keynote.Fuse.origin -> Policy.prepared option
(** The program prepared for [origin], if a session prepared it: the same
    value for every session of that origin.  Sharing is sound because a
    prepared program's only mutable state is its snapshots' residue
    nodes, which every residue run rewrites before it reads them and
    which no run leaves half written, since none suspends. *)

val store_prepared : program -> origin:Smod_keynote.Fuse.origin -> Policy.prepared -> unit
(** Keep the program prepared for [origin] (with [Policy.prepare]); the
    caller prepares only for an origin {!find_prepared} has none for. *)

val flush_compiled : entry -> unit
(** Drop every cached program and the programs prepared from it, e.g.
    after a keystore rotation, counting each compiled program as an
    invalidation. *)

val func_id : entry -> string -> int option
(** One lookup in [func_ids]: the client stubs use the same table. *)

val symbol_of_func_id : entry -> int -> Smod_modfmt.Smof.symbol option

val native_image : entry -> func_id:int -> bytes
(** The bytes native symbol [func_id] must still have where it is
    mapped: {!Smod_modfmt.Smof.native_stub_image} of its native name and
    size.  Built on the symbol's first call and kept on the entry, so
    later calls compare without hashing; never written to.  Raises
    [Invalid_argument] for a bytecode symbol. *)

val bind_native : entry -> name:string -> native_fn -> unit
val native : entry -> string -> native_fn option
