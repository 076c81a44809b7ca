(** Principal keys and assertion signatures.

    Credentials (assertions whose authorizer is not "POLICY") must be
    signed by their authorizer.  In the simulated single-host deployment
    signatures are HMAC-SHA256 tags over the canonical assertion body,
    with the per-principal secrets held by the trusted host (paper §4.4:
    the OS hosting the module must be a trusted party, and the keys live
    only in kernel space). *)

type t

val create : unit -> t
val add_principal : t -> name:string -> secret:string -> unit

val rotate_principal : t -> name:string -> secret:string -> unit
(** Replace an existing principal's key.  Unlike {!add_principal} this is
    strict: raises [Not_found] if the principal was never registered, so a
    cluster-replicated rotation cannot silently mint a new principal on a
    shard that missed the original add. *)

val remove_principal : t -> name:string -> unit
(** Drop a principal's key.  A no-op (no generation bump, no hooks) if the
    principal is absent; otherwise every credential signed by it stops
    verifying and the generation bump invalidates cached decisions. *)

val has_principal : t -> string -> bool

val generation : t -> int
(** Bumped every time the key material changes.  Cached policy decisions
    derived from credential signatures are only valid for the generation
    they were computed under. *)

val on_change : t -> (unit -> unit) -> unit
(** Register a hook fired after every key-material change.  Admission
    ([Secmodule.Smod]) uses this to drop its compiled programs and cached
    policy decisions. *)

val sign : t -> Ast.assertion -> Ast.assertion
(** Fills in the signature field.  Raises [Not_found] if the authorizer
    has no key registered. *)

val verify : t -> Ast.assertion -> bool
(** True iff the assertion carries a signature that matches its canonical
    body under its authorizer's key.  POLICY assertions are locally
    trusted and verify unconditionally (RFC 2704 §4.6.1). *)
