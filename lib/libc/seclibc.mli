(** The SecModule conversion of libc (§4, §4.2–4.3).

    {!image} packs a representative slice of libc — the allocator, memory
    and string functions, [getpid], plus a few pure bytecode routines —
    into a SMOF module.  {!install} registers it with a SecModule kernel
    and binds every native body.  The {!Client} wrappers mirror the
    overriding header of §4.2: a converted program calls
    [Seclibc.Client.malloc conn 32] where it previously called
    [malloc(32)], and the call travels the full handle dispatch path while
    manipulating the {e client's} heap through the shared pages. *)

val module_name : string
val version : int

val image : unit -> Smod_modfmt.Smof.t
(** The build recipe: a fresh, plaintext image on every call. *)

val install :
  Secmodule.Smod.t ->
  ?protection:Secmodule.Registry.protection ->
  ?policy:Secmodule.Policy.t ->
  unit ->
  Secmodule.Registry.entry
(** Register the program's sealed seclibc for [protection] (default:
    [Encrypted]) and bind all native bodies.  The module is built and
    sealed ({!Secmodule.Toolchain.seal}) once per program, when this
    module initialises; each install is only the kernel's half
    ({!Secmodule.Toolchain.register}), so its entry equals what
    [Toolchain.package smod ~image:(image ()) ~protection] would
    register, in bytes it owns, and maps the one text linked when the
    module was sealed. *)

(** Client-side wrappers (what the overriding include would generate). *)
module Client : sig
  val malloc : Secmodule.Stub.conn -> int -> int
  val free : Secmodule.Stub.conn -> int -> unit
  val calloc : Secmodule.Stub.conn -> count:int -> size:int -> int
  val realloc : Secmodule.Stub.conn -> int -> int -> int
  val memcpy : Secmodule.Stub.conn -> dst:int -> src:int -> n:int -> int
  val memset : Secmodule.Stub.conn -> dst:int -> byte:int -> n:int -> int
  val memcmp : Secmodule.Stub.conn -> int -> int -> n:int -> int
  val strlen : Secmodule.Stub.conn -> int -> int
  val strcpy : Secmodule.Stub.conn -> dst:int -> src:int -> int
  val strcmp : Secmodule.Stub.conn -> int -> int -> int
  val strchr : Secmodule.Stub.conn -> int -> char -> int
  val atoi : Secmodule.Stub.conn -> int -> int
  val memmove : Secmodule.Stub.conn -> dst:int -> src:int -> n:int -> int
  val memchr : Secmodule.Stub.conn -> int -> byte:int -> n:int -> int
  val strstr : Secmodule.Stub.conn -> haystack:int -> needle:int -> int
  val strrchr : Secmodule.Stub.conn -> int -> char -> int
  val strncat : Secmodule.Stub.conn -> dst:int -> src:int -> n:int -> int

  val strtol : Secmodule.Stub.conn -> int -> endptr:int -> base:int -> int
  (** [endptr] is an address to receive the end pointer (0 to skip). *)

  val itoa : Secmodule.Stub.conn -> value:int -> buf:int -> base:int -> int

  val qsort :
    Secmodule.Stub.conn -> base:int -> nmemb:int -> size:int -> cmp_code:int -> unit
  (** [cmp_code] selects from {!Sort.comparator_of_code}'s menu — a
      callback comparator cannot cross the protection boundary (see
      {!Sort}). *)

  val bsearch :
    Secmodule.Stub.conn -> key:int -> base:int -> nmemb:int -> size:int -> cmp_code:int -> int

  val getpid : Secmodule.Stub.conn -> int
  val abs : Secmodule.Stub.conn -> int -> int
  (** Pure bytecode, runs on the module VM. *)

  val test_incr : Secmodule.Stub.conn -> int -> int
  (** The paper's benchmark function (§4.5). *)
end
