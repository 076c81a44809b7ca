(** The module-VM interpreter.

    Code is fetched from the executing process's simulated address space
    with execute access, so a process that does not have the module text
    mapped executable cannot run it — this is exactly the property
    SecModule's text protection relies on.  Data loads and stores likewise
    go through the address space, faulting and page-sharing on demand. *)

exception
  Fault of {
    pc : int;
    reason : string;
  }

type env

val make_env :
  aspace:Smod_vmem.Aspace.t ->
  clock:Smod_sim.Clock.t ->
  ?syscall:(nr:int -> int array -> int) ->
  ?fuel:int ->
  unit ->
  env
(** [fuel] caps executed instructions (default 10_000_000) so buggy module
    code cannot hang the simulated machine. *)

val run : env -> code_base:int -> code_len:int -> ?entry:int -> args_base:int -> unit -> int
(** Execute from [code_base + entry] (default entry 0) until a final
    [Ret]; [args_base] is the address of argument word 0 (Figure 3's
    [arg1] slot).  [Call] targets must be absolute addresses inside
    [\[code_base, code_base + code_len)] — normally relocation-patched
    symbol addresses within the same module.  Returns the popped return
    value.

    Fetch: before the first instruction, every page of the text is
    checked once, in address order, for execute and then read access
    (faulting it in if needed), and instructions are decoded from those
    pages' frames in place; nothing is copied.  A text rewrite between two
    runs is therefore what the next run executes.

    Raises {!Fault} on bad opcodes, stack underflow, division by zero,
    out-of-range pc or call target, call-depth overflow, or fuel
    exhaustion; an instruction that straddles a page boundary decodes
    like any other, and one truncated at the text end faults with the
    decoder's message.  Address-space exceptions
    ({!Smod_vmem.Aspace.Segv} etc.) propagate unchanged. *)

val instructions_executed : env -> int
