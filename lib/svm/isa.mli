(** The SecModule VM instruction set.

    Module functions are compiled to this little stack-machine bytecode;
    the text bytes are what SecModule encrypts, unmaps and protects.  The
    operand stack models the register file; loads and stores go through
    the owning process's simulated address space, so memory protection and
    page sharing apply to module code exactly as they would to machine
    code. *)

type instr =
  | Nop
  | Push of int  (** push a 32-bit immediate *)
  | Loadarg of int  (** push the k-th argument word (0-based) *)
  | Loadw  (** pop addr, push mem32\[addr\] *)
  | Storew  (** pop addr, pop value, store *)
  | Loadb
  | Storeb
  | Add
  | Sub
  | Mul
  | Divu  (** unsigned; division by zero faults *)
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq  (** push 1 if equal else 0 *)
  | Lt  (** signed compare *)
  | Ltu  (** unsigned compare *)
  | Jmp of int  (** relative to the next instruction, in bytes *)
  | Jz of int
  | Jnz of int
  | Dup
  | Drop
  | Swap
  | Localget of int  (** 16 scratch locals *)
  | Localset of int
  | Sys of int * int  (** (syscall number, arg count): trap from module code *)
  | Call of int
      (** call another function in the module at this {e absolute} address
          — the operand is a relocation site patched by the linker, so
          cross-function calls survive text encryption (the site is left
          plaintext) and land wherever the kernel maps the module.  The
          callee takes its inputs from the operand stack and [Ret]urns its
          result there; [Loadarg] always refers to the original client
          arguments. *)
  | Ret
      (** pop the return value: returns to the caller when inside a
          [Call], otherwise ends execution *)

val encode : instr list -> bytes
(** Flat bytecode image. *)

val decode : len:int -> (int -> int) -> int -> instr
(** [decode ~len byte off] is the instruction at offset [off] of a code
    image of [len] bytes whose byte at offset [i] is [byte i]; [byte] is
    only asked for offsets below [len].  The next instruction starts at
    [off + length instr].  Raises [Invalid_argument] on a bad opcode or
    truncation, with the messages of {!decode_at}. *)

val decode_at : bytes -> int -> instr * int
(** [decode_at code off] is the instruction at [off] and the offset of the
    next one.  Raises [Invalid_argument] on a bad opcode or truncation. *)

val length : instr -> int
(** Encoded size in bytes. *)

val pp : Format.formatter -> instr -> unit
