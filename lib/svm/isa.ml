type instr =
  | Nop
  | Push of int
  | Loadarg of int
  | Loadw
  | Storew
  | Loadb
  | Storeb
  | Add
  | Sub
  | Mul
  | Divu
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq
  | Lt
  | Ltu
  | Jmp of int
  | Jz of int
  | Jnz of int
  | Dup
  | Drop
  | Swap
  | Localget of int
  | Localset of int
  | Sys of int * int
  | Call of int
  | Ret

let length = function
  | Push _ | Call _ -> 5
  | Loadarg _ | Localget _ | Localset _ -> 2
  | Jmp _ | Jz _ | Jnz _ -> 3
  | Sys _ -> 4
  | Nop | Loadw | Storew | Loadb | Storeb | Add | Sub | Mul | Divu | And | Or | Xor | Shl
  | Shr | Eq | Lt | Ltu | Dup | Drop | Swap | Ret ->
      1

let opcode = function
  | Nop -> 0x00
  | Push _ -> 0x01
  | Loadarg _ -> 0x02
  | Loadw -> 0x03
  | Storew -> 0x04
  | Loadb -> 0x05
  | Storeb -> 0x06
  | Add -> 0x07
  | Sub -> 0x08
  | Mul -> 0x09
  | Divu -> 0x0A
  | And -> 0x0B
  | Or -> 0x0C
  | Xor -> 0x0D
  | Shl -> 0x0E
  | Shr -> 0x0F
  | Eq -> 0x10
  | Lt -> 0x11
  | Ltu -> 0x12
  | Jmp _ -> 0x13
  | Jz _ -> 0x14
  | Jnz _ -> 0x15
  | Dup -> 0x16
  | Drop -> 0x17
  | Swap -> 0x18
  | Localget _ -> 0x19
  | Localset _ -> 0x1A
  | Sys _ -> 0x1B
  | Ret -> 0x1C
  | Call _ -> 0x1D

let encode instrs =
  let total = List.fold_left (fun acc i -> acc + length i) 0 instrs in
  let out = Bytes.create total in
  let pos = ref 0 in
  let put_u8 v =
    Bytes.set out !pos (Char.chr (v land 0xff));
    incr pos
  in
  let put_u32 v =
    put_u8 v;
    put_u8 (v lsr 8);
    put_u8 (v lsr 16);
    put_u8 (v lsr 24)
  in
  let put_s16 v =
    let v = v land 0xffff in
    put_u8 v;
    put_u8 (v lsr 8)
  in
  List.iter
    (fun i ->
      put_u8 (opcode i);
      match i with
      | Push v | Call v -> put_u32 v
      | Loadarg k | Localget k | Localset k -> put_u8 k
      | Jmp d | Jz d | Jnz d -> put_s16 d
      | Sys (nr, nargs) ->
          put_u8 nr;
          put_u8 (nr lsr 8);
          put_u8 nargs
      | Nop | Loadw | Storew | Loadb | Storeb | Add | Sub | Mul | Divu | And | Or | Xor
      | Shl | Shr | Eq | Lt | Ltu | Dup | Drop | Swap | Ret ->
          ())
    instrs;
  out

let u8 ~len byte i =
  if i >= len then invalid_arg "Isa.decode_at: truncated instruction";
  byte i

let u32 ~len byte i =
  u8 ~len byte i
  lor (u8 ~len byte (i + 1) lsl 8)
  lor (u8 ~len byte (i + 2) lsl 16)
  lor (u8 ~len byte (i + 3) lsl 24)

let s16 ~len byte i =
  let raw = u8 ~len byte i lor (u8 ~len byte (i + 1) lsl 8) in
  if raw land 0x8000 <> 0 then raw - 0x10000 else raw

let decode ~len byte off =
  if off >= len then invalid_arg "Isa.decode_at: past end of code";
  match u8 ~len byte off with
  | 0x00 -> Nop
  | 0x01 -> Push (u32 ~len byte (off + 1))
  | 0x02 -> Loadarg (u8 ~len byte (off + 1))
  | 0x03 -> Loadw
  | 0x04 -> Storew
  | 0x05 -> Loadb
  | 0x06 -> Storeb
  | 0x07 -> Add
  | 0x08 -> Sub
  | 0x09 -> Mul
  | 0x0A -> Divu
  | 0x0B -> And
  | 0x0C -> Or
  | 0x0D -> Xor
  | 0x0E -> Shl
  | 0x0F -> Shr
  | 0x10 -> Eq
  | 0x11 -> Lt
  | 0x12 -> Ltu
  | 0x13 -> Jmp (s16 ~len byte (off + 1))
  | 0x14 -> Jz (s16 ~len byte (off + 1))
  | 0x15 -> Jnz (s16 ~len byte (off + 1))
  | 0x16 -> Dup
  | 0x17 -> Drop
  | 0x18 -> Swap
  | 0x19 -> Localget (u8 ~len byte (off + 1))
  | 0x1A -> Localset (u8 ~len byte (off + 1))
  | 0x1B ->
      Sys (u8 ~len byte (off + 1) lor (u8 ~len byte (off + 2) lsl 8), u8 ~len byte (off + 3))
  | 0x1C -> Ret
  | 0x1D -> Call (u32 ~len byte (off + 1))
  | bad -> invalid_arg (Printf.sprintf "Isa.decode_at: bad opcode 0x%02x at %d" bad off)

let decode_at code off =
  let instr = decode ~len:(Bytes.length code) (fun i -> Char.code (Bytes.get code i)) off in
  (instr, off + length instr)

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Push v -> Format.fprintf ppf "push %d" v
  | Loadarg k -> Format.fprintf ppf "loadarg %d" k
  | Loadw -> Format.pp_print_string ppf "loadw"
  | Storew -> Format.pp_print_string ppf "storew"
  | Loadb -> Format.pp_print_string ppf "loadb"
  | Storeb -> Format.pp_print_string ppf "storeb"
  | Add -> Format.pp_print_string ppf "add"
  | Sub -> Format.pp_print_string ppf "sub"
  | Mul -> Format.pp_print_string ppf "mul"
  | Divu -> Format.pp_print_string ppf "divu"
  | And -> Format.pp_print_string ppf "and"
  | Or -> Format.pp_print_string ppf "or"
  | Xor -> Format.pp_print_string ppf "xor"
  | Shl -> Format.pp_print_string ppf "shl"
  | Shr -> Format.pp_print_string ppf "shr"
  | Eq -> Format.pp_print_string ppf "eq"
  | Lt -> Format.pp_print_string ppf "lt"
  | Ltu -> Format.pp_print_string ppf "ltu"
  | Jmp d -> Format.fprintf ppf "jmp %+d" d
  | Jz d -> Format.fprintf ppf "jz %+d" d
  | Jnz d -> Format.fprintf ppf "jnz %+d" d
  | Dup -> Format.pp_print_string ppf "dup"
  | Drop -> Format.pp_print_string ppf "drop"
  | Swap -> Format.pp_print_string ppf "swap"
  | Localget k -> Format.fprintf ppf "localget %d" k
  | Localset k -> Format.fprintf ppf "localset %d" k
  | Sys (nr, nargs) -> Format.fprintf ppf "sys %d/%d" nr nargs
  | Call a -> Format.fprintf ppf "call 0x%x" a
  | Ret -> Format.pp_print_string ppf "ret"
