(* Tests for Smod_svm: ISA encode/decode, assembler, disassembler and the
   interpreter (including memory protection of instruction fetch). *)

module Isa = Smod_svm.Isa
module Asm = Smod_svm.Asm
module Interp = Smod_svm.Interp
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Prot = Smod_vmem.Prot
module Phys = Smod_vmem.Phys
module Clock = Smod_sim.Clock

let code_base = 0x0010_0000
let args_base = Layout.data_base + 0x100

let setup () =
  let phys = Phys.create () in
  let clock = Clock.create ~jitter:0.0 () in
  let a = Aspace.create ~phys ~clock ~name:"svm" in
  Aspace.add_entry a ~start_addr:code_base ~size:(4 * Layout.page_size) ~prot:Prot.rwx
    ~kind:Aspace.Text ~name:"code";
  Aspace.add_entry a ~start_addr:Layout.data_base ~size:(16 * Layout.page_size) ~prot:Prot.rw
    ~kind:Aspace.Data ~name:"data";
  (a, clock)

let run_source ?(args = [||]) ?syscall source =
  let a, clock = setup () in
  let code = Asm.assemble source in
  Aspace.write_bytes a ~addr:code_base code;
  Array.iteri (fun i v -> Aspace.write_word a ~addr:(args_base + (4 * i)) v) args;
  let env = Interp.make_env ~aspace:a ~clock ?syscall () in
  Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base ()

(* --------------------------- ISA codec ------------------------------ *)

let all_instrs =
  [
    Isa.Nop; Isa.Push 42; Isa.Push 0xFFFFFFFF; Isa.Loadarg 3; Isa.Loadw; Isa.Storew;
    Isa.Loadb; Isa.Storeb; Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.And; Isa.Or; Isa.Xor;
    Isa.Shl; Isa.Shr; Isa.Eq; Isa.Lt; Isa.Ltu; Isa.Jmp 5; Isa.Jz (-3); Isa.Jnz 32767;
    Isa.Dup; Isa.Drop; Isa.Swap; Isa.Localget 7; Isa.Localset 15; Isa.Sys (307, 4); Isa.Ret;
  ]

let test_isa_roundtrip () =
  let code = Isa.encode all_instrs in
  let decoded = List.map snd (Asm.disassemble code) in
  Alcotest.(check int) "count" (List.length all_instrs) (List.length decoded);
  List.iter2
    (fun want got ->
      Alcotest.(check string) "instr"
        (Format.asprintf "%a" Isa.pp want)
        (Format.asprintf "%a" Isa.pp got))
    all_instrs decoded

let test_isa_negative_jump () =
  let code = Isa.encode [ Isa.Jmp (-100) ] in
  match Isa.decode_at code 0 with
  | Isa.Jmp d, 3 -> Alcotest.(check int) "displacement" (-100) d
  | _ -> Alcotest.fail "bad decode"

let test_isa_bad_opcode () =
  Alcotest.(check bool) "raises" true
    (match Isa.decode_at (Bytes.make 1 '\xee') 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_isa_truncated () =
  let code = Bytes.sub (Isa.encode [ Isa.Push 7 ]) 0 3 in
  Alcotest.(check bool) "raises" true
    (match Isa.decode_at code 0 with _ -> false | exception Invalid_argument _ -> true)

let prop_isa_roundtrip =
  let gen_instr =
    QCheck.Gen.(
      oneof
        [
          return Isa.Nop;
          map (fun v -> Isa.Push v) (int_bound 0xFFFFFF);
          map (fun v -> Isa.Loadarg (v land 0xff)) (int_bound 255);
          return Isa.Add;
          return Isa.Loadw;
          return Isa.Storew;
          map (fun v -> Isa.Jmp (v - 1000)) (int_bound 2000);
          map (fun v -> Isa.Localget (v land 15)) (int_bound 15);
          map2 (fun a b -> Isa.Sys (a, b land 7)) (int_bound 400) (int_bound 7);
          return Isa.Ret;
        ])
  in
  QCheck.Test.make ~name:"isa encode/decode roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) gen_instr))
    (fun instrs ->
      let code = Isa.encode instrs in
      let decoded = List.map snd (Asm.disassemble code) in
      decoded = instrs)

(* --------------------------- assembler ------------------------------ *)

let test_asm_basic () = Alcotest.(check int) "1 + 2" 3 (run_source "push 1\npush 2\nadd\nret")

let test_asm_comments_and_blank_lines () =
  Alcotest.(check int) "comments ignored" 5
    (run_source "; leading comment\n\npush 5 ; trailing\n\nret\n")

let test_asm_labels_forward_and_back () =
  (* Count down from 3: tests both a backward and a forward reference. *)
  let source =
    "push 3\nlocalset 0\nloop:\nlocalget 0\njz done\nlocalget 0\npush 1\nsub\nlocalset 0\n\
     jmp loop\ndone:\npush 99\nret"
  in
  Alcotest.(check int) "loop terminates" 99 (run_source source)

let test_asm_duplicate_label () =
  Alcotest.(check bool) "duplicate rejected" true
    (match Asm.assemble "x:\nnop\nx:\nret" with
    | _ -> false
    | exception Asm.Error { message; _ } ->
        String.length message > 0)

let test_asm_undefined_label () =
  Alcotest.(check bool) "undefined rejected" true
    (match Asm.assemble "jmp nowhere\nret" with
    | _ -> false
    | exception Asm.Error _ -> true)

let test_asm_unknown_mnemonic () =
  Alcotest.(check bool) "unknown mnemonic" true
    (match Asm.assemble "frobnicate 3" with
    | _ -> false
    | exception Asm.Error { line = 1; _ } -> true)

let test_asm_error_line_number () =
  Alcotest.(check bool) "line number points at offender" true
    (match Asm.assemble "nop\nnop\nbadop\n" with
    | _ -> false
    | exception Asm.Error { line = 3; _ } -> true)

let contains_substring haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let test_disassemble_listing () =
  let code = Asm.assemble "push 7\nret" in
  let listing = Format.asprintf "%a" Asm.pp_listing code in
  Alcotest.(check bool) "mentions push 7" true (contains_substring listing "push 7");
  Alcotest.(check bool) "mentions ret" true (contains_substring listing "ret")

(* ------------------------- interpreter ------------------------------ *)

let test_arith () =
  Alcotest.(check int) "sub" 38 (run_source "push 42\npush 4\nsub\nret");
  Alcotest.(check int) "mul" 84 (run_source "push 42\npush 2\nmul\nret");
  Alcotest.(check int) "divu" 21 (run_source "push 42\npush 2\ndivu\nret");
  Alcotest.(check int) "and" 8 (run_source "push 12\npush 10\nand\nret");
  Alcotest.(check int) "or" 14 (run_source "push 12\npush 10\nor\nret");
  Alcotest.(check int) "xor" 6 (run_source "push 12\npush 10\nxor\nret");
  Alcotest.(check int) "shl" 48 (run_source "push 12\npush 2\nshl\nret");
  Alcotest.(check int) "shr" 3 (run_source "push 12\npush 2\nshr\nret")

let test_arith_wraps_32bit () =
  Alcotest.(check int) "add wraps" 0
    (run_source "push 4294967295\npush 1\nadd\nret");
  Alcotest.(check int) "sub wraps" 0xFFFFFFFF (run_source "push 0\npush 1\nsub\nret")

let test_compare () =
  Alcotest.(check int) "eq true" 1 (run_source "push 5\npush 5\neq\nret");
  Alcotest.(check int) "eq false" 0 (run_source "push 5\npush 6\neq\nret");
  Alcotest.(check int) "ltu" 1 (run_source "push 3\npush 5\nltu\nret");
  (* signed: -1 < 1 even though unsigned 0xFFFFFFFF > 1 *)
  Alcotest.(check int) "lt signed" 1 (run_source "push 4294967295\npush 1\nlt\nret");
  Alcotest.(check int) "ltu unsigned" 0 (run_source "push 4294967295\npush 1\nltu\nret")

let test_stack_ops () =
  Alcotest.(check int) "dup" 4 (run_source "push 2\ndup\nadd\nret");
  Alcotest.(check int) "swap" 1 (run_source "push 3\npush 4\nswap\nsub\nret");
  Alcotest.(check int) "drop" 7 (run_source "push 7\npush 9\ndrop\nret")

let test_locals () =
  Alcotest.(check int) "localget/set" 10
    (run_source "push 10\nlocalset 5\npush 0\ndrop\nlocalget 5\nret")

let test_loadarg () =
  Alcotest.(check int) "args" 30 (run_source ~args:[| 10; 20 |] "loadarg 0\nloadarg 1\nadd\nret")

let test_memory_access () =
  let addr = Layout.data_base + 0x500 in
  Alcotest.(check int) "storew/loadw" 777
    (run_source (Printf.sprintf "push 777\npush %d\nstorew\npush %d\nloadw\nret" addr addr));
  Alcotest.(check int) "storeb/loadb truncates" 0xcd
    (run_source (Printf.sprintf "push 456141\npush %d\nstoreb\npush %d\nloadb\nret" addr addr))

let test_syscall_hook () =
  let calls = ref [] in
  let syscall ~nr args =
    calls := (nr, Array.to_list args) :: !calls;
    nr + Array.fold_left ( + ) 0 args
  in
  let v = run_source ~syscall "push 10\npush 20\nsys 300 2\nret" in
  Alcotest.(check int) "result" 330 v;
  Alcotest.(check (list (pair int (list int)))) "args in order" [ (300, [ 10; 20 ]) ] !calls

let test_syscall_without_hook_faults () =
  Alcotest.(check bool) "faults" true
    (match run_source "sys 20 0\nret" with
    | _ -> false
    | exception Interp.Fault _ -> true)

let test_stack_underflow () =
  Alcotest.(check bool) "underflow" true
    (match run_source "add\nret" with _ -> false | exception Interp.Fault _ -> true)

let test_division_by_zero () =
  Alcotest.(check bool) "div0" true
    (match run_source "push 1\npush 0\ndivu\nret" with
    | _ -> false
    | exception Interp.Fault _ -> true)

let test_fuel_exhaustion () =
  let a, clock = setup () in
  let code = Asm.assemble "spin:\njmp spin" in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock ~fuel:1000 () in
  Alcotest.(check bool) "out of fuel" true
    (match Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base () with
    | _ -> false
    | exception Interp.Fault { reason; _ } -> reason = "out of fuel")

let test_pc_out_of_range () =
  Alcotest.(check bool) "jump past end" true
    (match run_source "jmp over\nover:" with
    | _ -> false
    | exception Interp.Fault _ -> true)

let test_exec_protection () =
  (* Code placed in a non-executable region must not run. *)
  let a, clock = setup () in
  let code = Asm.assemble "push 1\nret" in
  let data_code = Layout.data_base + 0x1000 in
  Aspace.write_bytes a ~addr:data_code code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check bool) "prot violation" true
    (match Interp.run env ~code_base:data_code ~code_len:(Bytes.length code) ~args_base () with
    | _ -> false
    | exception Aspace.Prot_violation _ -> true)

let test_unmapped_code_segv () =
  let a, clock = setup () in
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check bool) "segv" true
    (match Interp.run env ~code_base:0x7000_0000 ~code_len:16 ~args_base () with
    | _ -> false
    | exception Aspace.Segv _ -> true)

(* Fetch decodes from the text's frames in place, so an instruction that
   straddles a page boundary must decode as it would from one contiguous
   image, and one truncated at the text end must fault at its own pc.
   Both are run with the text starting on a page boundary and mid-page. *)
let test_fetch_page_edges () =
  List.iter
    (fun base_off ->
      let a, clock = setup () in
      let code_base = code_base + base_off in
      (* [push]'s five bytes start two bytes before the first page
         boundary; a [jmp] skips the [nop] padding up to it. *)
      let push_at = Layout.page_size - base_off - 2 in
      let pad = List.init (push_at - 3) (fun _ -> Isa.Nop) in
      let code = (Isa.Jmp (push_at - 3) :: pad) @ [ Isa.Push 0xA1B2C3D4; Isa.Ret ] in
      let text = Isa.encode (code @ List.init 1000 (fun _ -> Isa.Nop)) in
      Alcotest.(check bool) "longer than a page" true (Bytes.length text > Layout.page_size);
      Aspace.write_bytes a ~addr:code_base text;
      let env = Interp.make_env ~aspace:a ~clock () in
      Alcotest.(check int) "push across the boundary" 0xA1B2C3D4
        (Interp.run env ~code_base ~code_len:(Bytes.length text) ~args_base ());
      Alcotest.(check int) "jmp, push, ret" 3 (Interp.instructions_executed env);
      (* The same image cut two bytes into the push's immediate: the bytes
         beyond the text end are mapped but must not be decoded. *)
      let env = Interp.make_env ~aspace:a ~clock () in
      match Interp.run env ~code_base ~code_len:(push_at + 3) ~args_base () with
      | v -> Alcotest.failf "truncated push ran and returned %d" v
      | exception Interp.Fault { pc; reason } ->
          Alcotest.(check int) "fault pc" push_at pc;
          Alcotest.(check string) "fault reason" "Isa.decode_at: truncated instruction" reason)
    [ 0; 0x10 ]

let test_instruction_charging () =
  let a, clock = setup () in
  let code = Asm.assemble "push 1\npush 2\nadd\nret" in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  ignore (Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base ());
  Alcotest.(check int) "4 instructions executed" 4 (Interp.instructions_executed env)

(* A bigger program: iterative fibonacci. *)
let fib_source =
  "loadarg 0\nlocalset 0\npush 0\nlocalset 1\npush 1\nlocalset 2\nloop:\nlocalget 0\n\
   jz done\nlocalget 1\nlocalget 2\nadd\nlocalget 2\nlocalset 1\nlocalset 2\nlocalget 0\n\
   push 1\nsub\nlocalset 0\njmp loop\ndone:\nlocalget 1\nret"

let test_fibonacci () =
  List.iter
    (fun (n, want) -> Alcotest.(check int) (Printf.sprintf "fib %d" n) want (run_source ~args:[| n |] fib_source))
    [ (0, 0); (1, 1); (2, 1); (3, 2); (10, 55); (20, 6765) ]


(* ------------------------- call / ret nesting ----------------------- *)

let test_call_and_return () =
  (* main: push 7; call helper; ret     helper (at +16): dup; mul; ret *)
  let a, clock = setup () in
  let code =
    Isa.encode
      [
        Isa.Push 7; Isa.Call (code_base + 16); Isa.Ret;
        Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;
        Isa.Dup; Isa.Mul; Isa.Ret;
      ]
  in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check int) "7^2 via helper" 49
    (Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base ())

let test_call_nested_two_levels () =
  (* main calls f at +16, f calls g at +32: ((3+1)*2) *)
  let a, clock = setup () in
  let code =
    Isa.encode
      [
        Isa.Push 3; Isa.Call (code_base + 16); Isa.Ret;                    (* 0..10 *)
        Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;                       (* 11..15 *)
        Isa.Call (code_base + 32); Isa.Push 2; Isa.Mul; Isa.Ret;           (* 16..27 *)
        Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;                                (* 28..31 *)
        Isa.Push 1; Isa.Add; Isa.Ret;                                      (* 32.. *)
      ]
  in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check int) "nested calls" 8
    (Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base ())

let test_call_target_outside_module () =
  let a, clock = setup () in
  let code = Isa.encode [ Isa.Call 0x7000_0000; Isa.Ret ] in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check bool) "fault" true
    (match Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base () with
    | _ -> false
    | exception Interp.Fault { reason; _ } ->
        String.length reason > 0)

let test_call_depth_overflow () =
  let a, clock = setup () in
  let code = Isa.encode [ Isa.Call code_base; Isa.Ret ] in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check bool) "overflow" true
    (match Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base () with
    | _ -> false
    | exception Interp.Fault { reason = "call depth overflow"; _ } -> true
    | exception Interp.Fault _ -> false)

let test_entry_offset () =
  (* Two functions in one image; run the second via ~entry. *)
  let a, clock = setup () in
  let code = Isa.encode [ Isa.Push 1; Isa.Ret; Isa.Push 2; Isa.Ret ] in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check int) "entry 0" 1
    (Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base ());
  Alcotest.(check int) "entry 6" 2
    (Interp.run env ~code_base ~code_len:(Bytes.length code) ~entry:6 ~args_base ())

let test_entry_out_of_range () =
  let a, clock = setup () in
  let code = Isa.encode [ Isa.Ret ] in
  Aspace.write_bytes a ~addr:code_base code;
  let env = Interp.make_env ~aspace:a ~clock () in
  Alcotest.(check bool) "bad entry" true
    (match Interp.run env ~code_base ~code_len:(Bytes.length code) ~entry:99 ~args_base () with
    | _ -> false
    | exception Interp.Fault _ -> true)

let test_asm_call_requires_relocs () =
  Alcotest.(check bool) "assemble rejects call" true
    (match Asm.assemble "call helper\nret" with
    | _ -> false
    | exception Asm.Error _ -> true);
  let code, relocs = Asm.assemble_function "push 1\ncall helper\nret" in
  Alcotest.(check int) "one reloc" 1 (List.length relocs);
  (match relocs with
  | [ (off, "helper") ] -> Alcotest.(check int) "operand offset" 6 off
  | _ -> Alcotest.fail "reloc shape");
  Alcotest.(check int) "encoded size" 11 (Bytes.length code)


(* ---------------- reference-semantics property ----------------------- *)

(* Random straight-line programs (no jumps/memory/syscalls) evaluated by
   the interpreter must agree with a direct OCaml evaluation of the same
   stack program. *)
let reference_eval instrs args =
  let mask = 0xFFFFFFFF in
  let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v in
  let stack = ref [] in
  let locals = Array.make 16 0 in
  let push v = stack := v land mask :: !stack in
  let pop () = match !stack with v :: r -> stack := r; v | [] -> raise Exit in
  let binop f = let b = pop () in let a = pop () in push (f a b) in
  try
    List.iter
      (fun i ->
        match i with
        | Isa.Nop -> ()
        | Isa.Push v -> push v
        | Isa.Loadarg k -> push (if k < Array.length args then args.(k) else raise Exit)
        | Isa.Add -> binop ( + )
        | Isa.Sub -> binop ( - )
        | Isa.Mul -> binop ( * )
        | Isa.And -> binop ( land )
        | Isa.Or -> binop ( lor )
        | Isa.Xor -> binop ( lxor )
        | Isa.Shl -> binop (fun a b -> a lsl (b land 31))
        | Isa.Shr -> binop (fun a b -> a lsr (b land 31))
        | Isa.Eq -> binop (fun a b -> if a = b then 1 else 0)
        | Isa.Lt -> binop (fun a b -> if to_signed a < to_signed b then 1 else 0)
        | Isa.Ltu -> binop (fun a b -> if a < b then 1 else 0)
        | Isa.Dup -> (let v = pop () in push v; push v)
        | Isa.Drop -> ignore (pop ())
        | Isa.Swap -> (let b = pop () in let a = pop () in push b; push a)
        | Isa.Localget k -> push locals.(k)
        | Isa.Localset k -> locals.(k) <- pop ()
        | _ -> raise Exit)
      instrs;
    Some (pop ())
  with Exit -> None

let gen_straightline =
  (* Generate programs that track stack depth so they never underflow. *)
  let open QCheck.Gen in
  let step depth =
    if depth = 0 then
      oneof [ map (fun v -> (Isa.Push v, 1)) (int_bound 0xFFFF);
              map (fun k -> (Isa.Loadarg (k land 1), 1)) (int_bound 1) ]
    else if depth = 1 then
      oneof
        [ map (fun v -> (Isa.Push v, depth + 1)) (int_bound 0xFFFF);
          return (Isa.Dup, depth + 1);
          map (fun k -> (Isa.Localget (k land 7), depth + 1)) (int_bound 7);
          map (fun k -> (Isa.Localset (k land 7), depth - 1)) (int_bound 7) ]
    else
      oneof
        [ map (fun v -> (Isa.Push v, depth + 1)) (int_bound 0xFFFF);
          return (Isa.Add, depth - 1); return (Isa.Sub, depth - 1);
          return (Isa.Mul, depth - 1); return (Isa.And, depth - 1);
          return (Isa.Or, depth - 1); return (Isa.Xor, depth - 1);
          return (Isa.Eq, depth - 1); return (Isa.Lt, depth - 1);
          return (Isa.Ltu, depth - 1); return (Isa.Dup, depth + 1);
          return (Isa.Drop, depth - 1); return (Isa.Swap, depth) ]
  in
  let rec build n depth acc =
    if n = 0 then
      (* drain to exactly one value then return *)
      let rec drain depth acc =
        if depth = 0 then return (List.rev (Isa.Ret :: Isa.Push 0 :: acc))
        else if depth = 1 then return (List.rev (Isa.Ret :: acc))
        else drain (depth - 1) (Isa.Drop :: acc)
      in
      drain depth acc
    else step depth >>= fun (i, depth') -> build (n - 1) depth' (i :: acc)
  in
  (0 -- 40) >>= fun n -> build n 0 []

let prop_interpreter_matches_reference =
  QCheck.Test.make ~name:"interpreter agrees with reference semantics" ~count:300
    (QCheck.make gen_straightline) (fun instrs ->
      let args = [| 12345; 67890 |] in
      let expected = reference_eval (List.filter (fun i -> i <> Isa.Ret) instrs) args in
      match expected with
      | None -> QCheck.assume_fail ()
      | Some want ->
          let a, clock = setup () in
          let code = Isa.encode instrs in
          Aspace.write_bytes a ~addr:code_base code;
          Array.iteri (fun i v -> Aspace.write_word a ~addr:(args_base + (4 * i)) v) args;
          let env = Interp.make_env ~aspace:a ~clock () in
          Interp.run env ~code_base ~code_len:(Bytes.length code) ~args_base () = want)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "svm"
    [
      ( "isa",
        [
          tc "roundtrip all instrs" test_isa_roundtrip;
          tc "negative jumps" test_isa_negative_jump;
          tc "bad opcode" test_isa_bad_opcode;
          tc "truncated operand" test_isa_truncated;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_isa_roundtrip ] );
      ( "assembler",
        [
          tc "basic" test_asm_basic;
          tc "comments/blank lines" test_asm_comments_and_blank_lines;
          tc "labels fwd+back" test_asm_labels_forward_and_back;
          tc "duplicate label" test_asm_duplicate_label;
          tc "undefined label" test_asm_undefined_label;
          tc "unknown mnemonic" test_asm_unknown_mnemonic;
          tc "error line numbers" test_asm_error_line_number;
          tc "disassembler listing" test_disassemble_listing;
        ] );
      ( "interpreter",
        [
          tc "arithmetic" test_arith;
          tc "32-bit wraparound" test_arith_wraps_32bit;
          tc "comparisons" test_compare;
          tc "stack ops" test_stack_ops;
          tc "locals" test_locals;
          tc "arguments" test_loadarg;
          tc "memory load/store" test_memory_access;
          tc "syscall hook" test_syscall_hook;
          tc "syscall without hook" test_syscall_without_hook_faults;
          tc "stack underflow" test_stack_underflow;
          tc "division by zero" test_division_by_zero;
          tc "fuel exhaustion" test_fuel_exhaustion;
          tc "pc out of range" test_pc_out_of_range;
          tc "exec protection" test_exec_protection;
          tc "unmapped code" test_unmapped_code_segv;
          tc "fetch at page edges" test_fetch_page_edges;
          tc "instruction accounting" test_instruction_charging;
          tc "fibonacci" test_fibonacci;
        ] );
      ( "call/ret",
        [
          tc "call and return" test_call_and_return;
          tc "nested two levels" test_call_nested_two_levels;
          tc "target outside module" test_call_target_outside_module;
          tc "depth overflow" test_call_depth_overflow;
          tc "entry offsets" test_entry_offset;
          tc "entry out of range" test_entry_out_of_range;
          tc "asm call needs relocs" test_asm_call_requires_relocs;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_interpreter_matches_reference ] );
    ]
