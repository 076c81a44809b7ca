(* A multi-function proprietary library: integer statistics over an array
   living in CLIENT memory.

   This exercises the deepest tool-chain path in the reproduction:
   - `Toolchain.assemble_module` assembles several functions whose
     cross-function `call`s become Abs32 relocations;
   - the image is AES-encrypted with the relocation sites left plaintext
     (paper section 4.1 — "still linkable using existing tools");
   - at session setup the kernel decrypts, links (patches every call with
     the address where it mapped the module) and maps the text into the
     handle;
   - the functions then walk an array the client wrote into its own heap,
     through the force-shared pages.

   Run: dune exec examples/analytics.exe *)

module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Aspace = Smod_vmem.Aspace
open Secmodule

(* Callee convention: helpers take inputs from the operand stack and leave
   one result; locals are a shared register file, so each function uses a
   distinct range (helpers 0-5, none needed by entries). *)
let sq = "dup\nmul\nret\n"

let sum_range =
  (* stack in: [addr; n]  out: [sum of n words at addr] *)
  "localset 2\nlocalset 1\npush 0\nlocalset 0\n\
   loop:\nlocalget 2\njz done\n\
   localget 1\nloadw\nlocalget 0\nadd\nlocalset 0\n\
   localget 1\npush 4\nadd\nlocalset 1\n\
   localget 2\npush 1\nsub\nlocalset 2\njmp loop\n\
   done:\nlocalget 0\nret\n"

let sum_sq_range =
  "localset 5\nlocalset 4\npush 0\nlocalset 3\n\
   loop:\nlocalget 5\njz done\n\
   localget 4\nloadw\ncall sq\nlocalget 3\nadd\nlocalset 3\n\
   localget 4\npush 4\nadd\nlocalset 4\n\
   localget 5\npush 1\nsub\nlocalset 5\njmp loop\n\
   done:\nlocalget 3\nret\n"

(* Entries: (addr, n) arrive on the shared stack as client arguments. *)
let sum = "loadarg 0\nloadarg 1\ncall sum_range\nret\n"
let mean = "loadarg 0\nloadarg 1\ncall sum_range\nloadarg 1\ndivu\nret\n"

(* n^2 * variance = n * sum(x^2) - (sum x)^2, kept integral *)
let var_num =
  "loadarg 0\nloadarg 1\ncall sum_sq_range\nloadarg 1\nmul\n\
   loadarg 0\nloadarg 1\ncall sum_range\ndup\nmul\nsub\nret\n"

let () =
  let machine = Machine.create () in
  let smod = Smod.install machine () in
  let image =
    Toolchain.assemble_module ~name:"analytics" ~version:1
      [
        ("sq", sq);
        ("sum_range", sum_range);
        ("sum_sq_range", sum_sq_range);
        ("sum", sum);
        ("mean", mean);
        ("var_num", var_num);
      ]
  in
  Printf.printf "module: %d functions, %d cross-function relocations, %d text bytes\n"
    (List.length (Smod_modfmt.Smof.function_symbols image))
    (List.length image.Smod_modfmt.Smof.relocs)
    (Bytes.length image.Smod_modfmt.Smof.text);
  ignore (Toolchain.package smod ~image ~protection:Registry.Encrypted ());
  let data = [| 4; 8; 15; 16; 23; 42 |] in
  ignore
    (Machine.spawn machine ~name:"analyst" (fun p ->
         Crt0.run_client smod p ~module_name:"analytics" ~version:1
           ~credential:(Credential.make ~principal:"analyst" ())
           (fun conn ->
             (* The data set lives on the CLIENT heap. *)
             let base = Aspace.heap_base p.Proc.aspace in
             Aspace.obreak p.Proc.aspace (base + 4096);
             Array.iteri
               (fun i v -> Aspace.write_word p.Proc.aspace ~addr:(base + (4 * i)) v)
               data;
             let n = Array.length data in
             let s = Stub.call conn ~func:"sum" [| base; n |] in
             let m = Stub.call conn ~func:"mean" [| base; n |] in
             let v = Stub.call conn ~func:"var_num" [| base; n |] in
             let expect_sum = Array.fold_left ( + ) 0 data in
             let expect_var_num =
               (n * Array.fold_left (fun a x -> a + (x * x)) 0 data) - (expect_sum * expect_sum)
             in
             Printf.printf "sum      = %5d (expected %d)\n" s expect_sum;
             Printf.printf "mean     = %5d (expected %d)\n" m (expect_sum / n);
             Printf.printf "n^2*var  = %5d (expected %d)\n" v expect_var_num;
             (* Show the linker's work: the handle's mapped text has the
                call operands patched to absolute addresses. *)
             let session = Option.get (Smod.session_of_client smod ~client_pid:p.Proc.pid) in
             let handle_as = Smod.handle_aspace smod session in
             let sym = Option.get (Smod_modfmt.Smof.find_symbol image "mean") in
             let mapped =
               Aspace.read_bytes handle_as
                 ~addr:(Smod_vmem.Layout.module_text_base + sym.Smod_modfmt.Smof.sym_offset)
                 ~len:sym.Smod_modfmt.Smof.sym_size
             in
             Printf.printf "\nmean() as linked into the handle (note the patched call):\n%s"
               (Format.asprintf "%a" Smod_svm.Asm.pp_listing mapped))));
  Machine.run machine
