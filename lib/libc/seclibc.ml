module Smof = Smod_modfmt.Smof
module Aspace = Smod_vmem.Aspace
module Proc = Smod_kern.Proc
module Machine = Smod_kern.Machine
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
open Secmodule

let module_name = "seclibc"
let version = 1

(* Pure bytecode members: they exercise the module VM through the whole
   encrypted-text path. *)
let test_incr_source = "loadarg 0\npush 1\nadd\nret\n"

let abs_source =
  "loadarg 0\ndup\npush 2147483648\nltu\njnz positive\npush 0\nswap\nsub\nret\npositive:\nret\n"

let natives =
  (* (symbol, native key, size hint) *)
  [
    ("malloc", "libc_malloc", 208);
    ("free", "libc_free", 176);
    ("calloc", "libc_calloc", 96);
    ("realloc", "libc_realloc", 144);
    ("memcpy", "libc_memcpy", 112);
    ("memset", "libc_memset", 96);
    ("memcmp", "libc_memcmp", 96);
    ("strlen", "libc_strlen", 64);
    ("strcpy", "libc_strcpy", 80);
    ("strncpy", "libc_strncpy", 96);
    ("strcmp", "libc_strcmp", 80);
    ("strncmp", "libc_strncmp", 96);
    ("strchr", "libc_strchr", 64);
    ("strcat", "libc_strcat", 80);
    ("atoi", "libc_atoi", 112);
    ("getpid", "libc_getpid", 48);
    ("memmove", "libc_memmove", 128);
    ("memchr", "libc_memchr", 64);
    ("strstr", "libc_strstr", 112);
    ("strrchr", "libc_strrchr", 64);
    ("strncat", "libc_strncat", 96);
    ("strtol", "libc_strtol", 160);
    ("itoa", "libc_itoa", 128);
    ("qsort", "libc_qsort", 320);
    ("bsearch", "libc_bsearch", 160);
  ]

let image () =
  let b = Smof.Builder.create ~name:module_name ~version in
  ignore
    (Smof.Builder.add_function b ~name:"test_incr"
       ~code:(Smod_svm.Asm.assemble test_incr_source)
       ());
  ignore (Smof.Builder.add_function b ~name:"abs" ~code:(Smod_svm.Asm.assemble abs_source) ());
  List.iter
    (fun (name, native, size_hint) ->
      ignore (Smof.Builder.add_native_function b ~name ~native ~size_hint ()))
    natives;
  Smof.Builder.finish b

let arg aspace args_base k = Aspace.read_word aspace ~addr:(args_base + (4 * k))

let bind_all smod m_id =
  let bind name fn = Smod.bind_native smod ~m_id ~name fn in
  bind "libc_malloc" (fun _m (h : Proc.t) ~args_base ->
      Alloc.malloc h.Proc.aspace (arg h.Proc.aspace args_base 0));
  bind "libc_free" (fun _m h ~args_base ->
      Alloc.free h.Proc.aspace (arg h.Proc.aspace args_base 0);
      0);
  bind "libc_calloc" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Alloc.calloc a ~count:(arg a args_base 0) ~size:(arg a args_base 1));
  bind "libc_realloc" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Alloc.realloc a (arg a args_base 0) (arg a args_base 1));
  bind "libc_memcpy" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.memcpy a ~dst:(arg a args_base 0) ~src:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_memset" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.memset a ~dst:(arg a args_base 0) ~byte:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_memcmp" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.memcmp a (arg a args_base 0) (arg a args_base 1) ~n:(arg a args_base 2) land 0xFFFFFFFF);
  bind "libc_strlen" (fun _m h ~args_base ->
      Str.strlen h.Proc.aspace (arg h.Proc.aspace args_base 0));
  bind "libc_strcpy" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strcpy a ~dst:(arg a args_base 0) ~src:(arg a args_base 1));
  bind "libc_strncpy" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strncpy a ~dst:(arg a args_base 0) ~src:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_strcmp" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strcmp a (arg a args_base 0) (arg a args_base 1) land 0xFFFFFFFF);
  bind "libc_strncmp" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strncmp a (arg a args_base 0) (arg a args_base 1) ~n:(arg a args_base 2)
      land 0xFFFFFFFF);
  bind "libc_strchr" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strchr a (arg a args_base 0) (Char.chr (arg a args_base 1 land 0xff)));
  bind "libc_strcat" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strcat a ~dst:(arg a args_base 0) ~src:(arg a args_base 1));
  bind "libc_atoi" (fun _m h ~args_base ->
      Str.atoi h.Proc.aspace (arg h.Proc.aspace args_base 0) land 0xFFFFFFFF);
  bind "libc_memmove" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.memmove a ~dst:(arg a args_base 0) ~src:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_memchr" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.memchr a (arg a args_base 0) ~byte:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_strstr" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strstr a ~haystack:(arg a args_base 0) ~needle:(arg a args_base 1));
  bind "libc_strrchr" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strrchr a (arg a args_base 0) (Char.chr (arg a args_base 1 land 0xff)));
  bind "libc_strncat" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.strncat a ~dst:(arg a args_base 0) ~src:(arg a args_base 1) ~n:(arg a args_base 2));
  bind "libc_strtol" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      let value, end_addr = Str.strtol a (arg a args_base 0) ~base:(arg a args_base 2) in
      let endptr = arg a args_base 1 in
      if endptr <> 0 then Aspace.write_word a ~addr:endptr end_addr;
      value land 0xFFFFFFFF);
  bind "libc_itoa" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      Str.itoa a ~value:(arg a args_base 0) ~buf:(arg a args_base 1) ~base:(arg a args_base 2));
  bind "libc_qsort" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      match Sort.comparator_of_code (arg a args_base 3) with
      | None -> 0xFFFFFFFF
      | Some cmp ->
          Sort.qsort a ~base:(arg a args_base 0) ~nmemb:(arg a args_base 1)
            ~size:(arg a args_base 2) ~cmp;
          0);
  bind "libc_bsearch" (fun _m h ~args_base ->
      let a = h.Proc.aspace in
      match Sort.comparator_of_code (arg a args_base 4) with
      | None -> 0
      | Some cmp ->
          Sort.bsearch a ~key:(arg a args_base 0) ~base:(arg a args_base 1)
            ~nmemb:(arg a args_base 2) ~size:(arg a args_base 3) ~cmp);
  bind "libc_getpid" (fun m (h : Proc.t) ~args_base:_ ->
      (* §4.3: the converted getpid reports the client.  The kernel cached
         the client pid in the secret segment at session setup, so this is
         a protected memory read plus the fix-up bookkeeping — no nested
         trap. *)
      let clock = Machine.clock m in
      Clock.charge clock Cost.Getpid_body;
      Clock.charge clock Cost.Getpid_client_fixup;
      Aspace.read_word h.Proc.aspace ~addr:Smod.client_pid_cache_addr)

(* The vendor's half of §4.1, and the host's link of its result, run
   once per program, not once per world: both artifacts come from one
   build, at module initialisation, before any domain exists, and nothing
   mutates them afterwards ([register] copies their bytes into each
   entry, which adopts the seal's link).  Plain values rather than a
   [Lazy.t], which two domains must not force at once. *)
let sealed_encrypted, sealed_unmap_only =
  let image = image () in
  ( Toolchain.seal ~image ~protection:Registry.Encrypted (),
    Toolchain.seal ~image ~protection:Registry.Unmap_only () )

let install smod ?(protection = Registry.Encrypted) ?policy () =
  let sealed =
    match protection with
    | Registry.Encrypted -> sealed_encrypted
    | Registry.Unmap_only -> sealed_unmap_only
  in
  let entry = Toolchain.register smod sealed ?policy () in
  bind_all smod entry.Registry.m_id;
  entry

module Client = struct
  let call1 conn func a = Stub.call conn ~func [| a |]
  let call2 conn func a b = Stub.call conn ~func [| a; b |]
  let call3 conn func a b c = Stub.call conn ~func [| a; b; c |]

  let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

  let malloc conn size = call1 conn "malloc" size
  let free conn ptr = ignore (call1 conn "free" ptr)
  let calloc conn ~count ~size = call2 conn "calloc" count size
  let realloc conn ptr size = call2 conn "realloc" ptr size
  let memcpy conn ~dst ~src ~n = call3 conn "memcpy" dst src n
  let memset conn ~dst ~byte ~n = call3 conn "memset" dst byte n
  let memcmp conn p q ~n = to_signed (call3 conn "memcmp" p q n)
  let strlen conn ptr = call1 conn "strlen" ptr
  let strcpy conn ~dst ~src = call2 conn "strcpy" dst src
  let strcmp conn p q = to_signed (call2 conn "strcmp" p q)
  let strchr conn ptr c = call2 conn "strchr" ptr (Char.code c)
  let atoi conn ptr = to_signed (call1 conn "atoi" ptr)
  let call4 conn func a b c d = Stub.call conn ~func [| a; b; c; d |]
  let call5 conn func a b c d e = Stub.call conn ~func [| a; b; c; d; e |]
  let memmove conn ~dst ~src ~n = call3 conn "memmove" dst src n
  let memchr conn ptr ~byte ~n = call3 conn "memchr" ptr byte n
  let strstr conn ~haystack ~needle = call2 conn "strstr" haystack needle
  let strrchr conn ptr c = call2 conn "strrchr" ptr (Char.code c)
  let strncat conn ~dst ~src ~n = call3 conn "strncat" dst src n

  let strtol conn ptr ~endptr ~base =
    to_signed (call3 conn "strtol" ptr endptr base)

  let itoa conn ~value ~buf ~base = call3 conn "itoa" (value land 0xFFFFFFFF) buf base

  let qsort conn ~base ~nmemb ~size ~cmp_code = ignore (call4 conn "qsort" base nmemb size cmp_code)
  let bsearch conn ~key ~base ~nmemb ~size ~cmp_code = call5 conn "bsearch" key base nmemb size cmp_code
  let getpid conn = Stub.call conn ~func:"getpid" [||]
  let abs conn v = call1 conn "abs" (v land 0xFFFFFFFF)
  let test_incr conn v = call1 conn "test_incr" v
end
