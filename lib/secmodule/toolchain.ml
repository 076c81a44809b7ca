module Smof = Smod_modfmt.Smof

let scan_functions image =
  (* Literally the paper's pipeline: take the objdump -t listing and keep
     the lines containing " F ". *)
  String.split_on_char '\n' (Smof.objdump_t image)
  |> List.filter_map (fun line ->
         let is_function =
           let needle = " F " in
           let n = String.length line and m = String.length needle in
           let rec scan i = i + m <= n && (String.sub line i m = needle || scan (i + 1)) in
           scan 0
         in
         if not is_function then None
         else begin
           match String.rindex_opt line ' ' with
           | Some i -> Some (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None
         end)

let stub_table image =
  List.mapi (fun id (s : Smof.symbol) -> (s.Smof.sym_name, id)) (Smof.function_symbols image)

let stub_source image =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "; autogenerated SecModule client stubs for %s v%d\n"
       image.Smof.mod_name image.Smof.mod_version);
  List.iter
    (fun (name, id) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\nSMOD_client_%s:\n\
           \        push    %%ebp            ; state 1: frame\n\
           \        mov     %%esp, %%ebp\n\
           \        push    $MODULE_ID      ; state 2: ids for the kernel\n\
           \        push    $%d             ; funcID (%s)\n\
           \        push    4(%%ebp)         ; dup return address\n\
           \        push    (%%ebp)          ; dup client FP\n\
           \        int     $0x80           ; sys_smod_call (307)\n\
           \        add     $16, %%esp       ; drop ids and dups\n\
           \        pop     %%ebp\n\
           \        ret\n"
           name id name))
    (stub_table image);
  Buffer.contents buf

let assemble_module ~name ~version funcs =
  let b = Smof.Builder.create ~name ~version in
  let fnames = List.map fst funcs in
  List.iter
    (fun (fname, source) ->
      let code, relocs = Smod_svm.Asm.assemble_function source in
      List.iter
        (fun (_, target) ->
          if not (List.mem target fnames) then
            raise
              (Smof.Malformed
                 (Printf.sprintf "%s calls %s, which is not in module %s" fname target name)))
        relocs;
      ignore (Smof.Builder.add_function b ~name:fname ~relocs ~code ()))
    funcs;
  Smof.Builder.finish b

(* The vendor's half of §4.1, plus the kernel's link of the sealed bytes,
   done here once for every kernel that registers them.  Nothing here
   touches a kernel, a clock or a metric, so a sealed module can be built
   once and registered with any number of kernels. *)
type sealed = {
  image : Smof.t;
  protection : Registry.protection;
  key : string option;
  nonce : bytes option;
  link : Registry.link option;  (* none if the sealed text fails its link *)
}

let seal ~image ?(protection = Registry.Unmap_only) ?key_seed () =
  let image, key, nonce =
    match protection with
    | Registry.Unmap_only -> (image, None, None)
    | Registry.Encrypted ->
        let seed = match key_seed with Some s -> s | None -> image.Smof.mod_name in
        let key =
          Bytes.to_string (Bytes.sub (Smod_crypto.Sha256.digest_string ("key:" ^ seed)) 0 16)
        in
        let nonce = Bytes.sub (Smod_crypto.Sha256.digest_string ("nonce:" ^ seed)) 0 16 in
        (Smof.encrypt_text image ~key ~nonce, Some key, Some nonce)
  in
  let link =
    match Registry.link_image image ~key ~nonce with
    | link -> Some link
    | exception Smof.Malformed _ -> None
  in
  { image; protection; key; nonce; link }

let shipped_text { image; _ } = Bytes.to_string image.Smof.text

(* The kernel's half.  Every entry gets its own copy of each mutable
   byte it keeps, so one sealed module can back entries in any number of
   worlds (and domains) without any two of them sharing state.  The seal's
   text goes with its link uncopied: [Registry.add] keeps none of it if it
   adopts the link, never written, and copies it if it refuses the link.
   Only a seal without a link has its text copied here. *)
let register smod { image; protection; key; nonce; link } ?(policy = Policy.Session_lifetime)
    ?(admin_principal = "root") () =
  let image =
    {
      image with
      Smof.text = (if Option.is_none link then Bytes.copy image.Smof.text else image.Smof.text);
      data = Bytes.copy image.Smof.data;
      text_digest = Bytes.copy image.Smof.text_digest;
    }
  in
  Smod.register smod ~image ~protection ~policy ~admin_principal ?kernel_key:key
    ?kernel_nonce:(Option.map Bytes.copy nonce) ?link ()

let package smod ~image ?protection ?policy ?admin_principal ?key_seed () =
  register smod (seal ~image ?protection ?key_seed ()) ?policy ?admin_principal ()
