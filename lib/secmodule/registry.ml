module Smof = Smod_modfmt.Smof

type protection = Encrypted | Unmap_only

type native_fn = Smod_kern.Machine.t -> Smod_kern.Proc.t -> args_base:int -> int

type entry = {
  m_id : int;
  image : Smof.t;
  protection : protection;
  mutable policy : Policy.t;
  mutable policy_rev : int;
  admin_principal : string;
  kernel_key : string option;
  kernel_nonce : bytes option;
  natives : (string, native_fn) Hashtbl.t;
  functions : Smof.symbol array;
  mutable native_images : bytes option array;
  func_ids : (string, int) Hashtbl.t;
  mutable linked : (Smof.t * Smod_vmem.Phys.image) option;
  (* Compiled-policy cache: Policy.compiled keyed by
     "<credential digest>\x00<policy_rev>\x00<keystore generation>", so a
     stale program can never be returned — but stale entries are also
     flushed eagerly (policy change here; keystore change, engine switch
     and module registration or removal in Smod) to keep the table
     bounded and the invalidation counters honest. *)
  compiled_cache : (string, Policy.compiled) Hashtbl.t;
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable compile_invalidations : int;
}

type t = { mutable next_id : int; by_id : (int, entry) Hashtbl.t }

exception Not_registered of string
exception Already_registered of string

let create () = { next_id = 1; by_id = Hashtbl.create 16 }

let find t ~name ~version =
  Hashtbl.fold
    (fun _ e acc ->
      if e.image.Smof.mod_name = name && e.image.Smof.mod_version = version then Some e else acc)
    t.by_id None

(* A module as the kernel links it, with the image, key and nonce it was
   linked from: those are what an entry must hold to adopt it. *)
type link = {
  lk_source : Smof.t;
  lk_key : string option;
  lk_nonce : bytes option;
  lk_linked : Smof.t * Smod_vmem.Phys.image;
}

(* Decrypt with the kernel-held key, check the masked digest (in
   [Smof.decrypt_text]) and relocate against the handle's text base.  The
   text lives on only as the chunks handles map. *)
let link_image image ~key ~nonce =
  let plaintext =
    match (image.Smof.encrypted, key, nonce) with
    | false, _, _ -> image
    | true, Some key, Some nonce -> Smof.decrypt_text image ~key ~nonce
    | true, _, _ -> raise (Smof.Malformed "encrypted module has no kernel key")
  in
  let resolve name =
    match Smof.find_symbol plaintext name with
    | Some sym -> Smod_vmem.Layout.module_text_base + sym.Smof.sym_offset
    | None -> 0
  in
  let relocated = Smof.apply_relocations plaintext ~resolve in
  {
    lk_source = image;
    lk_key = key;
    lk_nonce = nonce;
    lk_linked =
      ( { relocated with Smof.text = Bytes.empty },
        Smod_vmem.Phys.image_of_bytes relocated.Smof.text );
  }

(* A link stands for an entry only if it was made from exactly the entry's
   image (text, data, digest, symbols, relocations), key and nonce. *)
let made_from lk ~image ~key ~nonce =
  lk.lk_source = image && lk.lk_key = key && lk.lk_nonce = nonce

let add t ~image ~protection ~policy ~admin_principal ?kernel_key ?kernel_nonce ?link () =
  (match find t ~name:image.Smof.mod_name ~version:image.Smof.mod_version with
  | Some _ ->
      raise
        (Already_registered
           (Printf.sprintf "%s v%d" image.Smof.mod_name image.Smof.mod_version))
  | None -> ());
  if image.Smof.encrypted && kernel_key = None then
    invalid_arg "Registry.add: encrypted image requires a kernel key";
  let functions = Array.of_list (Smof.function_symbols image) in
  (* A duplicate name maps to the later symbol in text order. *)
  let func_ids = Hashtbl.create (Array.length functions) in
  Array.iteri
    (fun id (sym : Smof.symbol) -> Hashtbl.replace func_ids sym.Smof.sym_name id)
    functions;
  let entry =
    {
      m_id = t.next_id;
      image;
      protection;
      policy;
      policy_rev = 1;
      admin_principal;
      kernel_key;
      kernel_nonce;
      natives = Hashtbl.create 8;
      functions;
      native_images = [||];
      func_ids;
      linked =
        (match link with
        | Some lk when made_from lk ~image ~key:kernel_key ~nonce:kernel_nonce ->
            Some lk.lk_linked
        | Some _ | None -> None);
      compiled_cache = Hashtbl.create 8;
      compile_hits = 0;
      compile_misses = 0;
      compile_invalidations = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.by_id entry.m_id entry;
  entry

let remove t ~m_id =
  if not (Hashtbl.mem t.by_id m_id) then
    raise (Not_registered (Printf.sprintf "m_id %d" m_id));
  Hashtbl.remove t.by_id m_id

let find_by_id t m_id = Hashtbl.find_opt t.by_id m_id
let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_id []

(* Image, key and nonce never change after [add], so the first success is
   the answer for good; a failure stores nothing and fails again. *)
let link e =
  match e.linked with
  | Some linked -> linked
  | None ->
      let linked = (link_image e.image ~key:e.kernel_key ~nonce:e.kernel_nonce).lk_linked in
      e.linked <- Some linked;
      linked

let linked_image e = fst (link e)
let linked_text e = snd (link e)

let func_id e name = Hashtbl.find_opt e.func_ids name

let symbol_of_func_id e id =
  if id >= 0 && id < Array.length e.functions then Some e.functions.(id) else None

(* One stand-in per symbol, built on its first call: registering seclibc
   hashes none of its stand-ins, and an entry whose natives never run
   holds no table for them. *)
let native_image e ~func_id =
  if Array.length e.native_images = 0 then
    e.native_images <- Array.make (Array.length e.functions) None;
  match e.native_images.(func_id) with
  | Some image -> image
  | None ->
      let sym = e.functions.(func_id) in
      let name =
        match sym.Smof.sym_kind with
        | Smof.Native name -> name
        | Smof.Bytecode -> invalid_arg "Registry.native_image: a bytecode symbol"
      in
      let image = Smof.native_stub_image ~name ~size:sym.Smof.sym_size in
      e.native_images.(func_id) <- Some image;
      image

(* The program cache's traffic, counted once here for every caller.  A
   policy swap flushes through [reset_compiled], which counts on the entry
   only: the metric counts programs dropped by kernel-wide events (a
   keystore change, an engine switch, module registration or removal). *)
let m_scope = Smod_metrics.scope "secmodule"
let m_compile_hits = Smod_metrics.Scope.counter m_scope "policy_compile_hits"
let m_compile_misses = Smod_metrics.Scope.counter m_scope "policy_compile_misses"

let m_compile_invalidations =
  Smod_metrics.Scope.counter m_scope "policy_compile_invalidations"

let reset_compiled e =
  let n = Hashtbl.length e.compiled_cache in
  if n > 0 then begin
    Hashtbl.reset e.compiled_cache;
    e.compile_invalidations <- e.compile_invalidations + n
  end;
  n

let flush_compiled e = Smod_metrics.Counter.add m_compile_invalidations (reset_compiled e)

let compiled_key ~cred_digest ~policy_rev ~keystore_gen =
  Printf.sprintf "%s\x00%d\x00%d" cred_digest policy_rev keystore_gen

let find_compiled e key =
  match Hashtbl.find_opt e.compiled_cache key with
  | Some c ->
      e.compile_hits <- e.compile_hits + 1;
      Smod_metrics.Counter.incr m_compile_hits;
      Some c
  | None -> None

let store_compiled e key compiled =
  e.compile_misses <- e.compile_misses + 1;
  Smod_metrics.Counter.incr m_compile_misses;
  Hashtbl.replace e.compiled_cache key compiled

let set_policy e policy =
  e.policy <- policy;
  e.policy_rev <- e.policy_rev + 1;
  ignore (reset_compiled e)

let bind_native e ~name fn = Hashtbl.replace e.natives name fn
let native e name = Hashtbl.find_opt e.natives name
