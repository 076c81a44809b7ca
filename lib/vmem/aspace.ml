module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model

(* Observability (lib/metrics): the paper's modified-UVM events —
   ordinary fault resolutions, faults resolved by mapping the peer's
   frame (modified uvm_fault), and uvmspace_force_share calls. *)
let m_scope = Smod_metrics.scope "vmem"
let m_faults = Smod_metrics.Scope.counter m_scope "faults"
let m_peer_share_faults = Smod_metrics.Scope.counter m_scope "peer_share_faults"
let m_pages_mapped = Smod_metrics.Scope.counter m_scope "pages_mapped"
let m_pages_unmapped = Smod_metrics.Scope.counter m_scope "pages_unmapped"
let m_force_shares = Smod_metrics.Scope.counter m_scope "force_share_calls"
let m_pages_force_shared = Smod_metrics.Scope.counter m_scope "pages_force_shared"

type kind = Text | Data | Heap | Stack | Secret | Mmap

type entry = {
  mutable start_addr : int;
  mutable end_addr : int;
  mutable prot : Prot.t;
  kind : kind;
  name : string;
  mutable inherited_from_peer : bool;
}

exception Segv of { addr : int; access : Prot.access }
exception Prot_violation of { addr : int; access : Prot.access }
exception Overlap of { start_addr : int; end_addr : int }
exception Bad_range of string

type mapping = { mutable frame : Phys.frame; mutable shared : bool }

type t = {
  phys : Phys.t;
  clock : Clock.t;
  name : string;
  mutable entries : entry list;  (* sorted by start_addr *)
  pages : (int, mapping) Hashtbl.t;  (* vpn -> mapping; grows with what is mapped *)
  mutable heap_base_addr : int;
  mutable brk_addr : int;
  mutable peer : t option;
  mutable share_lo : int;
  mutable share_hi : int;
  (* One-entry software TLB: the last translation [ensure_mapped] made
     (page, mapping, governing entry's prot), trusted only while the
     allocator's epoch is still [tlb_epoch]. *)
  mutable tlb_vpn : int;
  mutable tlb_map : mapping option;
  mutable tlb_prot : Prot.t;
  mutable tlb_epoch : int;
}

let create ~phys ~clock ~name =
  {
    phys;
    clock;
    name;
    entries = [];
    pages = Hashtbl.create 16;
    heap_base_addr = Layout.data_base;
    brk_addr = Layout.data_base;
    peer = None;
    share_lo = 0;
    share_hi = 0;
    tlb_vpn = 0;
    tlb_map = None;
    tlb_prot = Prot.none;
    tlb_epoch = 0;
  }

(* Any change to what [governing_entry] or a page table answers, in any
   space on this allocator, ends every cached translation: inside the
   share window a space's governing entry can be its peer's, so a change
   to one space can stale the other's translation. *)
let invalidate t = Phys.bump_epoch t.phys

let name t = t.name
let phys t = t.phys
let clock t = t.clock
let entries t = t.entries
let peer t = t.peer

let in_share_range t addr = t.peer <> None && addr >= t.share_lo && addr < t.share_hi

let check_range ~start_addr ~size =
  if size <= 0 then raise (Bad_range "empty region");
  if not (Layout.is_page_aligned start_addr) then raise (Bad_range "unaligned start");
  if not (Layout.is_page_aligned size) then raise (Bad_range "unaligned size")

let overlaps e lo hi = e.start_addr < hi && lo < e.end_addr

let add_entry t ~start_addr ~size ~prot ~kind ~name =
  check_range ~start_addr ~size;
  let end_addr = start_addr + size in
  List.iter
    (fun e -> if overlaps e start_addr end_addr then raise (Overlap { start_addr; end_addr }))
    t.entries;
  let entry = { start_addr; end_addr; prot; kind; name; inherited_from_peer = false } in
  invalidate t;
  t.entries <- List.sort (fun a b -> compare a.start_addr b.start_addr) (entry :: t.entries)

let find_entry t addr =
  List.find_opt (fun e -> addr >= e.start_addr && addr < e.end_addr) t.entries

(* The entry that governs [addr] for protection purposes: a local one, or —
   inside the forced-share range — the peer's (the paper's modified
   uvm_fault consults the other process's map). *)
let governing_entry t addr =
  match find_entry t addr with
  | Some _ as found -> found
  | None ->
      if in_share_range t addr then
        match t.peer with Some p -> find_entry p addr | None -> None
      else None

let drop_page t vpn =
  match Hashtbl.find_opt t.pages vpn with
  | None -> ()
  | Some m ->
      Phys.decref t.phys m.frame;
      Hashtbl.remove t.pages vpn;
      Smod_metrics.Counter.incr m_pages_unmapped;
      Clock.charge t.clock Cost.Page_unmap

let remove_range t ~start_addr ~size =
  check_range ~start_addr ~size;
  let end_addr = start_addr + size in
  let lo_vpn = Layout.vpn_of_addr start_addr and hi_vpn = Layout.vpn_of_addr (end_addr - 1) in
  if hi_vpn - lo_vpn + 1 <= Hashtbl.length t.pages then
    for vpn = lo_vpn to hi_vpn do
      drop_page t vpn
    done
  else begin
    (* Sparse mapping under a huge range (e.g. the ~3 GB force-share
       window): walk the page table rather than every vpn in the range. *)
    let victims =
      Hashtbl.fold
        (fun vpn _ acc -> if vpn >= lo_vpn && vpn <= hi_vpn then vpn :: acc else acc)
        t.pages []
    in
    List.iter (drop_page t) victims
  end;
  Clock.charge t.clock Cost.Tlb_flush;
  let adjust acc e =
    if not (overlaps e start_addr end_addr) then e :: acc
    else if e.start_addr >= start_addr && e.end_addr <= end_addr then acc (* fully covered *)
    else if e.start_addr < start_addr && e.end_addr > end_addr then begin
      (* split in two *)
      let right =
        {
          start_addr = end_addr;
          end_addr = e.end_addr;
          prot = e.prot;
          kind = e.kind;
          name = e.name;
          inherited_from_peer = e.inherited_from_peer;
        }
      in
      e.end_addr <- start_addr;
      right :: e :: acc
    end
    else if e.start_addr < start_addr then begin
      e.end_addr <- start_addr;
      e :: acc
    end
    else begin
      e.start_addr <- end_addr;
      e :: acc
    end
  in
  invalidate t;
  t.entries <-
    List.sort (fun a b -> compare a.start_addr b.start_addr) (List.fold_left adjust [] t.entries)

let protect_range t ~start_addr ~size ~prot =
  check_range ~start_addr ~size;
  let end_addr = start_addr + size in
  (* Before the walk: a partial cover raises after earlier entries changed. *)
  invalidate t;
  List.iter
    (fun e ->
      if overlaps e start_addr end_addr then begin
        if e.start_addr < start_addr || e.end_addr > end_addr then
          raise (Bad_range "protect_range must cover whole entries");
        e.prot <- prot;
        Clock.charge t.clock Cost.Page_protect
      end)
    t.entries;
  Clock.charge t.clock Cost.Tlb_flush

let install_shared t vpn frame =
  Phys.incref frame;
  let m = { frame; shared = true } in
  Hashtbl.replace t.pages vpn m;
  invalidate t;
  Smod_metrics.Counter.incr m_pages_mapped;
  Clock.charge t.clock Cost.Page_map;
  m

(* The governing entry of [addr] allows the access: find or materialize
   the page's mapping. *)
let fault_in t ~addr vpn =
  match Hashtbl.find_opt t.pages vpn with
  | Some m -> m
  | None -> (
      let peer_mapping =
        if in_share_range t addr then
          match t.peer with
          | Some p -> Hashtbl.find_opt p.pages vpn
          | None -> None
        else None
      in
      Smod_metrics.Counter.incr m_faults;
      match peer_mapping with
      | Some pm ->
          (* Modified uvm_fault: the peer already has this page — map the
             same frame here as a share. *)
          Clock.charge t.clock Cost.Peer_share_fault;
          Smod_metrics.Counter.incr m_peer_share_faults;
          pm.shared <- true;
          install_shared t vpn pm.frame
      | None ->
          Clock.charge t.clock Cost.Page_fault_resolve;
          let frame = Phys.alloc t.phys in
          let m = { frame; shared = in_share_range t addr } in
          Hashtbl.replace t.pages vpn m;
          invalidate t;
          Smod_metrics.Counter.incr m_pages_mapped;
          Clock.charge t.clock Cost.Page_map;
          m)

(* The prot of the entry governing [addr], if it allows [access]. *)
let checked_prot t ~addr ~access =
  match governing_entry t addr with
  | None -> raise (Segv { addr; access })
  | Some entry ->
      if not (Prot.allows entry.prot access) then raise (Prot_violation { addr; access });
      entry.prot

let fault t ~addr ~access =
  ignore (checked_prot t ~addr ~access);
  ignore (fault_in t ~addr (Layout.vpn_of_addr addr))

let is_mapped t addr = Hashtbl.mem t.pages (Layout.vpn_of_addr addr)

let is_shared_with_peer t addr =
  match (Hashtbl.find_opt t.pages (Layout.vpn_of_addr addr), t.peer) with
  | Some m, Some p -> (
      match Hashtbl.find_opt p.pages (Layout.vpn_of_addr addr) with
      | Some pm -> m.frame == pm.frame
      | None -> false)
  | _ -> false

let frame_id t addr =
  Option.map (fun m -> Phys.id m.frame) (Hashtbl.find_opt t.pages (Layout.vpn_of_addr addr))

let set_peer t p =
  t.peer <- p;
  invalidate t

let force_share ~client ~handle ~lo ~hi =
  if not (Layout.is_page_aligned lo && Layout.is_page_aligned hi && lo < hi) then
    raise (Bad_range "force_share range");
  Smod_metrics.Counter.incr m_force_shares;
  (* 1. Unmap everything the handle holds in the range. *)
  remove_range handle ~start_addr:lo ~size:(hi - lo);
  (* 2. Duplicate the client's entries over the range into the handle. *)
  List.iter
    (fun e ->
      if overlaps e lo hi then begin
        let s = max e.start_addr lo and f = min e.end_addr hi in
        handle.entries <-
          {
            start_addr = s;
            end_addr = f;
            prot = e.prot;
            kind = e.kind;
            name = e.name;
            inherited_from_peer = true;
          }
          :: handle.entries
      end)
    client.entries;
  handle.entries <-
    List.sort (fun a b -> compare a.start_addr b.start_addr) handle.entries;
  (* 3. Share every page the client has already materialised. *)
  Hashtbl.iter
    (fun vpn (m : mapping) ->
      let addr = Layout.addr_of_vpn vpn in
      if addr >= lo && addr < hi then begin
        m.shared <- true;
        Smod_metrics.Counter.incr m_pages_force_shared;
        ignore (install_shared handle vpn m.frame)
      end)
    client.pages;
  (* 4. Wire the pair up for future faults and heap growth. *)
  client.peer <- Some handle;
  handle.peer <- Some client;
  client.share_lo <- lo;
  client.share_hi <- hi;
  handle.share_lo <- lo;
  handle.share_hi <- hi;
  handle.heap_base_addr <- client.heap_base_addr;
  handle.brk_addr <- client.brk_addr;
  invalidate client;
  Clock.charge client.clock Cost.Tlb_flush

let heap_base t = t.heap_base_addr
let brk t = t.brk_addr

let set_heap_base t base =
  if not (Layout.is_page_aligned base) then raise (Bad_range "heap base unaligned");
  t.heap_base_addr <- base;
  t.brk_addr <- base

let heap_entry t = List.find_opt (fun e -> e.kind = Heap) t.entries

let rec obreak t new_brk =
  if new_brk < t.heap_base_addr then raise (Bad_range "break below heap base");
  if new_brk >= Layout.stack_top - (Layout.default_stack_pages * Layout.page_size) then
    raise (Bad_range "break collides with stack");
  let old_end = Layout.page_align_up t.brk_addr in
  let new_end = Layout.page_align_up new_brk in
  let grow_entry () =
    match heap_entry t with
    | Some e ->
        if new_end > e.end_addr then e.end_addr <- new_end
        else if new_end < e.end_addr && new_end > e.start_addr then begin
          remove_range t ~start_addr:new_end ~size:(e.end_addr - new_end);
          ()
        end
        else if new_end <= e.start_addr then
          remove_range t ~start_addr:e.start_addr ~size:(e.end_addr - e.start_addr)
    | None ->
        if new_end > t.heap_base_addr then
          add_entry t ~start_addr:t.heap_base_addr
            ~size:(new_end - t.heap_base_addr)
            ~prot:Prot.rw ~kind:Heap ~name:"heap"
  in
  ignore old_end;
  grow_entry ();
  invalidate t;
  t.brk_addr <- new_brk;
  (* Modified sys_obreak: keep the paired space's heap converged so that
     faults on either side can resolve through the share. *)
  match t.peer with
  | Some p when p.brk_addr <> new_brk -> obreak p new_brk
  | Some _ | None -> ()

(* --------------------------------------------------------------- *)
(* Byte access                                                      *)
(* --------------------------------------------------------------- *)

(* Every load and store checks protection against the governing entry,
   faulting the page in on first touch.  A TLB hit re-checks the cached
   prot and skips the entry walk and page-table lookup; neither path
   charges anything beyond what a fault charges. *)
let ensure_mapped t addr access =
  let vpn = Layout.vpn_of_addr addr in
  match t.tlb_map with
  | Some m when t.tlb_vpn = vpn && t.tlb_epoch = Phys.epoch t.phys ->
      if not (Prot.allows t.tlb_prot access) then raise (Prot_violation { addr; access });
      m
  | _ ->
      let prot = checked_prot t ~addr ~access in
      let m = fault_in t ~addr vpn in
      t.tlb_vpn <- vpn;
      t.tlb_map <- Some m;
      t.tlb_prot <- prot;
      t.tlb_epoch <- Phys.epoch t.phys;
      m

type page = Phys.frame

let read_page t ~addr = (ensure_mapped t addr Prot.Read).frame
let page_u8 = Phys.get_u8

let read_bytes t ~addr ~len =
  if len < 0 then raise (Bad_range "negative length");
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let m = ensure_mapped t a Prot.Read in
    let page_off = a land (Layout.page_size - 1) in
    let chunk = min (Layout.page_size - page_off) (len - !pos) in
    Phys.blit_to_bytes m.frame page_off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let equal_bytes t ~addr expected =
  let len = Bytes.length expected in
  let pos = ref 0 and same = ref true in
  while !pos < len do
    let a = addr + !pos in
    let m = ensure_mapped t a Prot.Read in
    let page_off = a land (Layout.page_size - 1) in
    let chunk = min (Layout.page_size - page_off) (len - !pos) in
    for i = 0 to chunk - 1 do
      if Phys.get_u8 m.frame (page_off + i) <> Char.code (Bytes.get expected (!pos + i)) then
        same := false
    done;
    pos := !pos + chunk
  done;
  !same

let write_bytes t ~addr data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let m = ensure_mapped t a Prot.Write in
    let page_off = a land (Layout.page_size - 1) in
    let chunk = min (Layout.page_size - page_off) (len - !pos) in
    Phys.blit_from_bytes data !pos m.frame page_off chunk;
    pos := !pos + chunk
  done

let map_image t ~addr image =
  if not (Layout.is_page_aligned addr) then raise (Bad_range "map_image unaligned");
  for page = 0 to Phys.image_pages image - 1 do
    let m = ensure_mapped t (addr + (page * Layout.page_size)) Prot.Write in
    Phys.map_image m.frame image ~page
  done

let read_u8 t ~addr =
  let m = ensure_mapped t addr Prot.Read in
  Phys.get_u8 m.frame (addr land (Layout.page_size - 1))

let write_u8 t ~addr v =
  let m = ensure_mapped t addr Prot.Write in
  Phys.set_u8 m.frame (addr land (Layout.page_size - 1)) v

let read_word t ~addr =
  let off = addr land (Layout.page_size - 1) in
  if off <= Layout.page_size - 4 then begin
    let m = ensure_mapped t addr Prot.Read in
    Phys.get_u32 m.frame off
  end
  else begin
    let b = read_bytes t ~addr ~len:4 in
    Char.code (Bytes.get b 0)
    lor (Char.code (Bytes.get b 1) lsl 8)
    lor (Char.code (Bytes.get b 2) lsl 16)
    lor (Char.code (Bytes.get b 3) lsl 24)
  end

let write_word t ~addr v =
  let v = v land 0xFFFFFFFF in
  let off = addr land (Layout.page_size - 1) in
  if off <= Layout.page_size - 4 then begin
    let m = ensure_mapped t addr Prot.Write in
    Phys.set_u32 m.frame off v
  end
  else begin
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr (v land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 3 (Char.chr ((v lsr 24) land 0xff));
    write_bytes t ~addr b
  end

let read_string t ~addr ~max_len =
  let buf = Buffer.create 32 in
  let rec loop i =
    if i >= max_len then Buffer.contents buf
    else begin
      let c = read_u8 t ~addr:(addr + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        loop (i + 1)
      end
    end
  in
  loop 0

let write_string t ~addr s =
  write_bytes t ~addr (Bytes.of_string (s ^ "\000"))

let zero_materialized t ~start_addr ~size =
  check_range ~start_addr ~size;
  let end_addr = start_addr + size in
  let lo_vpn = Layout.vpn_of_addr start_addr and hi_vpn = Layout.vpn_of_addr (end_addr - 1) in
  let zeroed = ref 0 in
  Hashtbl.iter
    (fun vpn (m : mapping) ->
      if vpn >= lo_vpn && vpn <= hi_vpn then begin
        Phys.zero m.frame;
        zeroed := !zeroed + Layout.page_size
      end)
    t.pages;
  !zeroed

let mapped_page_count t = Hashtbl.length t.pages

let shared_page_count t =
  Hashtbl.fold (fun _ m acc -> if m.shared then acc + 1 else acc) t.pages 0

let destroy t =
  Hashtbl.iter (fun _ m -> Phys.decref t.phys m.frame) t.pages;
  Hashtbl.reset t.pages;
  t.entries <- [];
  t.peer <- None;
  t.tlb_map <- None;
  invalidate t

let clone t ~name =
  let child = create ~phys:t.phys ~clock:t.clock ~name in
  child.heap_base_addr <- t.heap_base_addr;
  child.brk_addr <- t.brk_addr;
  child.entries <-
    List.map
      (fun e ->
        {
          start_addr = e.start_addr;
          end_addr = e.end_addr;
          prot = e.prot;
          kind = e.kind;
          name = e.name;
          inherited_from_peer = e.inherited_from_peer;
        })
      t.entries;
  Hashtbl.iter
    (fun vpn (m : mapping) ->
      if m.shared then begin
        Phys.incref m.frame;
        Hashtbl.replace child.pages vpn { frame = m.frame; shared = true }
      end
      else begin
        let f = Phys.alloc t.phys in
        Phys.copy ~src:m.frame ~dst:f;
        Hashtbl.replace child.pages vpn { frame = f; shared = false };
        Clock.charge t.clock (Cost.Copy_bytes Layout.page_size)
      end)
    t.pages;
  child

let pp_kind ppf = function
  | Text -> Format.pp_print_string ppf "text"
  | Data -> Format.pp_print_string ppf "data"
  | Heap -> Format.pp_print_string ppf "heap"
  | Stack -> Format.pp_print_string ppf "stack"
  | Secret -> Format.pp_print_string ppf "secret"
  | Mmap -> Format.pp_print_string ppf "mmap"

let pp_layout ppf t =
  Format.fprintf ppf "address space %S (brk=0x%08x, %d pages mapped, %d shared)@\n" t.name
    t.brk_addr (mapped_page_count t) (shared_page_count t);
  List.iter
    (fun e ->
      let kind = Format.asprintf "%a" pp_kind e.kind in
      Format.fprintf ppf "  0x%08x-0x%08x %a %-6s %s%s@\n" e.start_addr e.end_addr Prot.pp
        e.prot kind e.name
        (if e.inherited_from_peer then " (shared-from-peer)" else ""))
    t.entries
