(* Tests for Smod_vmem: frames, address spaces, faults, and — centrally —
   the three UVM modifications from the paper's Figure 6. *)

module Layout = Smod_vmem.Layout
module Phys = Smod_vmem.Phys
module Prot = Smod_vmem.Prot
module Aspace = Smod_vmem.Aspace
module Clock = Smod_sim.Clock
module Proc = Smod_kern.Proc
module World = Smod_bench_kit.World

let mk_clock () = Clock.create ~jitter:0.0 ()

let mk_space ?(name = "t") phys clock =
  let a = Aspace.create ~phys ~clock ~name in
  Aspace.add_entry a ~start_addr:Layout.text_base ~size:(16 * Layout.page_size) ~prot:Prot.rx
    ~kind:Aspace.Text ~name:"text";
  Aspace.add_entry a ~start_addr:Layout.data_base ~size:(16 * Layout.page_size) ~prot:Prot.rw
    ~kind:Aspace.Data ~name:"data";
  let stack = Layout.default_stack_pages * Layout.page_size in
  Aspace.add_entry a ~start_addr:(Layout.stack_top - stack) ~size:stack ~prot:Prot.rw
    ~kind:Aspace.Stack ~name:"stack";
  Aspace.set_heap_base a (Layout.data_base + (16 * Layout.page_size));
  a

let fresh () =
  let phys = Phys.create () in
  let clock = mk_clock () in
  (phys, clock, mk_space phys clock)

(* ------------------------------ layout ----------------------------- *)

let test_layout_alignment () =
  Alcotest.(check int) "align down" 0x4000 (Layout.page_align_down 0x4fff);
  Alcotest.(check int) "align up" 0x5000 (Layout.page_align_up 0x4001);
  Alcotest.(check int) "align up exact" 0x4000 (Layout.page_align_up 0x4000);
  Alcotest.(check bool) "aligned" true (Layout.is_page_aligned 0x8000);
  Alcotest.(check bool) "unaligned" false (Layout.is_page_aligned 0x8004);
  Alcotest.(check int) "vpn" 4 (Layout.vpn_of_addr 0x4abc);
  Alcotest.(check int) "addr of vpn" 0x4000 (Layout.addr_of_vpn 4)

let test_layout_share_range () =
  Alcotest.(check bool) "share range covers data..stack" true
    (Layout.share_lo = Layout.data_base && Layout.share_hi = Layout.stack_top);
  Alcotest.(check bool) "secret above stack top" true (Layout.secret_base >= Layout.stack_top)

(* ------------------------------- phys ------------------------------ *)

let page_bytes f =
  let b = Bytes.create Layout.page_size in
  Phys.blit_to_bytes f 0 b 0 Layout.page_size;
  b

let is_zero_page f = Bytes.for_all (fun c -> c = '\000') (page_bytes f)

let test_phys_alloc_zeroed () =
  let phys = Phys.create () in
  let f = Phys.alloc phys in
  Alcotest.(check int) "refcount 1" 1 (Phys.refcount f);
  Alcotest.(check bool) "zeroed" true (is_zero_page f)

let test_phys_recycle () =
  let phys = Phys.create () in
  let f = Phys.alloc phys in
  Phys.set_u8 f 0 (Char.code 'x');
  Phys.decref phys f;
  Alcotest.(check int) "live back to 0" 0 (Phys.live_frames phys);
  let g = Phys.alloc phys in
  Alcotest.(check bool) "recycled frame is zeroed" true (Phys.get_u8 g 0 = 0)

(* The host reuses a freed block for a new one of the same size, bytes
   and all, so a fresh frame must read zero even though no frame of its
   own allocator was ever freed. *)
let test_phys_fresh_frames_zeroed () =
  let frames = 64 in
  let scribble () =
    let phys = Phys.create () in
    for _ = 1 to frames do
      let f = Phys.alloc phys in
      Phys.blit_from_bytes (Bytes.make Layout.page_size 'S') 0 f 0 Layout.page_size
    done
  in
  for round = 1 to 10 do
    scribble ();
    Gc.full_major ();
    let phys = Phys.create () in
    for _ = 1 to frames do
      let f = Phys.alloc phys in
      if not (is_zero_page f) then
        Alcotest.failf "round %d: fresh frame %d is not zero" round (Phys.id f)
    done
  done

let test_phys_refcounting () =
  let phys = Phys.create () in
  let f = Phys.alloc phys in
  Phys.incref f;
  Phys.decref phys f;
  Alcotest.(check int) "still live" 1 (Phys.live_frames phys);
  Phys.decref phys f;
  Alcotest.(check int) "freed" 0 (Phys.live_frames phys)

let test_phys_out_of_frames () =
  let phys = Phys.create ~limit_frames:2 () in
  let _a = Phys.alloc phys and _b = Phys.alloc phys in
  Alcotest.check_raises "limit" Phys.Out_of_frames (fun () -> ignore (Phys.alloc phys))

(* The host words only [v] reaches, counting neither the zero chunk (a
   fresh frame of another allocator reaches it and nothing of [v]'s) nor
   what [shared] reaches. *)
let words_beyond ?(shared = Obj.repr ()) v =
  let others = Obj.repr (Phys.alloc (Phys.create ()), shared) in
  (* less the three words of the pair itself *)
  Obj.reachable_words (Obj.repr (v, others)) - Obj.reachable_words others - 3

let check_words label words bound =
  let label = Printf.sprintf "%s: %d words, at most %d" label words bound in
  Alcotest.(check bool) label true (words <= bound)

(* A frame costs host words for the chunks written to it: 22 of its own
   and 34 per 256-byte chunk it has copied.  A frame holding its page as
   one 4 KiB buffer is 518 words in every case. *)
let test_phys_frame_words () =
  let phys = Phys.create () in
  let one = Phys.alloc phys in
  Phys.set_u8 one 300 1;
  check_words "one byte written" (words_beyond one) 64;
  let full = Phys.alloc phys in
  Phys.blit_from_bytes (Bytes.make Layout.page_size 'F') 0 full 0 Layout.page_size;
  check_words "every byte written" (words_beyond full) ((16 * 34) + 32);
  Phys.decref phys full;
  check_words "freed, on the free list" (words_beyond full) 24

(* A handle's text page shares its registry entry's linked text. *)
let test_handle_text_page_words () =
  let world = World.create ~jitter:0.0 ~with_rpc:false () in
  let smod = world.World.smod in
  let words = ref max_int in
  World.spawn_seclibc_client world ~name:"client" (fun p _conn ->
      let session = Option.get (Secmodule.Smod.session_of_client smod ~client_pid:p.Proc.pid) in
      let handle_as = Secmodule.Smod.handle_aspace smod session in
      let text = Secmodule.Registry.linked_text world.World.libc_entry in
      let page = Aspace.read_page handle_as ~addr:Layout.module_text_base in
      words := words_beyond ~shared:(Obj.repr text) page);
  World.run world;
  check_words "handle text page beyond the registry's chunks" !words 24

(* ------------------------------ aspace ----------------------------- *)

let test_entry_overlap_rejected () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "overlap raises" true
    (match
       Aspace.add_entry a ~start_addr:Layout.data_base ~size:Layout.page_size ~prot:Prot.rw
         ~kind:Aspace.Mmap ~name:"clash"
     with
    | () -> false
    | exception Aspace.Overlap _ -> true)

let test_entry_unaligned_rejected () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "unaligned raises" true
    (match
       Aspace.add_entry a ~start_addr:(Layout.data_base + 123) ~size:Layout.page_size
         ~prot:Prot.rw ~kind:Aspace.Mmap ~name:"bad"
     with
    | () -> false
    | exception Aspace.Bad_range _ -> true)

let test_demand_paging () =
  let _, _, a = fresh () in
  Alcotest.(check int) "no pages yet" 0 (Aspace.mapped_page_count a);
  Aspace.write_word a ~addr:Layout.data_base 0xdeadbeef;
  Alcotest.(check int) "one page materialised" 1 (Aspace.mapped_page_count a);
  Alcotest.(check int) "read back" 0xdeadbeef (Aspace.read_word a ~addr:Layout.data_base)

let test_segv_outside_entries () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "segv" true
    (match Aspace.read_word a ~addr:0x7000_0000 with
    | _ -> false
    | exception Aspace.Segv _ -> true)

let test_prot_violation_write_text () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "write to r-x faults" true
    (match Aspace.write_word a ~addr:Layout.text_base 1 with
    | () -> false
    | exception Aspace.Prot_violation _ -> true)

let test_prot_violation_exec_data () =
  let _, _, a = fresh () in
  Aspace.write_word a ~addr:Layout.data_base 0;
  Alcotest.(check bool) "exec of rw- page faults" true
    (match Aspace.fault a ~addr:Layout.data_base ~access:Prot.Exec with
    | () -> false
    | exception Aspace.Prot_violation _ -> true)

let test_cross_page_readwrite () =
  let _, _, a = fresh () in
  let addr = Layout.data_base + Layout.page_size - 3 in
  let data = Bytes.of_string "spans a page boundary" in
  Aspace.write_bytes a ~addr data;
  Alcotest.(check bytes) "roundtrip" data
    (Aspace.read_bytes a ~addr ~len:(Bytes.length data));
  Alcotest.(check int) "two pages" 2 (Aspace.mapped_page_count a)

let test_word_at_page_boundary () =
  let _, _, a = fresh () in
  let addr = Layout.data_base + Layout.page_size - 2 in
  Aspace.write_word a ~addr 0x11223344;
  Alcotest.(check int) "straddling word" 0x11223344 (Aspace.read_word a ~addr)

let test_word_masking () =
  let _, _, a = fresh () in
  Aspace.write_word a ~addr:Layout.data_base (-1);
  Alcotest.(check int) "truncated to 32 bits" 0xFFFFFFFF (Aspace.read_word a ~addr:Layout.data_base)

let test_strings () =
  let _, _, a = fresh () in
  Aspace.write_string a ~addr:Layout.data_base "hello";
  Alcotest.(check string) "read back" "hello"
    (Aspace.read_string a ~addr:Layout.data_base ~max_len:100);
  Alcotest.(check string) "max_len truncates" "he"
    (Aspace.read_string a ~addr:Layout.data_base ~max_len:2)

let test_remove_range_unmaps () =
  let phys, _, a = fresh () in
  Aspace.write_word a ~addr:Layout.data_base 1;
  let live = Phys.live_frames phys in
  Aspace.remove_range a ~start_addr:Layout.data_base ~size:(16 * Layout.page_size);
  Alcotest.(check int) "frame released" (live - 1) (Phys.live_frames phys);
  Alcotest.(check bool) "entry gone" true (Aspace.find_entry a Layout.data_base = None)

let test_remove_range_splits () =
  let _, _, a = fresh () in
  let mid = Layout.data_base + (4 * Layout.page_size) in
  Aspace.remove_range a ~start_addr:mid ~size:Layout.page_size;
  (match Aspace.find_entry a Layout.data_base with
  | Some e -> Alcotest.(check int) "left piece truncated" mid e.Aspace.end_addr
  | None -> Alcotest.fail "left piece missing");
  match Aspace.find_entry a (mid + Layout.page_size) with
  | Some e ->
      Alcotest.(check int) "right piece starts after hole" (mid + Layout.page_size)
        e.Aspace.start_addr
  | None -> Alcotest.fail "right piece missing"

let test_protect_range () =
  let _, _, a = fresh () in
  Aspace.write_word a ~addr:Layout.data_base 7;
  Aspace.protect_range a ~start_addr:Layout.data_base ~size:(16 * Layout.page_size)
    ~prot:Prot.r;
  Alcotest.(check int) "read still works" 7 (Aspace.read_word a ~addr:Layout.data_base);
  Alcotest.(check bool) "write now faults" true
    (match Aspace.write_word a ~addr:Layout.data_base 8 with
    | () -> false
    | exception Aspace.Prot_violation _ -> true)

let test_obreak_grow_and_shrink () =
  let _, _, a = fresh () in
  let base = Aspace.heap_base a in
  Aspace.obreak a (base + 10000);
  Aspace.write_word a ~addr:(base + 8192) 42;
  Alcotest.(check int) "heap usable" 42 (Aspace.read_word a ~addr:(base + 8192));
  Aspace.obreak a (base + 4096);
  Alcotest.(check bool) "shrunk region faults" true
    (match Aspace.read_word a ~addr:(base + 8192) with
    | _ -> false
    | exception Aspace.Segv _ -> true)

let test_obreak_below_base_rejected () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "below base" true
    (match Aspace.obreak a (Aspace.heap_base a - 1) with
    | () -> false
    | exception Aspace.Bad_range _ -> true)

let test_obreak_into_stack_rejected () =
  let _, _, a = fresh () in
  Alcotest.(check bool) "collides with stack" true
    (match Aspace.obreak a Layout.stack_top with
    | () -> false
    | exception Aspace.Bad_range _ -> true)

(* --------------------- force_share (Figure 6) ---------------------- *)

let make_pair () =
  let phys = Phys.create () in
  let clock = mk_clock () in
  let client = mk_space ~name:"client" phys clock in
  let handle = mk_space ~name:"handle" phys clock in
  (phys, clock, client, handle)

let test_force_share_same_frames () =
  let _, _, client, handle = make_pair () in
  Aspace.write_word client ~addr:Layout.data_base 0xabc;
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Alcotest.(check bool) "same frame" true
    (Aspace.frame_id client Layout.data_base = Aspace.frame_id handle Layout.data_base);
  Alcotest.(check int) "handle reads client data" 0xabc
    (Aspace.read_word handle ~addr:Layout.data_base)

let test_force_share_write_through () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Aspace.write_word handle ~addr:(Layout.data_base + 64) 123;
  Alcotest.(check int) "client sees handle write" 123
    (Aspace.read_word client ~addr:(Layout.data_base + 64));
  Aspace.write_word client ~addr:(Layout.data_base + 64) 456;
  Alcotest.(check int) "handle sees client write" 456
    (Aspace.read_word handle ~addr:(Layout.data_base + 64))

let test_force_share_drops_handle_pages () =
  let phys, _, client, handle = make_pair () in
  (* The handle has private data pages before the share; they must be
     unmapped and replaced. *)
  Aspace.write_word handle ~addr:Layout.data_base 111;
  Aspace.write_word client ~addr:Layout.data_base 222;
  let live_before = Phys.live_frames phys in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Alcotest.(check int) "handle sees client value" 222
    (Aspace.read_word handle ~addr:Layout.data_base);
  Alcotest.(check int) "handle's private frame freed" (live_before - 1)
    (Phys.live_frames phys)

let test_force_share_outside_range_private () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  (* Text is below share_lo: stays private. *)
  Aspace.fault handle ~addr:Layout.text_base ~access:Prot.Read;
  Alcotest.(check bool) "text not shared" false
    (Aspace.is_shared_with_peer handle Layout.text_base)

let test_fault_consults_peer_lazily () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  (* Client materialises a page AFTER the force-share; the handle's later
     fault must find and share it (modified uvm_fault). *)
  let addr = Layout.data_base + (8 * Layout.page_size) in
  Aspace.write_word client ~addr 77;
  Alcotest.(check bool) "handle not yet mapped" false (Aspace.is_mapped handle addr);
  Alcotest.(check int) "handle faults into the shared page" 77
    (Aspace.read_word handle ~addr);
  Alcotest.(check bool) "now same frame" true
    (Aspace.frame_id client addr = Aspace.frame_id handle addr)

let test_fault_peer_entry_only () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  (* Client grows its heap; the handle touches the new range FIRST: its
     fault resolves through the peer's entry, then the client's own fault
     shares the same frame. *)
  Aspace.obreak client (Aspace.heap_base client + 4096);
  let addr = Aspace.heap_base client in
  Aspace.write_word handle ~addr 31337;
  Alcotest.(check int) "client reads handle-allocated heap" 31337
    (Aspace.read_word client ~addr);
  Alcotest.(check bool) "same frame" true
    (Aspace.frame_id client addr = Aspace.frame_id handle addr)

let test_obreak_propagates_to_peer () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Aspace.obreak handle (Aspace.heap_base handle + 8192);
  Alcotest.(check int) "peer brk converged" (Aspace.brk handle) (Aspace.brk client);
  (* Both can use the new heap and see each other's data. *)
  let addr = Aspace.heap_base client + 4096 in
  Aspace.write_word client ~addr 5;
  Alcotest.(check int) "handle sees it" 5 (Aspace.read_word handle ~addr)

let test_set_peer_none_stops_sharing () =
  let _, _, client, handle = make_pair () in
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Aspace.set_peer client None;
  Aspace.set_peer handle None;
  let addr = Layout.data_base + (12 * Layout.page_size) in
  Aspace.write_word client ~addr 9;
  Aspace.fault handle ~addr ~access:Prot.Read;
  Alcotest.(check int) "handle gets a private zero page now" 0
    (Aspace.read_word handle ~addr)

let test_shared_page_count () =
  let _, _, client, handle = make_pair () in
  Aspace.write_word client ~addr:Layout.data_base 1;
  Aspace.write_word client ~addr:(Layout.data_base + Layout.page_size) 2;
  Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
  Alcotest.(check int) "two pages shared into handle" 2 (Aspace.shared_page_count handle)

(* ------------------------------ clone ------------------------------ *)

let test_clone_copies_private () =
  let _, _, a = fresh () in
  Aspace.write_word a ~addr:Layout.data_base 42;
  let b = Aspace.clone a ~name:"child" in
  Alcotest.(check int) "child sees value" 42 (Aspace.read_word b ~addr:Layout.data_base);
  Aspace.write_word b ~addr:Layout.data_base 43;
  Alcotest.(check int) "parent unaffected" 42 (Aspace.read_word a ~addr:Layout.data_base)

let test_clone_preserves_brk () =
  let _, _, a = fresh () in
  Aspace.obreak a (Aspace.heap_base a + 12288);
  let b = Aspace.clone a ~name:"child" in
  Alcotest.(check int) "brk" (Aspace.brk a) (Aspace.brk b)

let test_destroy_releases_frames () =
  let phys, clock, _ = fresh () in
  let a = mk_space phys clock in
  Aspace.write_word a ~addr:Layout.data_base 1;
  Aspace.write_word a ~addr:(Layout.stack_top - 8) 2;
  let live = Phys.live_frames phys in
  Aspace.destroy a;
  Alcotest.(check int) "frames released" (live - 2) (Phys.live_frames phys)

(* The page table grows with what is mapped.  A space with one entry
   retains 51 words with no page mapped, 60 with one and 517 with 64,
   counting what only the space reaches: the allocator, the clock and the
   frames are excluded (the phys tests count a frame's words).  A table
   preallocated at 256 buckets holds 262 words before the first page, so
   every case would fail. *)
let test_page_table_words () =
  let fixed = 64 and per_page = 14 in
  let retained ?(destroyed = false) pages =
    let phys = Phys.create () and clock = mk_clock () in
    let a = Aspace.create ~phys ~clock ~name:"t" in
    Aspace.add_entry a ~start_addr:Layout.data_base ~size:(64 * Layout.page_size) ~prot:Prot.rw
      ~kind:Aspace.Data ~name:"data";
    let frames =
      List.init pages (fun i ->
          let addr = Layout.data_base + (i * Layout.page_size) in
          Aspace.write_u8 a ~addr 1;
          Aspace.read_page a ~addr)
    in
    if destroyed then Aspace.destroy a;
    let others = Obj.repr (phys, clock, frames) in
    (* less the three words of the pair itself *)
    Obj.reachable_words (Obj.repr (a, others)) - Obj.reachable_words others - 3
  in
  let check label ~pages words =
    let bound = fixed + (per_page * pages) in
    let label = Printf.sprintf "%s: %d words, at most %d" label words bound in
    Alcotest.(check bool) label true (words <= bound)
  in
  check "no page" ~pages:0 (retained 0);
  check "1 page" ~pages:1 (retained 1);
  check "64 pages" ~pages:64 (retained 64);
  check "64 pages, destroyed" ~pages:0 (retained ~destroyed:true 64)

(* --------------------------- properties ---------------------------- *)

(* Random write/read roundtrip across the data region. *)
let prop_write_read =
  QCheck.Test.make ~name:"write/read roundtrip at random offsets" ~count:300
    QCheck.(pair (int_bound ((16 * 4096) - 8)) (int_bound 0xFFFF))
    (fun (off, v) ->
      let _, _, a = fresh () in
      let addr = Layout.data_base + off in
      Aspace.write_word a ~addr v;
      Aspace.read_word a ~addr = v)

(* Sharing invariant: after any interleaving of client/handle writes in
   the shared range, both sides read identical values everywhere. *)
let prop_share_convergence =
  QCheck.Test.make ~name:"paired spaces converge under random writes" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (triple bool (int_bound ((16 * 4096) - 8)) (int_bound 10000)))
    (fun ops ->
      let _, _, client, handle = make_pair () in
      Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
      List.iter
        (fun (use_handle, off, v) ->
          let space = if use_handle then handle else client in
          Aspace.write_word space ~addr:(Layout.data_base + off) v)
        ops;
      List.for_all
        (fun (_, off, _) ->
          Aspace.read_word client ~addr:(Layout.data_base + off)
          = Aspace.read_word handle ~addr:(Layout.data_base + off))
        ops)

(* obreak keeps the pair's breaks equal through any grow/shrink dance. *)
let prop_obreak_convergence =
  QCheck.Test.make ~name:"obreak keeps pair converged" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair bool (int_bound 100)))
    (fun moves ->
      let _, _, client, handle = make_pair () in
      Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
      List.iter
        (fun (use_handle, pages) ->
          let space = if use_handle then handle else client in
          Aspace.obreak space (Aspace.heap_base space + (pages * Layout.page_size)))
        moves;
      Aspace.brk client = Aspace.brk handle)

(* The one-entry TLB must answer every access exactly as the entry walk
   does, under any interleaving of map changes on a force-shared pair.
   The oracle uses public state only: [find_entry] on the space, else on
   its peer inside the share window.  Values are checked against a shadow
   of every word written, kept per physical frame; a page faulted in
   fresh (not the peer's frame) reads zero.  After every step both
   spaces re-access the word they touched last, read then write back, so
   a translation left stale by any map change is exercised at once. *)
type tlb_op =
  | T_add of bool * int * int * Prot.t  (* handle side?, first page, pages, prot *)
  | T_remove of bool * int * int
  | T_protect of bool * int * Prot.t  (* the whole entry covering the page *)
  | T_obreak of bool * int  (* break at heap base + n half-pages *)
  | T_set_peer of bool * bool  (* paired? *)
  | T_read of bool * int * int  (* page, word slot *)
  | T_write of bool * int * int * int

let tlb_pages = 6
let tlb_slots = [| 0; 4; 2048; Layout.page_size - 4 |]
let tlb_addr page slot = Layout.data_base + (page * Layout.page_size) + tlb_slots.(slot)

let gen_tlb_op =
  let open QCheck.Gen in
  let side = bool and page = int_bound (tlb_pages - 1) and slot = int_bound 3 in
  let prot = oneofl [ Prot.none; Prot.r; Prot.rw; Prot.rx ] in
  frequency
    [
      (2, map4 (fun h p n pr -> T_add (h, p, n, pr)) side page (1 -- 2) prot);
      (2, map3 (fun h p n -> T_remove (h, p, n)) side page (1 -- 2));
      (2, map3 (fun h p pr -> T_protect (h, p, pr)) side page prot);
      (2, map2 (fun h n -> T_obreak (h, n)) side (int_bound 8));
      (1, map2 (fun h paired -> T_set_peer (h, paired)) side bool);
      (3, map3 (fun h p k -> T_read (h, p, k)) side page slot);
      (3, map4 (fun h p k v -> T_write (h, p, k, v)) side page slot (int_bound 0xFFFF));
    ]

let print_tlb_op = function
  | T_add (h, p, n, pr) -> Printf.sprintf "add h=%b p=%d n=%d %s" h p n (Prot.to_string pr)
  | T_remove (h, p, n) -> Printf.sprintf "remove h=%b p=%d n=%d" h p n
  | T_protect (h, p, pr) -> Printf.sprintf "protect h=%b p=%d %s" h p (Prot.to_string pr)
  | T_obreak (h, n) -> Printf.sprintf "obreak h=%b +%d" h n
  | T_set_peer (h, b) -> Printf.sprintf "set_peer h=%b %b" h b
  | T_read (h, p, k) -> Printf.sprintf "read h=%b p=%d k=%d" h p k
  | T_write (h, p, k, v) -> Printf.sprintf "write h=%b p=%d k=%d v=%d" h p k v

let walk_outcome space addr access =
  let entry =
    match Aspace.find_entry space addr with
    | Some _ as found -> found
    | None -> (
        match Aspace.peer space with
        | Some p when addr >= Layout.share_lo && addr < Layout.share_hi ->
            Aspace.find_entry p addr
        | Some _ | None -> None)
  in
  match entry with
  | None -> `Segv
  | Some e -> if Prot.allows e.Aspace.prot access then `Ok else `Prot_violation

let arb_tlb_ops =
  QCheck.make ~shrink:QCheck.Shrink.list ~print:QCheck.Print.(list print_tlb_op)
    QCheck.Gen.(list_size (1 -- 40) gen_tlb_op)

let prop_tlb_matches_walk =
  QCheck.Test.make ~name:"TLB agrees with the entry walk" ~count:300 arb_tlb_ops (fun ops ->
      let phys = Phys.create () in
      let clock = mk_clock () in
      let client = Aspace.create ~phys ~clock ~name:"client" in
      let handle = Aspace.create ~phys ~clock ~name:"handle" in
      Aspace.add_entry client ~start_addr:Layout.data_base ~size:(2 * Layout.page_size)
        ~prot:Prot.rw ~kind:Aspace.Data ~name:"data";
      Aspace.set_heap_base client (Layout.data_base + (2 * Layout.page_size));
      Aspace.write_word client ~addr:Layout.data_base 7;
      Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi;
      let space h = if h then handle else client in
      let off addr = addr land (Layout.page_size - 1) in
      (* (frame id, page offset) -> the last word written there *)
      let shadow = Hashtbl.create 16 in
      let value fid addr = Option.value ~default:0 (Hashtbl.find_opt shadow (fid, off addr)) in
      Hashtbl.replace shadow (Option.get (Aspace.frame_id client Layout.data_base), 0) 7;
      let last = [| None; None |] in
      let access h addr write v =
        let s = space h in
        last.(Bool.to_int h) <- Some addr;
        let was_mapped = Aspace.is_mapped s addr in
        let peer_frame = Option.bind (Aspace.peer s) (fun p -> Aspace.frame_id p addr) in
        let expected = walk_outcome s addr (if write then Prot.Write else Prot.Read) in
        let attempt () =
          if not write then Aspace.read_word s ~addr
          else begin
            Aspace.write_word s ~addr v;
            v
          end
        in
        let got =
          match attempt () with
          | v -> `Value v
          | exception Aspace.Segv _ -> `Segv
          | exception Aspace.Prot_violation _ -> `Prot_violation
        in
        match (expected, got, Aspace.frame_id s addr) with
        | `Ok, `Value v, Some fid ->
            if (not was_mapped) && peer_frame <> Some fid then
              Hashtbl.filter_map_inplace
                (fun (f, _) w -> if f = fid then None else Some w)
                shadow;
            if write then begin
              Hashtbl.replace shadow (fid, off addr) v;
              true
            end
            else v = value fid addr
        | `Segv, `Segv, _ | `Prot_violation, `Prot_violation, _ -> true
        | _ -> false
      in
      let probe h =
        match last.(Bool.to_int h) with
        | None -> true
        | Some addr ->
            access h addr false 0
            &&
            let v =
              match Aspace.frame_id (space h) addr with Some f -> value f addr | None -> 0
            in
            access h addr true v
      in
      let step = function
        | T_read (h, p, k) -> access h (tlb_addr p k) false 0
        | T_write (h, p, k, v) -> access h (tlb_addr p k) true v
        | T_add (h, p, n, prot) ->
            (try
               Aspace.add_entry (space h) ~start_addr:(tlb_addr p 0)
                 ~size:(n * Layout.page_size) ~prot ~kind:Aspace.Mmap ~name:"mmap"
             with Aspace.Overlap _ -> ());
            true
        | T_remove (h, p, n) ->
            Aspace.remove_range (space h) ~start_addr:(tlb_addr p 0)
              ~size:(n * Layout.page_size);
            true
        | T_protect (h, p, prot) ->
            (match Aspace.find_entry (space h) (tlb_addr p 0) with
            | None -> ()
            | Some e -> (
                try
                  Aspace.protect_range (space h) ~start_addr:e.Aspace.start_addr
                    ~size:(e.Aspace.end_addr - e.Aspace.start_addr) ~prot
                with Aspace.Bad_range _ -> ()));
            true
        | T_obreak (h, n) ->
            (let s = space h in
             try Aspace.obreak s (Aspace.heap_base s + (n * Layout.page_size / 2))
             with Aspace.Bad_range _ | Aspace.Overlap _ -> ());
            true
        | T_set_peer (h, paired) ->
            Aspace.set_peer (space h) (if paired then Some (space (not h)) else None);
            true
      in
      List.for_all (fun op -> step op && probe false && probe true) ops)

(* Frames read as flat pages.  Random byte, word and range accesses at
   offsets on both sides of 256-byte chunk and page boundaries, mixed
   with clone, force_share, zero_materialized, destroy and reallocation,
   are checked against a model that keeps each physical frame's page as
   one flat buffer.  A frame faulted in fresh (not the peer's) must read
   zero, whether new or recycled; a private page cloned gets a copy of
   its source's buffer.  After every step each mapped page of every
   space must read as its model buffer, so a write that reaches a frame
   it should not shows at once. *)
type mem_op =
  | Mem_write_u8 of int * int * int  (* space, offset in the data pages, value *)
  | Mem_write_word of int * int * int
  | Mem_write_bytes of int * int * string
  | Mem_read_u8 of int * int
  | Mem_read_word of int * int
  | Mem_read_bytes of int * int * int
  | Mem_read_page of int * int
  | Mem_clone of int * int  (* source space, the space it replaces *)
  | Mem_force_share  (* space 0 the client, space 1 the handle *)
  | Mem_zero of int * int  (* space, page *)
  | Mem_destroy of int  (* and reallocate *)

let mem_spaces = 3
let mem_pages = 3
let mem_size = mem_pages * Layout.page_size

(* Mostly within four bytes of a chunk boundary, page boundaries among
   them; an access is moved back to fit the data pages. *)
let near_chunk_boundary page chunk delta =
  max 0 ((page * Layout.page_size) + (chunk * 256) + delta)

let gen_mem_off =
  let open QCheck.Gen in
  let page = int_bound (mem_pages - 1) and delta = int_range (-4) 3 in
  frequency
    [ (3, map3 near_chunk_boundary page (int_bound 16) delta); (1, int_bound (mem_size - 1)) ]

let gen_mem_op =
  let open QCheck.Gen in
  let space = int_bound (mem_spaces - 1) and off = gen_mem_off in
  frequency
    [
      (3, map3 (fun s o v -> Mem_write_u8 (s, o, v)) space off (int_bound 255));
      (3, map3 (fun s o v -> Mem_write_word (s, o, v)) space off (int_bound 0xFFFFFF));
      (3, map3 (fun s o b -> Mem_write_bytes (s, o, b)) space off (string_size (1 -- 600)));
      (2, map2 (fun s o -> Mem_read_u8 (s, o)) space off);
      (2, map2 (fun s o -> Mem_read_word (s, o)) space off);
      (2, map3 (fun s o n -> Mem_read_bytes (s, o, n)) space off (1 -- 600));
      (2, map2 (fun s o -> Mem_read_page (s, o)) space off);
      (1, map2 (fun a b -> Mem_clone (a, b)) space space);
      (1, return Mem_force_share);
      (1, map2 (fun s p -> Mem_zero (s, p)) space (int_bound (mem_pages - 1)));
      (1, map (fun s -> Mem_destroy s) space);
    ]

let print_mem_op = function
  | Mem_write_u8 (s, o, v) -> Printf.sprintf "write_u8 %d +%d %d" s o v
  | Mem_write_word (s, o, v) -> Printf.sprintf "write_word %d +%d %d" s o v
  | Mem_write_bytes (s, o, b) ->
      Printf.sprintf "write_bytes %d +%d len %d" s o (String.length b)
  | Mem_read_u8 (s, o) -> Printf.sprintf "read_u8 %d +%d" s o
  | Mem_read_word (s, o) -> Printf.sprintf "read_word %d +%d" s o
  | Mem_read_bytes (s, o, n) -> Printf.sprintf "read_bytes %d +%d len %d" s o n
  | Mem_read_page (s, o) -> Printf.sprintf "read_page %d +%d" s o
  | Mem_clone (a, b) -> Printf.sprintf "clone %d over %d" a b
  | Mem_force_share -> "force_share"
  | Mem_zero (s, p) -> Printf.sprintf "zero_materialized %d page %d" s p
  | Mem_destroy s -> Printf.sprintf "destroy %d" s

let arb_mem_ops =
  QCheck.make ~shrink:QCheck.Shrink.list ~print:QCheck.Print.(list print_mem_op)
    QCheck.Gen.(list_size (1 -- 40) gen_mem_op)

let prop_frames_match_flat_pages =
  QCheck.Test.make ~name:"frames read as flat pages" ~count:300 arb_mem_ops (fun ops ->
      let phys = Phys.create () and clock = mk_clock () in
      let spaces = Array.init mem_spaces (fun _ -> mk_space phys clock) in
      let paired = ref false in
      (* frame id -> the page it holds *)
      let model = Hashtbl.create 16 in
      let page_addr p = Layout.data_base + (p * Layout.page_size) in
      let fid s addr = Option.get (Aspace.frame_id s addr) in
      let flat s addr = Hashtbl.find model (fid s addr) in
      let get s addr = Bytes.get (flat s addr) (addr land (Layout.page_size - 1)) in
      let set s addr c = Bytes.set (flat s addr) (addr land (Layout.page_size - 1)) c in
      (* Run [f] on the [len] bytes from data offset [off] in space [i];
         each page it faults in fresh gets a zero page in the model. *)
      let access i off len f =
        let s = spaces.(i) in
        let off = min off (mem_size - len) in
        let addr = Layout.data_base + off in
        let first = off / Layout.page_size and last = (off + len - 1) / Layout.page_size in
        let before =
          List.init (last - first + 1) (fun k ->
              let a = page_addr (first + k) in
              let peer_frame = Option.bind (Aspace.peer s) (fun p -> Aspace.frame_id p a) in
              (a, Aspace.is_mapped s a, peer_frame))
        in
        let result = f s addr in
        List.iter
          (fun (a, was_mapped, peer_frame) ->
            let id = fid s a in
            if (not was_mapped) && peer_frame <> Some id then
              Hashtbl.replace model id (Bytes.make Layout.page_size '\000'))
          before;
        (s, addr, result)
      in
      let unpair i =
        if !paired && i < 2 then begin
          Aspace.set_peer spaces.(1 - i) None;
          paired := false
        end
      in
      let step = function
        | Mem_write_u8 (i, o, v) ->
            let s, addr, () = access i o 1 (fun s addr -> Aspace.write_u8 s ~addr v) in
            set s addr (Char.chr v);
            true
        | Mem_write_word (i, o, v) ->
            let s, addr, () = access i o 4 (fun s addr -> Aspace.write_word s ~addr v) in
            for k = 0 to 3 do
              set s (addr + k) (Char.chr ((v lsr (8 * k)) land 0xff))
            done;
            true
        | Mem_write_bytes (i, o, b) ->
            let data = Bytes.of_string b in
            let write s addr = Aspace.write_bytes s ~addr data in
            let s, addr, () = access i o (Bytes.length data) write in
            String.iteri (fun k c -> set s (addr + k) c) b;
            true
        | Mem_read_u8 (i, o) ->
            let s, addr, v = access i o 1 (fun s addr -> Aspace.read_u8 s ~addr) in
            v = Char.code (get s addr)
        | Mem_read_word (i, o) ->
            let s, addr, v = access i o 4 (fun s addr -> Aspace.read_word s ~addr) in
            let byte k = Char.code (get s (addr + k)) lsl (8 * k) in
            v = (byte 0 lor byte 1 lor byte 2 lor byte 3)
        | Mem_read_bytes (i, o, n) ->
            let s, addr, b = access i o n (fun s addr -> Aspace.read_bytes s ~addr ~len:n) in
            Bytes.equal b (Bytes.init n (fun k -> get s (addr + k)))
        | Mem_read_page (i, o) ->
            let s, addr, page = access i o 1 (fun s addr -> Aspace.read_page s ~addr) in
            let base = addr land lnot (Layout.page_size - 1) in
            List.for_all
              (fun k ->
                let off = (addr + k) land (Layout.page_size - 1) in
                Aspace.page_u8 page off = Char.code (get s (base + off)))
              [ -300; -1; 0; 1; 255; 256 ]
        | Mem_clone (src, dst) ->
            if src <> dst then begin
              Aspace.destroy spaces.(dst);
              unpair dst;
              let child = Aspace.clone spaces.(src) ~name:"clone" in
              for p = 0 to mem_pages - 1 do
                let addr = page_addr p in
                match (Aspace.frame_id spaces.(src) addr, Aspace.frame_id child addr) with
                | Some f, Some g when f <> g ->
                    Hashtbl.replace model g (Bytes.copy (Hashtbl.find model f))
                | _ -> ()
              done;
              spaces.(dst) <- child
            end;
            true
        | Mem_force_share ->
            Aspace.force_share ~client:spaces.(0) ~handle:spaces.(1) ~lo:Layout.share_lo
              ~hi:Layout.share_hi;
            paired := true;
            true
        | Mem_zero (i, p) ->
            let s = spaces.(i) in
            let mapped = Aspace.is_mapped s (page_addr p) in
            let zeroed =
              Aspace.zero_materialized s ~start_addr:(page_addr p) ~size:Layout.page_size
            in
            if mapped then Bytes.fill (flat s (page_addr p)) 0 Layout.page_size '\000';
            zeroed = if mapped then Layout.page_size else 0
        | Mem_destroy i ->
            Aspace.destroy spaces.(i);
            unpair i;
            spaces.(i) <- mk_space phys clock;
            true
      in
      let reads_flat s p =
        let addr = page_addr p in
        (not (Aspace.is_mapped s addr))
        || Bytes.equal (flat s addr) (Aspace.read_bytes s ~addr ~len:Layout.page_size)
      in
      let pages = List.init mem_pages Fun.id in
      let consistent () = Array.for_all (fun s -> List.for_all (reads_flat s) pages) spaces in
      List.for_all (fun op -> step op && consistent ()) ops)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vmem"
    [
      ( "layout",
        [ tc "alignment helpers" test_layout_alignment; tc "share range" test_layout_share_range ]
      );
      ( "phys",
        [
          tc "alloc zeroed" test_phys_alloc_zeroed;
          tc "recycle zeroes" test_phys_recycle;
          tc "fresh frames zeroed after a dropped allocator" test_phys_fresh_frames_zeroed;
          tc "refcounting" test_phys_refcounting;
          tc "out of frames" test_phys_out_of_frames;
          tc "frame words follow the chunks written" test_phys_frame_words;
          tc "handle text page shares the registry's chunks" test_handle_text_page_words;
        ] );
      ( "aspace",
        [
          tc "entry overlap rejected" test_entry_overlap_rejected;
          tc "unaligned entry rejected" test_entry_unaligned_rejected;
          tc "demand paging" test_demand_paging;
          tc "segv outside entries" test_segv_outside_entries;
          tc "write to text faults" test_prot_violation_write_text;
          tc "exec of data faults" test_prot_violation_exec_data;
          tc "cross-page read/write" test_cross_page_readwrite;
          tc "word at page boundary" test_word_at_page_boundary;
          tc "word masking" test_word_masking;
          tc "strings" test_strings;
          tc "remove_range unmaps" test_remove_range_unmaps;
          tc "remove_range splits entries" test_remove_range_splits;
          tc "protect_range" test_protect_range;
          tc "obreak grow/shrink" test_obreak_grow_and_shrink;
          tc "obreak below base" test_obreak_below_base_rejected;
          tc "obreak into stack" test_obreak_into_stack_rejected;
        ] );
      ( "force_share (paper Figure 6)",
        [
          tc "same frames" test_force_share_same_frames;
          tc "write-through both ways" test_force_share_write_through;
          tc "handle pages dropped" test_force_share_drops_handle_pages;
          tc "outside range stays private" test_force_share_outside_range_private;
          tc "modified uvm_fault shares lazily" test_fault_consults_peer_lazily;
          tc "fault through peer entry" test_fault_peer_entry_only;
          tc "modified sys_obreak propagates" test_obreak_propagates_to_peer;
          tc "unpairing stops sharing" test_set_peer_none_stops_sharing;
          tc "shared page accounting" test_shared_page_count;
        ] );
      ( "clone/destroy",
        [
          tc "clone deep-copies private pages" test_clone_copies_private;
          tc "clone preserves brk" test_clone_preserves_brk;
          tc "destroy releases frames" test_destroy_releases_frames;
          tc "page table sized to what it maps" test_page_table_words;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_write_read; prop_share_convergence; prop_obreak_convergence ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |])
              prop_tlb_matches_walk;
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
              prop_frames_match_flat_pages;
          ] );
    ]
