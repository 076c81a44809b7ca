(** Virtual address spaces, in the style of OpenBSD's UVM.

    This module carries the paper's three UVM modifications (Figure 6):

    - {!force_share} — [uvmspace_force_share]: forcibly unmap a range of the
      handle's space and re-map the client's pages into it as shares;
    - {!fault} — the modified [uvm_fault]: on an unavailable mapping, if the
      faulting process is half of a SecModule pair and the address lies in
      the shared range, consult the peer's map and install its page as a
      share;
    - {!obreak} — the modified [sys_obreak]/[uvm_map]: heap growth on either
      side of a pair materialises as shared mappings.

    Addresses are byte addresses; regions are page aligned.

    Every load and store checks protection against the entry governing
    its address.  Each space caches its last translation (page, mapping,
    governing entry's protection) in a one-entry software TLB, trusted
    while the allocator's {!Phys.epoch} is unchanged.  Every operation
    here that can change what the entry walk or a page table answers, in
    any space on the allocator, bumps that epoch: {!add_entry},
    {!remove_range}, {!protect_range}, a page installed by {!fault} or
    {!force_share}, {!force_share} itself, {!obreak}, {!set_peer} and
    {!destroy}.  The TLB is host state only: a hit raises what the walk
    would raise, charges nothing (nor did the walk on a present page),
    and reads the frame's bytes live.

    A space's page table starts at the stdlib [Hashtbl]'s 16 buckets and
    doubles as pages are mapped, so it costs words in proportion to what
    the space maps; most spaces map one to three pages.  {!destroy},
    {!clone}, {!force_share}, {!zero_materialized}, and {!remove_range}
    over a range of more pages than the space maps, walk the table in
    bucket order, which depends on the vpns and on the table's size.  No
    simulated number reads that order.  Each walk charges at most one
    kind of op per page, so its charges are the same sequence in any
    order, and its counts and byte totals are sums.  The order decides
    only which freed frame {!Phys.alloc} hands out next, and every frame
    it hands out is zeroed, so at most a {!frame_id} differs.  This still
    holds with frames made of copy-on-write chunks ({!Phys}): which chunks
    a frame owns is host state, and no walk's charges read it. *)

type kind = Text | Data | Heap | Stack | Secret | Mmap

type entry = private {
  mutable start_addr : int;
  mutable end_addr : int;  (** exclusive *)
  mutable prot : Prot.t;
  kind : kind;
  name : string;
  mutable inherited_from_peer : bool;
}

exception Segv of { addr : int; access : Prot.access }
exception Prot_violation of { addr : int; access : Prot.access }
exception Overlap of { start_addr : int; end_addr : int }
exception Bad_range of string

type t

val create : phys:Phys.t -> clock:Smod_sim.Clock.t -> name:string -> t
val name : t -> string
val phys : t -> Phys.t
val clock : t -> Smod_sim.Clock.t

val add_entry :
  t -> start_addr:int -> size:int -> prot:Prot.t -> kind:kind -> name:string -> unit
(** Registers a region.  Pages are materialised on demand by {!fault}.
    Raises {!Overlap} if the range intersects an existing entry and
    {!Bad_range} if not page aligned or empty. *)

val remove_range : t -> start_addr:int -> size:int -> unit
(** Unmaps every page and truncates/splits/drops entries in the range. *)

val protect_range : t -> start_addr:int -> size:int -> prot:Prot.t -> unit
val find_entry : t -> int -> entry option
val entries : t -> entry list
(** Sorted by start address. *)

val fault : t -> addr:int -> access:Prot.access -> unit
(** Resolve a page fault at [addr].  Raises {!Segv} when no entry (local or
    shareable peer) covers the address, {!Prot_violation} when the entry
    forbids the access. *)

val is_mapped : t -> int -> bool
(** True if the page containing the address currently has a frame. *)

val is_shared_with_peer : t -> int -> bool
(** True if this page's frame is also mapped by the peer. *)

val frame_id : t -> int -> int option
(** Physical frame backing the page, if materialised. *)

val set_peer : t -> t option -> unit
(** Establish (or break) the SecModule pairing consulted by {!fault}. *)

val peer : t -> t option

val force_share : client:t -> handle:t -> lo:int -> hi:int -> unit
(** [uvmspace_force_share]: unmap everything the handle holds in
    [\[lo, hi)], duplicate the client's entries over that range into the
    handle, share every page the client has already materialised, and set
    up the peer links so that later faults and heap growth keep the two
    spaces converged. *)

val heap_base : t -> int
val brk : t -> int

val set_heap_base : t -> int -> unit
(** Defines where the heap entry starts; also resets the break. *)

val obreak : t -> int -> unit
(** Grow or shrink the heap to the new break address (modified
    [sys_obreak]: growth inside a pair is installed as shared in both
    spaces). Raises {!Bad_range} if the break leaves the data/heap area. *)

val read_bytes : t -> addr:int -> len:int -> bytes
(** Demand-pages via {!fault} as needed. *)

val equal_bytes : t -> addr:int -> bytes -> bool
(** Whether the bytes at [addr] equal the given ones, compared in the
    frames without a copy.  Checks and demand-pages every page of the
    range as {!read_bytes} does, even after a mismatch. *)

type page
(** A read-only view of one page's frame. *)

val read_page : t -> addr:int -> page
(** The frame backing [addr]'s page, after the same read check and
    demand paging as {!read_bytes}, as a view that reads the whole page
    through {!page_u8}.  The view copies nothing: it reads the live
    frame, shared with every space that maps it, so a later write to the
    page through any space shows in it at once. *)

val page_u8 : page -> int -> int
(** [page_u8 p off] is the page's byte at [off], in
    [\[0, Layout.page_size)]; no copy, no allocation. *)

val write_bytes : t -> addr:int -> bytes -> unit

val map_image : t -> addr:int -> Phys.image -> unit
(** Map an image into the {!Phys.image_pages} pages from the page-aligned
    [addr], each faulted in and checked for write as {!write_bytes} of
    the image's bytes would: the same faults and charges, page by page
    in address order.  Each page's frame then shares the image's chunks
    ({!Phys.map_image}) instead of copying them, so a later write through
    this space copies only the chunk it touches and never reaches the
    image or another space mapping it.  Charges no copy; the caller
    charges what a copy would cost. *)

val read_u8 : t -> addr:int -> int
val write_u8 : t -> addr:int -> int -> unit

val read_word : t -> addr:int -> int
(** 32-bit little-endian load (i386 flavour); result in [\[0, 2^32)]. *)

val write_word : t -> addr:int -> int -> unit
(** 32-bit little-endian store; the value is truncated to 32 bits. *)

val read_string : t -> addr:int -> max_len:int -> string
(** NUL-terminated string. *)

val write_string : t -> addr:int -> string -> unit
(** Writes the bytes plus a terminating NUL. *)

val zero_materialized : t -> start_addr:int -> size:int -> int
(** Overwrite every already-materialised page in the range with zeros and
    return the number of bytes cleared.  Pages never touched are skipped —
    they demand-zero on their next fault anyway.  This is the secret-segment
    scrub a pooled handle performs between tenants (the caller charges the
    copy cost); no entries or frames are released.  The host drops each
    page's chunks ({!Phys.zero}) rather than writing zeros. *)

val mapped_page_count : t -> int
val shared_page_count : t -> int

val destroy : t -> unit
(** Release every frame.  The space must not be used afterwards. *)

val clone : t -> name:string -> t
(** Fork-style duplicate: entries copied; private pages copied into fresh
    frames, each charged a page copy; pages marked shared stay shared
    (they keep referencing the same frame). Peer links are not cloned.
    The host copies no bytes: each fresh frame shares its source's
    chunks ({!Phys.copy}), and either side's first write to a chunk
    copies it. *)

val pp_layout : Format.formatter -> t -> unit
(** Figure-2-style layout listing. *)
