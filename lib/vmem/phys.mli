(** Physical page frames.

    Frames are reference counted; a frame shared between a SecModule client
    and its handle has refcount 2.  The default frame budget corresponds to
    the paper's testbed (512 MB real memory, Figure 7).

    A frame holds its page as sixteen 256-byte chunks, copy-on-write, in
    the spirit of UVM backing untouched memory with a shared zero page.
    Every chunk of a fresh or freed frame is one process-wide zero chunk.
    A frame owns a chunk once it has copied it: the first write to any
    chunk it does not own copies that chunk, and later writes go to the
    copy.  A chunk a frame does not own is never written, so the zero
    chunk, an {!image}'s chunks and the chunks two frames share after
    {!copy} stay as they were built; the zero chunk is shared by every
    domain.  So a frame costs host words for the chunks written to it,
    not for its 4 KiB.  Nothing simulated sees chunks: frames, ids,
    reference counts and every byte read are as if each frame held its
    own page. *)

exception Out_of_frames

type frame
type t

val create : ?limit_frames:int -> unit -> t
(** Default limit: 131072 frames = 512 MB of 4 KB pages. *)

val alloc : t -> frame
(** A zeroed frame with refcount 1, whether fresh or recycled: simulated
    memory never shows bytes from an earlier owner.  A recycled frame
    dropped its chunks when it was freed. *)

val id : frame -> int
val refcount : frame -> int
val incref : frame -> unit

val decref : t -> frame -> unit
(** Frees (recycles) the frame when the count reaches zero, dropping its
    chunks. *)

val live_frames : t -> int
(** Frames currently referenced at least once. *)

val limit : t -> int

val epoch : t -> int
(** The translation epoch of every address space on this allocator.  An
    address space caches one translation and trusts it only while the
    epoch is the one it was filled at (see {!Aspace}); a change to any
    space's entries or page table bumps it.  Host state only: it charges
    nothing and no simulated result reads it. *)

val bump_epoch : t -> unit

(** {2 Bytes}

    Offsets are page offsets, in [\[0, Layout.page_size)]; a range must
    lie in the page.  Reads neither copy nor allocate, and nor does a
    write to a chunk the frame owns. *)

val get_u8 : frame -> int -> int

val set_u8 : frame -> int -> int -> unit
(** Stores the value's low 8 bits. *)

val get_u32 : frame -> int -> int
(** The little-endian 32-bit word at the offset, in [\[0, 2^32)]; the
    offset need not be aligned, but the word must lie in the page. *)

val set_u32 : frame -> int -> int -> unit
(** Stores the value's low 32 bits, little-endian, as {!get_u32} reads
    them. *)

val blit_to_bytes : frame -> int -> bytes -> int -> int -> unit
(** [blit_to_bytes f off dst dst_off len] copies [len] page bytes from
    [off] into [dst] at [dst_off]. *)

val blit_from_bytes : bytes -> int -> frame -> int -> int -> unit
(** [blit_from_bytes src src_off f off len] writes [len] bytes of [src]
    from [src_off] into the page at [off]. *)

val zero : frame -> unit
(** Zero the whole page by dropping every chunk. *)

val copy : src:frame -> dst:frame -> unit
(** [dst] reads as [src] does, by sharing [src]'s chunks: from then on
    neither frame owns any of them, and each copies a chunk on its own
    first write to it. *)

(** {2 Images}

    Bytes that many frames map read-only, such as a module's linked text:
    built once, never written, and mapped by reference. *)

type image

val image_of_bytes : bytes -> image
(** The bytes as chunks, copied, so later changes to the argument do not
    show in the image. *)

val image_pages : image -> int
(** Pages the image spans. *)

val read_image : image -> pos:int -> len:int -> bytes
(** A copy of the image's bytes [\[pos, pos + len)], zero past its end,
    as a page mapping the image reads them.  Raises [Invalid_argument]
    if [pos] or [len] is negative. *)

val map_image : frame -> image -> page:int -> unit
(** The frame's page becomes page [page] of the image, zero-filled past
    the image's end, by sharing the image's chunks: writes to the frame
    copy the chunks they touch and never reach the image. *)
