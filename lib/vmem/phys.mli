(** Physical page frames.

    Frames are reference counted; a frame shared between a SecModule client
    and its handle has refcount 2.  The default frame budget corresponds to
    the paper's testbed (512 MB real memory, Figure 7). *)

exception Out_of_frames

type frame = private {
  id : int;
  data : Bytes.t;  (** exactly one page *)
  mutable refcount : int;
}

type t

val create : ?limit_frames:int -> unit -> t
(** Default limit: 131072 frames = 512 MB of 4 KB pages. *)

val alloc : t -> frame
(** A zeroed frame with refcount 1, whether fresh or recycled: simulated
    memory never shows bytes from an earlier owner, in this allocator or
    in any other the host process ran. *)

val incref : frame -> unit

val decref : t -> frame -> unit
(** Frees (recycles) the frame when the count reaches zero. *)

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
