(** Address-space layout constants, mirroring the paper's Figure 2.

    The client and handle share everything from just above the traditional
    text segment to the stack top; the handle additionally owns a secret
    stack/heap segment that the client can never map. *)

val page_size : int
val page_shift : int
val vpn_of_addr : int -> int
val addr_of_vpn : int -> int
val page_align_down : int -> int
val page_align_up : int -> int
val is_page_aligned : int -> bool

val text_base : int
(** Base of the traditional code segment (just above the unmapped NULL
    page region). *)

val text_limit : int
(** Exclusive upper bound available for text images. *)

val data_base : int
(** Start of the traditional data segment — and of the SecModule shared
    range ("just below the traditional OpenBSD data segment"). *)

val stack_top : int
(** Exclusive top of the user stack — end of the SecModule shared range. *)

val default_stack_pages : int

val secret_base : int
(** Handle-only secret stack/heap segment (never shared, never visible to
    the client). *)

val secret_pages : int

val module_text_base : int
(** Module text in a handle: below [text_limit], outside the shared range. *)

val module_data_base : int
(** Module-private data in a handle, just above its text. *)

val share_lo : int
(** The forced-share range is [\[share_lo, share_hi)]. *)

val share_hi : int
