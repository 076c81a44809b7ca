let page_size = 4096
let page_shift = 12
let vpn_of_addr a = a lsr page_shift
let addr_of_vpn v = v lsl page_shift
let page_align_down a = a land lnot (page_size - 1)
let page_align_up a = (a + page_size - 1) land lnot (page_size - 1)
let is_page_aligned a = a land (page_size - 1) = 0

(* A 32-bit-flavoured layout in the spirit of OpenBSD/i386 3.6. *)
let text_base = 0x0000_1000
let text_limit = 0x03F0_0000
let data_base = 0x0400_0000
let stack_top = 0xBFC0_0000
let default_stack_pages = 64
let secret_base = 0xC000_0000
let secret_pages = 16
let module_text_base = 0x0060_0000
let module_data_base = 0x0300_0000
let share_lo = data_base
let share_hi = stack_top
