module Aspace = Smod_vmem.Aspace

type role =
  | Standalone
  | Smod_client of { mutable handle_pid : int }
  | Smod_handle of { client_pid : int }

type resume_cell =
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation
  | Finished

type state =
  | Ready
  | Running
  | Blocked of Sched.wait_reason
  | Zombie of Sched.exit_status

type t = {
  pid : int;
  mutable ppid : int;
  name : string;
  mutable aspace : Aspace.t;
  mutable state : state;
  mutable resume : resume_cell;
  mutable killed : int option;
  mutable sp : int;
  mutable fp : int;
  mutable uid : int;
  mutable gid : int;
  mutable no_core_dump : bool;
  mutable no_ptrace : bool;
  mutable ring : int;
  mutable role : role;
  mutable daemon : bool;
  mutable pending_signals : int list;
  mutable children : int list;
  mutable traced_by : int option;
  mutable core_dumped : bool;
  mutable exit_hooks : (t -> unit) list;
}

let is_zombie t = match t.state with Zombie _ -> true | _ -> false
let is_blocked t = match t.state with Blocked _ -> true | _ -> false
let is_smod_handle t = match t.role with Smod_handle _ -> true | _ -> false
let is_smod_client t = match t.role with Smod_client _ -> true | _ -> false

let add_exit_hook t hook = t.exit_hooks <- hook :: t.exit_hooks
let remove_exit_hook t hook = t.exit_hooks <- List.filter (fun h -> h != hook) t.exit_hooks

let push_word t v =
  t.sp <- t.sp - 4;
  Aspace.write_word t.aspace ~addr:t.sp v

let pop_word t =
  let v = Aspace.read_word t.aspace ~addr:t.sp in
  t.sp <- t.sp + 4;
  v

let peek_word t ~offset_words = Aspace.read_word t.aspace ~addr:(t.sp + (4 * offset_words))

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Running -> Format.pp_print_string ppf "running"
  | Blocked r -> Format.fprintf ppf "blocked(%a)" Sched.pp_wait_reason r
  | Zombie s -> Format.fprintf ppf "zombie(%a)" Sched.pp_exit_status s
