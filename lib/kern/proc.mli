(** Process control blocks. *)

type role =
  | Standalone
  | Smod_client of { mutable handle_pid : int }
      (** a client attached to a SecModule session *)
  | Smod_handle of { client_pid : int }
      (** a handle co-process serving exactly one client *)

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
  mutable aspace : Smod_vmem.Aspace.t;
  mutable state : state;
  mutable resume : resume_cell;
  mutable killed : int option;  (** pending forced termination signal *)
  mutable sp : int;  (** simulated stack pointer *)
  mutable fp : int;  (** simulated frame pointer *)
  mutable uid : int;
  mutable gid : int;
  mutable no_core_dump : bool;  (** paper §3.1 item 3 *)
  mutable no_ptrace : bool;  (** paper §3.1 item 4 *)
  mutable ring : int;
      (** 80386-style privilege ring (paper §2): 0 = kernel tools, 1 =
          periphery (SecModule handles), 3 = ordinary user code.  A process
          may signal or trace only processes of an equal or {e less}
          privileged ring (numerically >=). *)
  mutable role : role;
  mutable daemon : bool;
      (** daemons may stay blocked when the machine drains — handle
          processes waiting for calls are daemons *)
  mutable pending_signals : int list;
  mutable children : int list;
  mutable traced_by : int option;
  mutable core_dumped : bool;
  mutable exit_hooks : (t -> unit) list;
}

val is_zombie : t -> bool
val is_blocked : t -> bool
val is_smod_handle : t -> bool
val is_smod_client : t -> bool
val add_exit_hook : t -> (t -> unit) -> unit
(** Run the hook when the process finishes, before hooks added earlier. *)

val remove_exit_hook : t -> (t -> unit) -> unit
(** Unregister a hook given to {!add_exit_hook} (compared physically), for
    a hook whose job is done before the process exits. *)

val push_word : t -> int -> unit
(** Decrement [sp] by 4 and store a 32-bit word at the new [sp]. *)

val pop_word : t -> int
val peek_word : t -> offset_words:int -> int
val pp_state : Format.formatter -> state -> unit
