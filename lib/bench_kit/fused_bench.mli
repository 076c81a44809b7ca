(** E24: fused batch policy evaluation vs per-slot compiled execution.

    Measures the {!Smod_keynote.Fuse} engine across batch size, assertion
    count and all three admission transports (msgq scalar, ring batch,
    kernel poller), emits per-cell speedup-ratio rows (the >= 3x headline
    at ring b64 kn-16 is a gated row) and the origin-predicate ladder
    with its deny-by-origin path. *)

type config = {
  cells : (int * int) list;  (** (batch, assertions) measurement cells *)
  rounds : int;  (** measured batches per trial *)
  trials : int;
  origin_terms : int list;  (** origin-predicate ladder rungs (0..3) *)
}

val default_config : config

val run :
  ?runner:Runner.t -> ?config:config -> unit -> Ablations.entry list
(** Deterministic for any job count: every (cell, trial) task builds a
    private world from coordinate-derived seeds. *)

val task_count : config -> int
val dispatch_count : config -> int
