(** Event tracing for the simulated machine.

    Used to reproduce the paper's sequence diagrams (Figure 1's
    initialization handshake, Figure 3's stack choreography) as observable,
    testable event streams.

    An emit records a typed event value, its actor and the clock's time,
    and formats nothing: the renderer given at {!create} turns an event
    into its label only when the trace is read.  Tracing charges no
    simulated cycles. *)

type event = { timestamp_us : float; actor : string; label : string }
(** One event as read back, with its label rendered. *)

type 'e t

val create : ?capacity:int -> ?enabled:bool -> render:('e -> string) -> unit -> 'e t
(** Ring buffer of at most [capacity] events (default 256); once full,
    each emit overwrites the oldest event.  Storage grows by doubling up
    to [capacity], so a short trace pays only for what it holds.

    The default is a window, not a log: Figure 1's handshake is six
    events and no reader needs more than a few dozen, while 256 events
    hold the last 40–85 session lifecycles (three to six events each)
    for a failing test or [smodctl trace] to read, at about 7 words an
    event.  A deeper ring only grows the machine's live heap with the
    number of sessions it has served. *)

val enable : 'e t -> unit
val disable : 'e t -> unit
val emit : 'e t -> clock:Clock.t -> actor:string -> 'e -> unit

val values : 'e t -> 'e list
(** The typed events, oldest first. *)

val events : 'e t -> event list
(** Oldest first, each label rendered. *)

val labels : 'e t -> string list
val clear : 'e t -> unit
val pp : Format.formatter -> 'e t -> unit
