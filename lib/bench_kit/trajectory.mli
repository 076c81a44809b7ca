(** The perf trajectory: an append-only record of headline metrics, one
    entry per dated snapshot under [bench/baselines/], serialised as the
    checked-in [BENCH_TRAJECTORY.json] ("smod-bench-trajectory" schema).

    Headline metrics are [float option] per capture: a smoke run that
    skipped a section records [None] (JSON null) rather than a fake
    zero.  [smodctl bench capture] and [bench promote] append entries;
    [benchdiff --trajectory] renders the history as a table. *)

type entry = {
  t_date : string;  (** "YYYY-MM-DD" *)
  t_commit : string;  (** git short sha, or "nogit" *)
  t_mode : string;  (** "quick" or "full" *)
  t_jobs : int;
  t_snapshot : string;  (** snapshot file name, e.g. "2026-08-08_ab12cd3.json" *)
  t_values : (string * float option) list;  (** headline key -> value *)
}

val headline_keys : string list
(** In order: [e1_test_incr_us], [e9_slope_us], [e9_slope_compiled_us],
    [e16_attach_us], [e18_ring_b16_us], [e19_compiled_kn16_us],
    [e20_ring_k8_kcalls], [e21_ring_k8_storm_kcalls],
    [e22_poller_traps_per_call], [e24_fused_batch64_kn16],
    [e25_vector_batch64_kn16]. *)

val entry_of_doc : snapshot:string -> Bench_json.doc -> entry
(** Distil a bench document into a trajectory entry.  The E9 slopes are
    least-squares fits (µs per assertion) over the keynote-1/4/16 rows;
    other headlines are single row means.  Missing sections yield
    [None]. *)

val to_json : entry list -> Smod_util.Json.t
val to_string : entry list -> string
val of_json : Smod_util.Json.t -> entry list
val of_string : string -> entry list
(** Raise {!Smod_util.Json.Parse_error} on malformed input or an
    unknown schema/version. *)

val sorted : entry list -> entry list
(** History order: by date; entries of one day keep their list order. *)

val append : entry list -> entry -> entry list
(** Append-and-sort, so a same-day entry lands after the day's earlier
    appends; a duplicate (same date, commit and snapshot) is dropped so
    re-promoting a snapshot is idempotent. *)

val render : entry list -> string
(** The metric-history table ([benchdiff --trajectory]). *)
