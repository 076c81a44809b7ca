(** The KeyNote compliance checker.

    [query] computes the compliance value the policy grants to a set of
    requesting principals for an action described by attribute bindings.
    Levels are ordered from least to most trusted; index 0 (conventionally
    ["deny"] or [_MIN_TRUST]) is returned when nothing applies.

    Assertion semantics follow RFC 2704: an assertion's value is the
    minimum of its conditions value (the highest level among clauses whose
    guard holds) and its licensees value ([&&] = min, [||] = max,
    [k-of] = k-th largest); a principal's value is the maximum over the
    credential assertions it authorizes, with requesters at maximum trust;
    delegation cycles evaluate safely to minimum trust. *)

type result = {
  level : string;
  index : int;  (** into the [levels] array *)
  assertions_evaluated : int;
      (** how many assertion evaluations the query performed — the cost
          driver for the paper's "complex policy ⇒ proportional slowdown"
          prediction (§5) *)
}

val attr_value : string -> (string * string) list -> string
(** The value bound to an attribute name, the first binding if several,
    and [""] when there is none: what every engine reads for an
    attribute term. *)

val compare_values : string -> string -> int
(** The comparison rule shared by {!eval_expr} and the compiled, fused
    and vectorized engines: numeric iff both sides parse as integers
    ([int_of_string]), lexicographic otherwise.  Never raises. *)

val eval_expr : attrs:(string * string) list -> Ast.expr -> bool
(** Guard evaluation: comparisons are numeric when both sides are integer
    literals or attribute values that parse as integers, lexicographic
    otherwise; absent attributes read as [""]. *)

val query :
  policy:Ast.assertion list ->
  credentials:Ast.assertion list ->
  attrs:(string * string) list ->
  requesters:string list ->
  levels:string array ->
  result
(** [policy] assertions must have authorizer "POLICY".  Raises
    [Invalid_argument] if [levels] is empty or a clause names an unknown
    level. *)
