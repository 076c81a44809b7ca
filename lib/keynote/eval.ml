type result = { level : string; index : int; assertions_evaluated : int }

(* Observability (lib/metrics): the section-5 prediction — dispatch cost
   grows with the number of assertions the policy check evaluates — in
   counter form. *)
let m_scope = Smod_metrics.scope "keynote"
let m_queries = Smod_metrics.Scope.counter m_scope "queries"
let m_assertions_evaluated = Smod_metrics.Scope.counter m_scope "assertions_evaluated"

(* [List.assoc_opt], an absent attribute reading [""], without the option. *)
let rec attr_value name = function
  | [] -> ""
  | (k, v) :: rest -> if String.equal k name then v else attr_value name rest

(* [int_of_string] can only succeed when a digit follows the optional
   sign, so every other value — a function or module name, say — is
   answered here instead of by a raised and caught [Failure]. *)
let int_value s =
  let n = String.length s in
  let i = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if i < n && s.[i] >= '0' && s.[i] <= '9' then int_of_string_opt s else None

let compare_values a b =
  match (int_value a, int_value b) with
  | Some ia, Some ib -> Int.compare ia ib
  | _ -> String.compare a b

(* [compare_values (string_of_int i) v] without formatting [i]: a
   formatted int always parses, so it compares as an int with every value
   that parses, and sorts after [""]; only any other value needs the
   digits. *)
let compare_int i v =
  if String.length v = 0 then 1
  else
    match int_value v with
    | Some iv -> Int.compare i iv
    | None -> String.compare (string_of_int i) v

let term_value ~attrs = function
  | Ast.Str s -> s
  | Ast.Int i -> string_of_int i
  | Ast.Attr a -> attr_value a attrs

(* The sign of [compare_values] over both terms' values, which is all
   [eval_expr] reads. *)
let compare_terms ~attrs a b =
  match (a, b) with
  | Ast.Int ia, Ast.Int ib -> Int.compare ia ib
  | Ast.Int i, t -> compare_int i (term_value ~attrs t)
  | t, Ast.Int i -> -compare_int i (term_value ~attrs t)
  | a, b -> compare_values (term_value ~attrs a) (term_value ~attrs b)

let rec eval_expr ~attrs = function
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Not e -> not (eval_expr ~attrs e)
  | Ast.And (a, b) -> eval_expr ~attrs a && eval_expr ~attrs b
  | Ast.Or (a, b) -> eval_expr ~attrs a || eval_expr ~attrs b
  | Ast.Cmp (ta, op, tb) -> (
      let c = compare_terms ~attrs ta tb in
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let kth_largest k values =
  let sorted = List.sort (fun a b -> Int.compare b a) values in
  match List.nth_opt sorted (k - 1) with Some v -> v | None -> 0

let rec mem_string s = function [] -> false | x :: rest -> String.equal x s || mem_string s rest

let rec memo_find p = function
  | [] -> -1
  | (q, v) :: rest -> if String.equal q p then v else memo_find p rest

(* One query's inputs and bookkeeping.  Principals being evaluated form a
   stack (delegation recursion pushes and pops them) and contribute
   minimum trust; a principal's value, once computed, is memoised. *)
type query = {
  attrs : (string * string) list;
  credentials : Ast.assertion list;
  requesters : string list;
  levels : string array;
  mutable evaluated : int;
  mutable in_progress : string list;
  mutable memo : (string * int) list;
}

let level_index q name =
  let rec find i =
    if i >= Array.length q.levels then
      invalid_arg (Printf.sprintf "Eval.query: unknown compliance level %S" name)
    else if String.equal q.levels.(i) name then i
    else find (i + 1)
  in
  find 0

let rec conditions_value q acc = function
  | [] -> acc
  | (c : Ast.clause) :: rest ->
      let acc =
        if eval_expr ~attrs:q.attrs c.guard then Int.max acc (level_index q c.value) else acc
      in
      conditions_value q acc rest

let rec principal_value q p =
  if mem_string p q.requesters then Array.length q.levels - 1
  else if mem_string p q.in_progress then 0
  else begin
    let v = memo_find p q.memo in
    if v >= 0 then v
    else begin
      let outer = q.in_progress in
      q.in_progress <- p :: outer;
      let v = authorized_value q p 0 q.credentials in
      q.in_progress <- outer;
      q.memo <- (p, v) :: q.memo;
      v
    end
  end

and authorized_value q p acc = function
  | [] -> acc
  | (a : Ast.assertion) :: rest ->
      let acc =
        if String.equal a.authorizer p then Int.max acc (assertion_value q a) else acc
      in
      authorized_value q p acc rest

(* Right operands before left ones and licensees before conditions: the
   order the interpreter has always evaluated them in, which decides the
   memoised values under a delegation cycle and which unknown level a
   query that names two reports. *)
and licensees_value q = function
  | Ast.L_empty -> 0
  | Ast.L_principal p -> principal_value q p
  | Ast.L_and (a, b) ->
      let vb = licensees_value q b in
      Int.min (licensees_value q a) vb
  | Ast.L_or (a, b) ->
      let vb = licensees_value q b in
      Int.max (licensees_value q a) vb
  | Ast.L_kof (k, ls) -> kth_largest k (List.map (licensees_value q) ls)

and assertion_value q (a : Ast.assertion) =
  q.evaluated <- q.evaluated + 1;
  let lv = licensees_value q a.licensees in
  Int.min (conditions_value q 0 a.conditions) lv

let query ~policy ~credentials ~attrs ~requesters ~levels =
  if Array.length levels = 0 then invalid_arg "Eval.query: empty levels";
  let q =
    { attrs; credentials; requesters; levels; evaluated = 0; in_progress = []; memo = [] }
  in
  let rec root acc = function
    | [] -> acc
    | (a : Ast.assertion) :: rest ->
        let acc =
          if String.equal a.authorizer "POLICY" then Int.max acc (assertion_value q a) else acc
        in
        root acc rest
  in
  let index = root 0 policy in
  Smod_metrics.Counter.incr m_queries;
  Smod_metrics.Counter.add m_assertions_evaluated q.evaluated;
  { level = levels.(index); index; assertions_evaluated = q.evaluated }
