(* The KeyNote evaluator as it stood before [Eval.query] dropped its
   per-query hash tables, integer formatting and polymorphic compares,
   kept verbatim below the [Ast] alias as the oracle for the differential
   property in test_keynote.ml.  Its counters are [Eval]'s own (a
   metric is one instrument per name), so both move the same ones. *)

module Ast = Smod_keynote.Ast

type result = { level : string; index : int; assertions_evaluated : int }

(* Observability (lib/metrics): the section-5 prediction — dispatch cost
   grows with the number of assertions the policy check evaluates — in
   counter form. *)
let m_scope = Smod_metrics.scope "keynote"
let m_queries = Smod_metrics.Scope.counter m_scope "queries"
let m_assertions_evaluated = Smod_metrics.Scope.counter m_scope "assertions_evaluated"

let term_value ~attrs = function
  | Ast.Str s -> s
  | Ast.Int i -> string_of_int i
  | Ast.Attr a -> ( match List.assoc_opt a attrs with Some v -> v | None -> "")

(* [int_of_string] can only succeed when a digit follows the optional
   sign, so every other value — a function or module name, say — is
   answered here instead of by a raised and caught [Failure]. *)
let int_value s =
  let n = String.length s in
  let i = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if i < n && s.[i] >= '0' && s.[i] <= '9' then int_of_string_opt s else None

let compare_values a b =
  match (int_value a, int_value b) with
  | Some ia, Some ib -> compare ia ib
  | _ -> compare a b

let rec eval_expr ~attrs = function
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Not e -> not (eval_expr ~attrs e)
  | Ast.And (a, b) -> eval_expr ~attrs a && eval_expr ~attrs b
  | Ast.Or (a, b) -> eval_expr ~attrs a || eval_expr ~attrs b
  | Ast.Cmp (ta, op, tb) -> (
      let va = term_value ~attrs ta and vb = term_value ~attrs tb in
      let c = compare_values va vb in
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let kth_largest k values =
  let sorted = List.sort (fun a b -> compare b a) values in
  match List.nth_opt sorted (k - 1) with Some v -> v | None -> 0

let query ~policy ~credentials ~attrs ~requesters ~levels =
  if Array.length levels = 0 then invalid_arg "Eval.query: empty levels";
  let max_index = Array.length levels - 1 in
  let level_index name =
    let rec find i =
      if i > max_index then
        invalid_arg (Printf.sprintf "Eval.query: unknown compliance level %S" name)
      else if levels.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  let evaluated = ref 0 in
  let conditions_value (a : Ast.assertion) =
    List.fold_left
      (fun acc (c : Ast.clause) ->
        if eval_expr ~attrs c.guard then max acc (level_index c.value) else acc)
      0 a.conditions
  in
  (* Principal values with cycle protection: principals currently being
     evaluated contribute minimum trust. *)
  let in_progress = Hashtbl.create 16 in
  let memo = Hashtbl.create 16 in
  let rec principal_value p =
    if List.mem p requesters then max_index
    else if Hashtbl.mem in_progress p then 0
    else begin
      match Hashtbl.find_opt memo p with
      | Some v -> v
      | None ->
          Hashtbl.replace in_progress p ();
          let v =
            List.fold_left
              (fun acc (a : Ast.assertion) ->
                if a.authorizer = p then max acc (assertion_value a) else acc)
              0 credentials
          in
          Hashtbl.remove in_progress p;
          Hashtbl.replace memo p v;
          v
    end
  and licensees_value = function
    | Ast.L_empty -> 0
    | Ast.L_principal p -> principal_value p
    | Ast.L_and (a, b) -> min (licensees_value a) (licensees_value b)
    | Ast.L_or (a, b) -> max (licensees_value a) (licensees_value b)
    | Ast.L_kof (k, ls) -> kth_largest k (List.map licensees_value ls)
  and assertion_value (a : Ast.assertion) =
    incr evaluated;
    min (conditions_value a) (licensees_value a.licensees)
  in
  let index =
    List.fold_left
      (fun acc (a : Ast.assertion) ->
        if a.authorizer = "POLICY" then max acc (assertion_value a) else acc)
      0 policy
  in
  Smod_metrics.Counter.incr m_queries;
  Smod_metrics.Counter.add m_assertions_evaluated !evaluated;
  { level = levels.(index); index; assertions_evaluated = !evaluated }
