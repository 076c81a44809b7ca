(* Tests for Smod_keynote: parsing, guard evaluation, the compliance
   checker's delegation semantics, and assertion signatures. *)

module Ast = Smod_keynote.Ast
module Parse = Smod_keynote.Parse
module Eval = Smod_keynote.Eval
module Keystore = Smod_keynote.Keystore

let levels = [| "deny"; "review"; "allow" |]

let parse = Parse.assertion_of_string
let expr = Parse.expr_of_string

let eval_true e attrs = Eval.eval_expr ~attrs (expr e)

(* ------------------------------ parser ----------------------------- *)

let test_parse_minimal () =
  let a = parse "keynote-version: 2\nauthorizer: \"POLICY\"\n" in
  Alcotest.(check string) "authorizer" "POLICY" a.Ast.authorizer;
  Alcotest.(check bool) "no licensees" true (a.Ast.licensees = Ast.L_empty)

let test_parse_full () =
  let a =
    parse
      "keynote-version: 2\n\
       comment: a full assertion\n\
       authorizer: \"vendor\"\n\
       licensees: \"alice\" || \"bob\"\n\
       conditions: module == \"libc\" -> \"allow\"; calls < 100 -> \"review\";\n"
  in
  Alcotest.(check (option string)) "comment" (Some "a full assertion") a.Ast.comment;
  Alcotest.(check int) "two clauses" 2 (List.length a.Ast.conditions);
  match a.Ast.licensees with
  | Ast.L_or (Ast.L_principal "alice", Ast.L_principal "bob") -> ()
  | _ -> Alcotest.fail "licensees shape"

let test_parse_continuation_lines () =
  let a =
    parse
      "keynote-version: 2\nauthorizer: \"POLICY\"\nconditions: module == \"libc\"\n\
      \    && version >= 2 -> \"allow\";\n"
  in
  Alcotest.(check int) "clause parsed across lines" 1 (List.length a.Ast.conditions)

let test_parse_kof () =
  match Parse.licensees_of_string "2-of(\"a\", \"b\", \"c\")" with
  | Ast.L_kof (2, [ _; _; _ ]) -> ()
  | _ -> Alcotest.fail "k-of shape"

let test_parse_kof_threshold_bounds () =
  Alcotest.(check bool) "k too large" true
    (match Parse.licensees_of_string "4-of(\"a\", \"b\")" with
    | _ -> false
    | exception Parse.Parse_error _ -> true)

let test_parse_nested_licensees () =
  match Parse.licensees_of_string "(\"a\" && \"b\") || \"c\"" with
  | Ast.L_or (Ast.L_and _, Ast.L_principal "c") -> ()
  | _ -> Alcotest.fail "nesting"

let test_parse_errors_carry_line () =
  Alcotest.(check bool) "line number" true
    (match parse "keynote-version: 2\nauthorizer: \"P\"\nconditions: == -> \"x\";\n" with
    | _ -> false
    | exception Parse.Parse_error { line = 3; _ } -> true)

let test_parse_unknown_field () =
  Alcotest.(check bool) "unknown field" true
    (match parse "keynote-version: 2\nauthorizer: \"P\"\nfrobnicator: yes\n" with
    | _ -> false
    | exception Parse.Parse_error _ -> true)

let test_parse_bad_version () =
  Alcotest.(check bool) "version 3 rejected" true
    (match parse "keynote-version: 3\nauthorizer: \"P\"\n" with
    | _ -> false
    | exception Parse.Parse_error _ -> true)

let test_parse_missing_authorizer () =
  Alcotest.(check bool) "no authorizer" true
    (match parse "keynote-version: 2\ncomment: nothing else\n" with
    | _ -> false
    | exception Parse.Parse_error _ -> true)

let test_parse_multiple_assertions () =
  let text =
    "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"v\"\n\n\
     keynote-version: 2\nauthorizer: \"v\"\nlicensees: \"alice\"\n"
  in
  Alcotest.(check int) "two assertions" 2 (List.length (Parse.assertions_of_string text))

let test_canonical_body_reparses () =
  let a =
    parse
      "keynote-version: 2\n\
       authorizer: \"vendor\"\n\
       licensees: 2-of(\"a\", \"b\" && \"c\", \"d\")\n\
       conditions: x == \"y\" && !(n < 5) -> \"allow\"; true -> \"review\";\n\
       comment: round trip me\n"
  in
  let b = parse (Ast.canonical_body a) in
  Alcotest.(check string) "authorizer" a.Ast.authorizer b.Ast.authorizer;
  Alcotest.(check int) "clauses" (List.length a.Ast.conditions) (List.length b.Ast.conditions);
  (* Canonicalisation must be a fixpoint. *)
  Alcotest.(check string) "canonical fixpoint" (Ast.canonical_body a) (Ast.canonical_body b)


let test_parse_local_constants () =
  (* dialect: local-constants: NAME "value" pairs *)
  let a =
    parse
      "keynote-version: 2\n\
       local-constants: VENDOR \"acme-vendor-key-2006\" MOD \"seclibc\"\n\
       authorizer: \"POLICY\"\n\
       licensees: VENDOR\n\
       conditions: module == MOD -> \"allow\";\n"
  in
  (match a.Ast.licensees with
  | Ast.L_principal "acme-vendor-key-2006" -> ()
  | _ -> Alcotest.fail "constant not substituted in licensees");
  match a.Ast.conditions with
  | [ { Ast.guard = Ast.Cmp (Ast.Attr "module", Ast.Eq, Ast.Str "seclibc"); _ } ] -> ()
  | _ -> Alcotest.fail "constant not substituted in conditions"

let test_local_constants_order_independent () =
  (* constants declared after the fields that use them still apply *)
  let a =
    parse
      "keynote-version: 2\n\
       authorizer: \"POLICY\"\n\
       licensees: KEY\n\
       local-constants: KEY \"the-real-principal\"\n"
  in
  match a.Ast.licensees with
  | Ast.L_principal "the-real-principal" -> ()
  | _ -> Alcotest.fail "late constants must still substitute"

let test_local_constants_bad_value () =
  Alcotest.(check bool) "unquoted value rejected" true
    (match parse "keynote-version: 2\nauthorizer: \"P\"\nlocal-constants: KEY 42\n" with
    | _ -> false
    | exception Parse.Parse_error _ -> true)

(* --------------------------- expressions --------------------------- *)

let test_expr_string_compare () =
  Alcotest.(check bool) "eq" true (eval_true "app == \"secmodule\"" [ ("app", "secmodule") ]);
  Alcotest.(check bool) "ne" true (eval_true "app != \"other\"" [ ("app", "secmodule") ]);
  Alcotest.(check bool) "missing attr is empty" true (eval_true "ghost == \"\"" [])

let test_expr_numeric_compare () =
  Alcotest.(check bool) "lt numeric" true (eval_true "calls < 100" [ ("calls", "99") ]);
  Alcotest.(check bool) "9 < 10 numerically" true (eval_true "calls < 10" [ ("calls", "9") ]);
  Alcotest.(check bool) "lexicographic when non-numeric" true
    (eval_true "name < \"zzz\"" [ ("name", "abc") ]);
  Alcotest.(check bool) "ge" true (eval_true "v >= 2" [ ("v", "2") ])

let test_expr_boolean_structure () =
  let attrs = [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check bool) "and" true (eval_true "a == 1 && b == 2" attrs);
  Alcotest.(check bool) "or short" true (eval_true "a == 9 || b == 2" attrs);
  Alcotest.(check bool) "not" true (eval_true "!(a == 9)" attrs);
  Alcotest.(check bool) "precedence: && binds tighter" true
    (eval_true "a == 9 && b == 9 || b == 2" attrs);
  Alcotest.(check bool) "literals" true (eval_true "true && !false" [])

let test_expr_negative_numbers () =
  Alcotest.(check bool) "negative literal" true (eval_true "t > -5" [ ("t", "-3") ])

(* The rule as it stood before [Eval.compare_values] stopped calling
   [int_of_string_opt] on values that cannot be integers: the oracle. *)
let old_compare_values a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some ia, Some ib -> compare ia ib
  | _ -> compare a b

let test_compare_values_differential () =
  let fixed =
    [ ""; "-"; "+"; "+7"; "-7"; "7"; "0"; "-0"; "+0"; "0x1F"; "-0x1f"; "0X1F"; "0b101";
      "0B11"; "0o17"; "0O17"; "0u5"; "0U5"; "1_000"; "_1"; "1_"; " 1"; "1 "; "--1"; "+-1";
      "x1"; "0x"; "0xg"; "9223372036854775807"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
      "99999999999999999999999"; "0x7FFFFFFFFFFFFFFF"; "0xFFFFFFFFFFFFFFFFF"; "abs";
      "test_incr"; "seclibc"; "msgq" ]
  in
  let alphabet = "0123456789-+_xXbBoOuU aZ" in
  let rng = Random.State.make [| 13 |] in
  let random_value () =
    String.init (Random.State.int rng 7) (fun _ ->
        alphabet.[Random.State.int rng (String.length alphabet)])
  in
  let values = fixed @ List.init 400 (fun _ -> random_value ()) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let want = old_compare_values a b and got = Eval.compare_values a b in
          if got <> want then
            Alcotest.failf "compare_values %S %S = %d, old rule %d" a b got want)
        values)
    values

(* ------------------------ compliance checker ----------------------- *)

let query ~policy ~credentials ~attrs ~requesters =
  (Eval.query ~policy ~credentials ~attrs ~requesters ~levels).Eval.level

let policy_trusting ?(conds = "true -> \"allow\";") who =
  parse
    (Printf.sprintf "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: %s\nconditions: %s\n"
       who conds)

let delegation ~from ~to_ ?(conds = "true -> \"allow\";") () =
  parse
    (Printf.sprintf
       "keynote-version: 2\nauthorizer: \"%s\"\nlicensees: \"%s\"\nconditions: %s\n" from to_
       conds)

let test_local_constants_in_query () =
  let policy =
    [
      parse
        "keynote-version: 2\n\
         local-constants: OWNER \"alice\"\n\
         authorizer: \"POLICY\"\n\
         licensees: OWNER\n\
         conditions: true -> \"allow\";\n";
    ]
  in
  Alcotest.(check string) "constant principal authorized" "allow"
    (query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "alice" ])

let test_query_direct_grant () =
  Alcotest.(check string) "direct licensee" "allow"
    (query ~policy:[ policy_trusting "\"alice\"" ] ~credentials:[] ~attrs:[]
       ~requesters:[ "alice" ])

let test_query_no_grant () =
  Alcotest.(check string) "stranger denied" "deny"
    (query ~policy:[ policy_trusting "\"alice\"" ] ~credentials:[] ~attrs:[]
       ~requesters:[ "mallory" ])

let test_query_delegation_chain () =
  let policy = [ policy_trusting "\"vendor\"" ] in
  let credentials = [ delegation ~from:"vendor" ~to_:"alice" () ] in
  Alcotest.(check string) "one hop" "allow"
    (query ~policy ~credentials ~attrs:[] ~requesters:[ "alice" ]);
  let credentials2 = credentials @ [ delegation ~from:"alice" ~to_:"bob" () ] in
  Alcotest.(check string) "two hops" "allow"
    (query ~policy ~credentials:credentials2 ~attrs:[] ~requesters:[ "bob" ])

let test_query_chain_min_semantics () =
  (* The middle link only grants "review": min() caps the chain. *)
  let policy = [ policy_trusting "\"vendor\"" ] in
  let credentials =
    [ delegation ~from:"vendor" ~to_:"alice" ~conds:"true -> \"review\";" () ]
  in
  Alcotest.(check string) "capped at review" "review"
    (query ~policy ~credentials ~attrs:[] ~requesters:[ "alice" ])

let test_query_conditions_gate () =
  let policy = [ policy_trusting ~conds:"module == \"libc\" -> \"allow\";" "\"alice\"" ] in
  Alcotest.(check string) "matching attrs" "allow"
    (query ~policy ~credentials:[] ~attrs:[ ("module", "libc") ] ~requesters:[ "alice" ]);
  Alcotest.(check string) "non-matching attrs" "deny"
    (query ~policy ~credentials:[] ~attrs:[ ("module", "othr") ] ~requesters:[ "alice" ])

let test_query_and_licensees () =
  let policy = [ policy_trusting "\"a\" && \"b\"" ] in
  Alcotest.(check string) "both present" "allow"
    (query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "a"; "b" ]);
  Alcotest.(check string) "one missing" "deny"
    (query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "a" ])

let test_query_kof_threshold () =
  let policy = [ policy_trusting "2-of(\"a\", \"b\", \"c\")" ] in
  Alcotest.(check string) "two of three" "allow"
    (query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "a"; "c" ]);
  Alcotest.(check string) "one of three" "deny"
    (query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "b" ])

let test_query_cycle_safe () =
  (* a delegates to b, b delegates to a: must terminate, grant nothing. *)
  let policy = [ policy_trusting "\"a\"" ] in
  let credentials =
    [ delegation ~from:"a" ~to_:"b" (); delegation ~from:"b" ~to_:"a" () ]
  in
  Alcotest.(check string) "cycle terminates, stranger denied" "deny"
    (query ~policy ~credentials ~attrs:[] ~requesters:[ "mallory" ])

let test_query_best_clause_wins () =
  let policy =
    [ policy_trusting ~conds:"true -> \"review\"; x == 1 -> \"allow\";" "\"alice\"" ]
  in
  Alcotest.(check string) "max matching clause" "allow"
    (query ~policy ~credentials:[] ~attrs:[ ("x", "1") ] ~requesters:[ "alice" ])

let test_query_counts_evaluations () =
  let policy = List.init 5 (fun _ -> policy_trusting "\"alice\"") in
  let r = Eval.query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "alice" ] ~levels in
  Alcotest.(check int) "five assertions evaluated" 5 r.Eval.assertions_evaluated

let test_query_unknown_level () =
  let policy = [ policy_trusting ~conds:"true -> \"sudo\";" "\"alice\"" ] in
  Alcotest.(check bool) "invalid level" true
    (match Eval.query ~policy ~credentials:[] ~attrs:[] ~requesters:[ "alice" ] ~levels with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_query_empty_levels () =
  Alcotest.(check bool) "empty levels" true
    (match Eval.query ~policy:[] ~credentials:[] ~attrs:[] ~requesters:[] ~levels:[||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_non_policy_assertions_ignored_at_root () =
  (* An attacker-authored assertion granting itself everything is not a
     POLICY assertion and must not contribute at the root. *)
  let rogue = delegation ~from:"mallory" ~to_:"mallory" () in
  Alcotest.(check string) "rogue root ignored" "deny"
    (query ~policy:[ rogue ] ~credentials:[] ~attrs:[] ~requesters:[ "mallory" ])

(* ----------------------------- keystore ---------------------------- *)

let test_sign_and_verify () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"s3cret";
  let a = delegation ~from:"vendor" ~to_:"alice" () in
  let signed = Keystore.sign ks a in
  Alcotest.(check bool) "has signature" true (signed.Ast.signature <> None);
  Alcotest.(check bool) "verifies" true (Keystore.verify ks signed)

let test_verify_rejects_tamper () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"s3cret";
  let signed = Keystore.sign ks (delegation ~from:"vendor" ~to_:"alice" ()) in
  let tampered = { signed with Ast.licensees = Ast.L_principal "mallory" } in
  Alcotest.(check bool) "tampered body fails" false (Keystore.verify ks tampered)

let test_verify_unsigned_fails () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"s3cret";
  Alcotest.(check bool) "unsigned fails" false
    (Keystore.verify ks (delegation ~from:"vendor" ~to_:"alice" ()))

let test_verify_unknown_principal_fails () =
  let ks = Keystore.create () in
  Keystore.add_principal ks ~name:"vendor" ~secret:"s3cret";
  let signed = Keystore.sign ks (delegation ~from:"vendor" ~to_:"alice" ()) in
  let ks2 = Keystore.create () in
  Alcotest.(check bool) "no key registered" false (Keystore.verify ks2 signed)

let test_policy_assertions_locally_trusted () =
  let ks = Keystore.create () in
  Alcotest.(check bool) "POLICY needs no signature" true
    (Keystore.verify ks (policy_trusting "\"alice\""))

let test_sign_unknown_principal () =
  let ks = Keystore.create () in
  Alcotest.check_raises "Not_found" Not_found (fun () ->
      ignore (Keystore.sign ks (delegation ~from:"ghost" ~to_:"x" ())))

(* --------------------------- properties ---------------------------- *)

let prop_requesters_monotone =
  (* Adding a requester can never lower the compliance level. *)
  QCheck.Test.make ~name:"more requesters never lower compliance" ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 3) (int_bound 2)) (int_bound 2))
    (fun (reqs, extra) ->
      let name i = Printf.sprintf "p%d" i in
      let policy = [ policy_trusting "2-of(\"p0\", \"p1\", \"p2\")" ] in
      let base = List.map name reqs in
      let more = name extra :: base in
      let level l =
        (Eval.query ~policy ~credentials:[] ~attrs:[] ~requesters:l ~levels).Eval.index
      in
      level more >= level base)


(* --------------------------- properties ----------------------------- *)

(* Random assertion ASTs: canonical_body must be re-parseable and a
   fixpoint (parse (canonical a) canonicalises identically). *)
let gen_assertion =
  let open QCheck.Gen in
  (* prefix with 'k' so generated identifiers can never collide with the
     'true'/'false' keywords *)
  let gen_name = map (( ^ ) "k") (string_size ~gen:(char_range 'a' 'z') (1 -- 7)) in
  let gen_term =
    oneof
      [ map (fun n -> Ast.Attr n) gen_name;
        map (fun s -> Ast.Str s) gen_name;
        map (fun i -> Ast.Int (i - 500)) (int_bound 1000) ]
  in
  let gen_cmp = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let rec gen_expr n =
    if n = 0 then
      oneof
        [ return Ast.True; return Ast.False;
          map3 (fun a o b -> Ast.Cmp (a, o, b)) gen_term gen_cmp gen_term ]
    else
      oneof
        [ map3 (fun a o b -> Ast.Cmp (a, o, b)) gen_term gen_cmp gen_term;
          map (fun e -> Ast.Not e) (gen_expr (n - 1));
          map2 (fun a b -> Ast.And (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1));
          map2 (fun a b -> Ast.Or (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1)) ]
  in
  let rec gen_lic n =
    if n = 0 then map (fun p -> Ast.L_principal p) gen_name
    else
      oneof
        [ map (fun p -> Ast.L_principal p) gen_name;
          map2 (fun a b -> Ast.L_and (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1));
          map2 (fun a b -> Ast.L_or (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1));
          (list_size (2 -- 4) (gen_lic (n - 1)) >>= fun ls ->
           int_range 1 (List.length ls) >|= fun k -> Ast.L_kof (k, ls)) ]
  in
  gen_name >>= fun authorizer ->
  gen_lic 2 >>= fun licensees ->
  list_size (0 -- 3) (pair (gen_expr 2) (oneofl [ "deny"; "review"; "allow" ]))
  >>= fun clauses ->
  return
    {
      Ast.authorizer;
      licensees;
      conditions = List.map (fun (guard, value) -> { Ast.guard; value }) clauses;
      comment = None;
      signature = None;
    }

let prop_canonical_fixpoint =
  QCheck.Test.make ~name:"canonical body is a re-parseable fixpoint" ~count:300
    (QCheck.make gen_assertion) (fun a ->
      let b = Parse.assertion_of_string (Ast.canonical_body a) in
      Ast.canonical_body b = Ast.canonical_body a)

let prop_signature_covers_body =
  QCheck.Test.make ~name:"any body change breaks the signature" ~count:100
    (QCheck.make (QCheck.Gen.pair gen_assertion gen_assertion)) (fun (a, b) ->
      QCheck.assume (Ast.canonical_body a <> Ast.canonical_body b);
      let ks = Keystore.create () in
      Keystore.add_principal ks ~name:a.Ast.authorizer ~secret:"s";
      Keystore.add_principal ks ~name:b.Ast.authorizer ~secret:"s";
      let signed = Keystore.sign ks a in
      let swapped = { b with Ast.signature = signed.Ast.signature } in
      Keystore.verify ks signed && not (Keystore.verify ks swapped))

(* ------------------- query = the reference evaluator ---------------- *)

(* Queries over a closed world where guards compare integer literals with
   the values that read differently as ints and as text ([""], ["-0"],
   ["+7"], ["007"], ["x1"], numbers beyond the int range), attributes
   with attributes, clauses name levels outside [levels] and licensees
   take k-of.  Three principals, several credentials and few requesters
   make delegations cycle often enough that evaluating an [&&]'s or an
   [||]'s operands in the other order, which changes what a cycle
   memoises, fails the property. *)
let gen_reference_query =
  let open QCheck.Gen in
  let principals = [ "alice"; "kp0"; "kp1" ] in
  let gen_principal = oneofl principals in
  let gen_value =
    oneof
      [
        oneofl
          [ ""; "-0"; "+7"; "007"; "x1"; "0"; "7"; "-3"; "abc"; "0x1F"; "1_000";
            "4611686018427387904"; "-4611686018427387905"; "99999999999999999999" ];
        map string_of_int (int_range (-3) 8);
      ]
  in
  let gen_attr_name = oneofl [ "a"; "b"; "c"; "d" ] in
  let gen_term =
    frequency
      [
        (3, map (fun n -> Ast.Attr n) gen_attr_name);
        (1, map (fun s -> Ast.Str s) gen_value);
        (3, map (fun i -> Ast.Int i) (oneof [ int_range (-3) 8; oneofl [ max_int; min_int ] ]));
      ]
  in
  let gen_cmp = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let gen_cmp_expr = map3 (fun a o b -> Ast.Cmp (a, o, b)) gen_term gen_cmp gen_term in
  let rec gen_expr n =
    if n = 0 then frequency [ (1, return Ast.True); (1, return Ast.False); (6, gen_cmp_expr) ]
    else
      frequency
        [
          (4, gen_cmp_expr);
          (1, map (fun e -> Ast.Not e) (gen_expr (n - 1)));
          (1, map2 (fun a b -> Ast.And (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1)));
          (1, map2 (fun a b -> Ast.Or (a, b)) (gen_expr (n - 1)) (gen_expr (n - 1)));
        ]
  in
  let rec gen_lic n =
    if n = 0 then
      frequency [ (5, map (fun p -> Ast.L_principal p) gen_principal); (1, return Ast.L_empty) ]
    else
      frequency
        [
          (2, map (fun p -> Ast.L_principal p) gen_principal);
          (2, map2 (fun a b -> Ast.L_and (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1)));
          (2, map2 (fun a b -> Ast.L_or (a, b)) (gen_lic (n - 1)) (gen_lic (n - 1)));
          ( 2,
            list_size (2 -- 4) (gen_lic (n - 1)) >>= fun ls ->
            int_range 1 (List.length ls + 1) >|= fun k -> Ast.L_kof (k, ls) );
        ]
  in
  let gen_level =
    frequency [ (12, oneofl [ "deny"; "review"; "allow" ]); (1, oneofl [ "sudo"; "root" ]) ]
  in
  let gen_clauses =
    list_size (0 -- 3) (map2 (fun guard value -> { Ast.guard; value }) (gen_expr 2) gen_level)
  in
  let gen_assertion authorizer =
    map2
      (fun licensees conditions ->
        { Ast.authorizer; licensees; conditions; comment = None; signature = None })
      (gen_lic 2) gen_clauses
  in
  list_size (1 -- 4)
    (frequency [ (5, return "POLICY"); (1, gen_principal) ] >>= gen_assertion)
  >>= fun policy ->
  list_size (1 -- 8) (gen_principal >>= gen_assertion) >>= fun credentials ->
  list_size (0 -- 4) (pair gen_attr_name gen_value) >>= fun attrs ->
  list_size (0 -- 1) gen_principal >>= fun requesters ->
  frequency [ (20, return levels); (1, return [||]) ] >|= fun levels ->
  (policy, credentials, attrs, requesters, levels)

let print_reference_query (policy, credentials, attrs, requesters, levels) =
  Printf.sprintf "policy:\n%s\ncredentials:\n%s\nattrs: %s\nrequesters: %s\nlevels: %s"
    (String.concat "---\n" (List.map Ast.canonical_body policy))
    (String.concat "---\n" (List.map Ast.canonical_body credentials))
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) attrs))
    (String.concat ", " requesters)
    (String.concat ", " (Array.to_list levels))

let counter name = Option.value ~default:0 (Smod_metrics.counter_value name)

(* One run's outcome and what it added to the keynote counters. *)
let counted_outcome query =
  let q0 = counter "keynote.queries" and e0 = counter "keynote.assertions_evaluated" in
  let outcome = match query () with r -> Ok r | exception Invalid_argument m -> Error m in
  ( outcome,
    counter "keynote.queries" - q0,
    counter "keynote.assertions_evaluated" - e0 )

let prop_query_matches_reference =
  QCheck.Test.make ~name:"query = reference evaluator" ~count:3000
    (QCheck.make ~print:print_reference_query gen_reference_query)
    (fun (policy, credentials, attrs, requesters, levels) ->
      let want =
        counted_outcome (fun () ->
            let r = Eval_reference.query ~policy ~credentials ~attrs ~requesters ~levels in
            ( r.Eval_reference.level,
              r.Eval_reference.index,
              r.Eval_reference.assertions_evaluated ))
      and got =
        counted_outcome (fun () ->
            let r = Eval.query ~policy ~credentials ~attrs ~requesters ~levels in
            (r.Eval.level, r.Eval.index, r.Eval.assertions_evaluated))
      in
      want = got)

(* The establishment check of a session on a kn-16 policy whose guards
   compare integer literals with absent attributes: its words are the
   query record, the result and a few parsed values (280 while each query
   built two hash tables and formatted every literal). *)
let test_kn16_query_words () =
  let assertion cond =
    parse
      (Printf.sprintf
         "keynote-version: 2\n\
          authorizer: \"POLICY\"\n\
          licensees: \"client\"\n\
          conditions: %s -> \"allow\";\n"
         cond)
  in
  let policy =
    assertion "module == \"seclibc\" && calls_so_far < 1000000000 && function != \"abs\""
    :: List.init 15 (fun i ->
           assertion (Printf.sprintf "module == \"seclibc\" && clause == %d" i))
  in
  let attrs =
    [
      ("phase", "session");
      ("module", "seclibc");
      ("principal", "client");
      ("origin_module", "user");
      ("origin_ring", "3");
      ("origin_transport", "attach");
    ]
  in
  let query () =
    Eval.query ~policy ~credentials:[] ~attrs ~requesters:[ "client" ]
      ~levels:[| "deny"; "allow" |]
  in
  ignore (query ());
  let m0 = Gc.minor_words () in
  let r = query () in
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check string) "admitted" "allow" r.Eval.level;
  Alcotest.(check int) "sixteen assertions" 16 r.Eval.assertions_evaluated;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words, at most 40" words)
    true (words <= 40.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "keynote"
    [
      ( "parser",
        [
          tc "minimal" test_parse_minimal;
          tc "full assertion" test_parse_full;
          tc "continuation lines" test_parse_continuation_lines;
          tc "k-of" test_parse_kof;
          tc "k-of bounds" test_parse_kof_threshold_bounds;
          tc "nested licensees" test_parse_nested_licensees;
          tc "errors carry line" test_parse_errors_carry_line;
          tc "unknown field" test_parse_unknown_field;
          tc "bad version" test_parse_bad_version;
          tc "missing authorizer" test_parse_missing_authorizer;
          tc "multiple assertions" test_parse_multiple_assertions;
          tc "canonical body reparses" test_canonical_body_reparses;
          tc "local-constants" test_parse_local_constants;
          tc "local-constants order-free" test_local_constants_order_independent;
          tc "local-constants bad value" test_local_constants_bad_value;
        ] );
      ( "expressions",
        [
          tc "string compare" test_expr_string_compare;
          tc "numeric compare" test_expr_numeric_compare;
          tc "boolean structure" test_expr_boolean_structure;
          tc "negative numbers" test_expr_negative_numbers;
          tc "compare_values = old rule" test_compare_values_differential;
        ] );
      ( "compliance",
        [
          tc "direct grant" test_query_direct_grant;
          tc "local-constants in query" test_local_constants_in_query;
          tc "stranger denied" test_query_no_grant;
          tc "delegation chains" test_query_delegation_chain;
          tc "chain min semantics" test_query_chain_min_semantics;
          tc "conditions gate" test_query_conditions_gate;
          tc "&& licensees" test_query_and_licensees;
          tc "k-of threshold" test_query_kof_threshold;
          tc "cycle safety" test_query_cycle_safe;
          tc "best clause wins" test_query_best_clause_wins;
          tc "evaluation counting" test_query_counts_evaluations;
          tc "unknown level" test_query_unknown_level;
          tc "empty levels" test_query_empty_levels;
          tc "rogue root ignored" test_non_policy_assertions_ignored_at_root;
          tc "kn-16 query words" test_kn16_query_words;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_requesters_monotone; prop_query_matches_reference ] );
      ( "keystore",
        [
          tc "sign and verify" test_sign_and_verify;
          tc "tamper detected" test_verify_rejects_tamper;
          tc "unsigned fails" test_verify_unsigned_fails;
          tc "unknown principal fails" test_verify_unknown_principal_fails;
          tc "POLICY locally trusted" test_policy_assertions_locally_trusted;
          tc "sign without key" test_sign_unknown_principal;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_canonical_fixpoint; prop_signature_covers_body ] );
    ]
