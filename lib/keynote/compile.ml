(* Flattening [Eval.query] into a postfix decision program.

   The compile-time walk below is the *same* depth-first traversal the
   interpreter performs at query time — same visit order (principals under
   [&&]/[||] right-to-left, matching the interpreter's argument evaluation
   order; k-of members left-to-right), same requester short-circuit, same
   cycle cut, same memoization — except that instead of computing values it
   emits opcodes.  That structural mirroring is what makes the differential
   guarantee in the .mli hold: the traversal is independent of the action
   attributes, so resolving it once is sound. *)

type operand = O_str of string | O_attr of string
type ofield = OF_module | OF_ring | OF_transport

type instr =
  | Test of operand * Ast.cmp * operand  (* push guard comparison result *)
  | Push_bool of bool
  | Not_top
  | Jfalse of int  (* top false: jump keeping it; else pop and fall through *)
  | Jtrue of int
  | Node_begin  (* clause accumulator := 0 *)
  | Clause of int  (* pop guard; if it held, accumulator := max acc level *)
  | Push_level of int
  | Load_node of int
  | Min2
  | Max2
  | Kof of int * int  (* (k, n): pop n values, push the k-th largest *)
  | Node_end of int  (* pop licensee value; node := min acc value *)
  | Node_end_const of int * int  (* licensee value folded at compile time *)
  | Store_node of int  (* pop a computed value into a shared node *)
  | Root of int * int array  (* push max of a constant and the given nodes *)
  (* superoperators ([Fuse.plan] only): two base opcodes, one dispatch, one op *)
  | Test_jf of operand * Ast.cmp * operand * int
  | Test_jt of operand * Ast.cmp * operand * int
  | Test_clause of operand * Ast.cmp * operand * int
  | Load_max of int  (* top := max top nodes.(i) *)
  | Const_max of int  (* top := max top c *)
  | Const_min of int  (* top := min top c *)
  (* origin tests ([Fuse.plan] only): the left side is read from the
     kernel-held origin record, not from the attribute list *)
  | Origin_test of ofield * Ast.cmp * operand
  | Origin_jf of ofield * Ast.cmp * operand * int
  | Origin_jt of ofield * Ast.cmp * operand * int
  | Origin_clause of ofield * Ast.cmp * operand * int

type t = { instrs : instr array; nnodes : int; levels : string array }

type outcome = { level : string; index : int; ops : int }
type origin = { o_module : string; o_ring : int; o_transport : string }

let no_origin = { o_module = "user"; o_ring = 3; o_transport = "msgq" }

let mnemonic = function
  | Test _ -> "test"
  | Push_bool _ -> "push-bool"
  | Not_top -> "not"
  | Jfalse _ -> "jfalse"
  | Jtrue _ -> "jtrue"
  | Node_begin -> "node-begin"
  | Clause _ -> "clause"
  | Push_level _ -> "push-level"
  | Load_node _ -> "load-node"
  | Min2 -> "min"
  | Max2 -> "max"
  | Kof _ -> "k-of"
  | Node_end _ -> "node-end"
  | Node_end_const _ -> "node-end-const"
  | Store_node _ -> "store-node"
  | Root _ -> "root"
  | Test_jf _ -> "test+jf"
  | Test_jt _ -> "test+jt"
  | Test_clause _ -> "test+clause"
  | Load_max _ -> "load+max"
  | Const_max _ -> "const+max"
  | Const_min _ -> "const+min"
  | Origin_test _ -> "origin"
  | Origin_jf _ -> "origin+jf"
  | Origin_jt _ -> "origin+jt"
  | Origin_clause _ -> "origin+clause"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* A value source resolved at compile time: either a constant compliance
   index or a node the program computes once per run. *)
type src = Const of int | Node of int

(* Licensee sub-expression after principal resolution and constant
   folding, ready to emit as stack code. *)
type lsrc =
  | L_const of int
  | L_node of int
  | L_min of lsrc * lsrc
  | L_max of lsrc * lsrc
  | L_kth of int * lsrc list

exception Unknown_level of string

(* ------------------------------------------------------------------ *)
(* Origin predicates                                                   *)
(* ------------------------------------------------------------------ *)

type origin_env = { known_modules : string list }

let origin_attrs = [ "origin_module"; "origin_ring"; "origin_transport" ]
let origin_transports = [ "msgq"; "ring"; "poller"; "attach" ]
let origin_ring_max = 3

exception Bad_origin of string

(* An origin predicate naming a module, ring, or transport the kernel can
   never report is a policy that can only ever misfire — same fail-closed
   discipline as an unknown compliance level: reject at compile time so the
   caller installs the deny-all stub instead of silently compiling a
   predicate that a typo turned into [False] (or worse, one the author
   believed was [False]). *)
let check_origin_literal env attr (lit : Ast.term) =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_origin m)) fmt in
  match (attr, lit) with
  | _, Ast.Attr _ -> () (* attr-vs-attr comparisons are resolved at run time *)
  | "origin_module", Ast.Str s ->
      if s <> "user" && not (List.mem s env.known_modules) then
        bad "compile: origin predicate names unknown module %S" s
  | "origin_module", Ast.Int i ->
      bad "compile: origin_module compared against integer %d" i
  | "origin_ring", (Ast.Int _ | Ast.Str _) ->
      let v =
        match lit with
        | Ast.Int i -> Some i
        | Ast.Str s -> int_of_string_opt s
        | Ast.Attr _ -> None
      in
      (match v with
      | Some r when r >= 0 && r <= origin_ring_max -> ()
      | _ -> bad "compile: origin predicate names unknown ring (want 0..%d)" origin_ring_max)
  | "origin_transport", Ast.Str s ->
      if not (List.mem s origin_transports) then
        bad "compile: origin predicate names unknown transport %S" s
  | "origin_transport", Ast.Int i ->
      bad "compile: origin_transport compared against integer %d" i
  | _ -> ()

let rec check_origin_expr env = function
  | Ast.True | Ast.False -> ()
  | Ast.Not e -> check_origin_expr env e
  | Ast.And (a, b) | Ast.Or (a, b) ->
      check_origin_expr env a;
      check_origin_expr env b
  | Ast.Cmp (a, _, b) ->
      (match a with
      | Ast.Attr n when List.mem n origin_attrs -> check_origin_literal env n b
      | _ -> ());
      (match b with
      | Ast.Attr n when List.mem n origin_attrs -> check_origin_literal env n a
      | _ -> ())

let kth_largest k values =
  let sorted = List.sort (fun a b -> compare b a) values in
  match List.nth_opt sorted (k - 1) with Some v -> v | None -> 0

let compile ?origin ~policy ~credentials ~requesters ~levels () =
  if Array.length levels = 0 then Error "compile: empty levels"
  else begin
    let max_index = Array.length levels - 1 in
    let level_index name =
      let rec find i =
        if i > max_index then raise (Unknown_level name)
        else if levels.(i) = name then i
        else find (i + 1)
      in
      find 0
    in
    let code = ref (Array.make 64 Node_begin) in
    let len = ref 0 in
    let emit i =
      if !len >= Array.length !code then begin
        let bigger = Array.make (2 * Array.length !code) Node_begin in
        Array.blit !code 0 bigger 0 !len;
        code := bigger
      end;
      !code.(!len) <- i;
      incr len
    in
    let patch pos i = !code.(pos) <- i in
    let nnodes = ref 0 in
    let new_node () =
      let i = !nnodes in
      incr nnodes;
      i
    in
    let rec comp_expr (e : Ast.expr) =
      match e with
      | Ast.True -> emit (Push_bool true)
      | Ast.False -> emit (Push_bool false)
      | Ast.Cmp (a, op, b) ->
          let operand = function
            | Ast.Attr n -> O_attr n
            | Ast.Str s -> O_str s
            | Ast.Int i -> O_str (string_of_int i)
          in
          emit (Test (operand a, op, operand b))
      | Ast.Not e ->
          comp_expr e;
          emit Not_top
      | Ast.And (a, b) ->
          comp_expr a;
          let j = !len in
          emit (Jfalse 0);
          comp_expr b;
          patch j (Jfalse !len)
      | Ast.Or (a, b) ->
          comp_expr a;
          let j = !len in
          emit (Jtrue 0);
          comp_expr b;
          patch j (Jtrue !len)
    in
    let rec emit_lsrc = function
      | L_const c -> emit (Push_level c)
      | L_node i -> emit (Load_node i)
      | L_min (a, b) ->
          emit_lsrc a;
          emit_lsrc b;
          emit Min2
      | L_max (a, b) ->
          emit_lsrc a;
          emit_lsrc b;
          emit Max2
      | L_kth (k, ls) ->
          List.iter emit_lsrc ls;
          emit (Kof (k, List.length ls))
    in
    let mk_min a b =
      match (a, b) with
      | L_const 0, _ | _, L_const 0 -> L_const 0
      | L_const x, L_const y -> L_const (min x y)
      | _ -> L_min (a, b)
    in
    let mk_max a b =
      match (a, b) with
      | L_const x, L_const y -> L_const (max x y)
      | L_const 0, s | s, L_const 0 -> s
      | _ -> L_max (a, b)
    in
    let mk_kof k ls =
      let const = function L_const c -> Some c | _ -> None in
      match
        List.fold_left
          (fun acc l ->
            match (acc, const l) with Some cs, Some c -> Some (c :: cs) | _ -> None)
          (Some []) ls
      with
      | Some cs -> L_const (kth_largest k (List.rev cs))
      | None -> L_kth (k, ls)
    in
    (* The interpreter's [memo]/[in_progress] tables, reproduced over
       emission: a memoized principal becomes a shared node (computed once
       per run, exactly like a memo hit), an in-progress one the cycle
       constant. *)
    let in_progress = Hashtbl.create 16 in
    let memo : (string, src) Hashtbl.t = Hashtbl.create 16 in
    let rec principal_src p =
      if List.mem p requesters then Const max_index
      else if Hashtbl.mem in_progress p then Const 0
      else begin
        match Hashtbl.find_opt memo p with
        | Some s -> s
        | None ->
            Hashtbl.replace in_progress p ();
            let srcs =
              List.filter_map
                (fun (a : Ast.assertion) ->
                  if a.authorizer = p then Some (assertion_src a) else None)
                credentials
            in
            Hashtbl.remove in_progress p;
            let base =
              List.fold_left
                (fun acc s -> match s with Const c -> max acc c | Node _ -> acc)
                0 srcs
            in
            let nodes = List.filter_map (function Node i -> Some i | Const _ -> None) srcs in
            let s =
              match (nodes, base) with
              | [], _ -> Const base
              | [ i ], 0 -> Node i
              | _ ->
                  let idx = new_node () in
                  emit (Push_level base);
                  List.iter
                    (fun i ->
                      emit (Load_node i);
                      emit Max2)
                    nodes;
                  emit (Store_node idx);
                  Node idx
            in
            Hashtbl.replace memo p s;
            s
      end
    and licensees_src = function
      | Ast.L_empty -> L_const 0
      | Ast.L_principal p -> (
          match principal_src p with Const c -> L_const c | Node i -> L_node i)
      | Ast.L_and (a, b) ->
          (* Right-to-left, matching the interpreter's evaluation order of
             [min (licensees_value a) (licensees_value b)] — the order
             determines where delegation cycles are cut. *)
          let sb = licensees_src b in
          let sa = licensees_src a in
          mk_min sa sb
      | Ast.L_or (a, b) ->
          let sb = licensees_src b in
          let sa = licensees_src a in
          mk_max sa sb
      | Ast.L_kof (k, ls) -> mk_kof k (List.map licensees_src ls)
    and assertion_src (a : Ast.assertion) =
      (* Licensees resolve before conditions emit, mirroring the
         interpreter's argument order in
         [min (conditions_value a) (licensees_value a.licensees)]. *)
      let lic = licensees_src a.licensees in
      match (a.conditions, lic) with
      | [], _ | _, L_const 0 ->
          (* conditions of [] evaluate to 0; min against a licensee value
             of 0 is 0 — either way no clause can raise the result. *)
          Const 0
      | clauses, lic ->
          let idx = new_node () in
          emit Node_begin;
          List.iter
            (fun (c : Ast.clause) ->
              comp_expr c.Ast.guard;
              emit (Clause (level_index c.Ast.value)))
            clauses;
          (match lic with
          | L_const c -> emit (Node_end_const (idx, c))
          | lic ->
              emit_lsrc lic;
              emit (Node_end idx));
          Node idx
    in
    match
      (* Total counterpart of the interpreter's lazy [Invalid_argument]:
         validate every clause level up front, including clauses constant
         folding would drop, so a bad level always fails closed here.
         Origin predicates get the same treatment when the caller supplies
         the kernel's view of valid origins. *)
      List.iter
        (fun (a : Ast.assertion) ->
          List.iter
            (fun (c : Ast.clause) ->
              ignore (level_index c.Ast.value);
              match origin with
              | Some env -> check_origin_expr env c.Ast.guard
              | None -> ())
            a.conditions)
        (policy @ credentials);
      let roots =
        List.filter_map
          (fun (a : Ast.assertion) ->
            if a.authorizer = "POLICY" then Some (assertion_src a) else None)
          policy
      in
      let base =
        List.fold_left
          (fun acc s -> match s with Const c -> max acc c | Node _ -> acc)
          0 roots
      in
      let nodes = List.filter_map (function Node i -> Some i | Const _ -> None) roots in
      emit (Root (base, Array.of_list nodes))
    with
    | () -> Ok { instrs = Array.sub !code 0 !len; nnodes = !nnodes; levels }
    | exception Unknown_level name ->
        Error (Printf.sprintf "compile: unknown compliance level %S" name)
    | exception Bad_origin msg -> Error msg
  end

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

let holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let origin_value origin = function
  | OF_module -> origin.o_module
  | OF_ring -> string_of_int origin.o_ring
  | OF_transport -> origin.o_transport

(* [List.assoc_opt], a missing attribute reading [""], without the option. *)
let rec attr_value name = function
  | [] -> ""
  | (k, v) :: rest -> if String.equal k name then v else attr_value name rest

let operand_value attrs = function O_str s -> s | O_attr a -> attr_value a attrs

let test attrs a op b =
  holds op (Eval.compare_values (operand_value attrs a) (operand_value attrs b))

let otest origin attrs f op b =
  holds op (Eval.compare_values (origin_value origin f) (operand_value attrs b))

type trace = { seen : bool array; mutable last : int }

(* No closure captures the stack pointer, accumulator or program counter,
   so they stay unboxed locals and the loop allocates no closure or cell. *)
let exec_seg ?trace code ~nodes ~origin ~attrs ~stack ~ops =
  let n = Array.length code in
  let sp = ref 0 in
  let acc = ref 0 in
  let pc = ref 0 in
  while !pc < n do
    incr ops;
    (match trace with
    | Some t ->
        t.seen.(!pc) <- true;
        t.last <- !pc
    | None -> ());
    match code.(!pc) with
    | Test (a, op, b) ->
        stack.(!sp) <- (if test attrs a op b then 1 else 0);
        incr sp;
        incr pc
    | Push_bool b ->
        stack.(!sp) <- (if b then 1 else 0);
        incr sp;
        incr pc
    | Not_top ->
        stack.(!sp - 1) <- (if stack.(!sp - 1) = 0 then 1 else 0);
        incr pc
    | Jfalse target ->
        if stack.(!sp - 1) = 0 then pc := target
        else begin
          decr sp;
          incr pc
        end
    | Jtrue target ->
        if stack.(!sp - 1) <> 0 then pc := target
        else begin
          decr sp;
          incr pc
        end
    | Node_begin ->
        acc := 0;
        incr pc
    | Clause level ->
        decr sp;
        if stack.(!sp) <> 0 then acc := Int.max !acc level;
        incr pc
    | Push_level v ->
        stack.(!sp) <- v;
        incr sp;
        incr pc
    | Load_node i ->
        stack.(!sp) <- nodes.(i);
        incr sp;
        incr pc
    | Min2 ->
        decr sp;
        stack.(!sp - 1) <- Int.min stack.(!sp - 1) stack.(!sp);
        incr pc
    | Max2 ->
        decr sp;
        stack.(!sp - 1) <- Int.max stack.(!sp - 1) stack.(!sp);
        incr pc
    | Kof (k, count) ->
        let members = ref [] in
        for _ = 1 to count do
          decr sp;
          members := stack.(!sp) :: !members
        done;
        stack.(!sp) <- kth_largest k !members;
        incr sp;
        incr pc
    | Node_end i ->
        decr sp;
        nodes.(i) <- Int.min !acc stack.(!sp);
        incr pc
    | Node_end_const (i, lic) ->
        nodes.(i) <- Int.min !acc lic;
        incr pc
    | Store_node i ->
        decr sp;
        nodes.(i) <- stack.(!sp);
        incr pc
    | Root (base, roots) ->
        let m = ref base in
        for k = 0 to Array.length roots - 1 do
          m := Int.max !m nodes.(roots.(k))
        done;
        stack.(!sp) <- !m;
        incr sp;
        incr pc
    (* superoperators: exact composition of the two base opcodes *)
    | Test_jf (a, op, b, target) ->
        if test attrs a op b then incr pc
        else begin
          stack.(!sp) <- 0;
          incr sp;
          pc := target
        end
    | Test_jt (a, op, b, target) ->
        if test attrs a op b then begin
          stack.(!sp) <- 1;
          incr sp;
          pc := target
        end
        else incr pc
    | Test_clause (a, op, b, level) ->
        if test attrs a op b then acc := Int.max !acc level;
        incr pc
    | Load_max i ->
        stack.(!sp - 1) <- Int.max stack.(!sp - 1) nodes.(i);
        incr pc
    | Const_max c ->
        stack.(!sp - 1) <- Int.max stack.(!sp - 1) c;
        incr pc
    | Const_min c ->
        stack.(!sp - 1) <- Int.min stack.(!sp - 1) c;
        incr pc
    | Origin_test (f, op, b) ->
        stack.(!sp) <- (if otest origin attrs f op b then 1 else 0);
        incr sp;
        incr pc
    | Origin_jf (f, op, b, target) ->
        if otest origin attrs f op b then incr pc
        else begin
          stack.(!sp) <- 0;
          incr sp;
          pc := target
        end
    | Origin_jt (f, op, b, target) ->
        if otest origin attrs f op b then begin
          stack.(!sp) <- 1;
          incr sp;
          pc := target
        end
        else incr pc
    | Origin_clause (f, op, b, level) ->
        if otest origin attrs f op b then acc := Int.max !acc level;
        incr pc
  done;
  !sp

let m_scope = Smod_metrics.scope "keynote"
let m_compiled_runs = Smod_metrics.Scope.counter m_scope "compiled_runs"
let m_compiled_ops = Smod_metrics.Scope.counter m_scope "compiled_ops"

(* The whole program is one segment whose jumps are absolute positions.
   Base opcodes never read the origin record. *)
let run t ~attrs =
  let nodes = Array.make (max t.nnodes 1) 0 in
  (* Every opcode pushes at most one value, so the length bounds the stack. *)
  let stack = Array.make (Array.length t.instrs + 1) 0 in
  let ops = ref 0 in
  let sp = exec_seg t.instrs ~nodes ~origin:no_origin ~attrs ~stack ~ops in
  let raw = if sp > 0 then stack.(sp - 1) else 0 in
  let index = max 0 (min (Array.length t.levels - 1) raw) in
  Smod_metrics.Counter.incr m_compiled_runs;
  Smod_metrics.Counter.add m_compiled_ops !ops;
  { level = t.levels.(index); index; ops = !ops }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let length t = Array.length t.instrs
let node_count t = t.nnodes
let instrs t = t.instrs
let levels t = t.levels

let op_counts t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let m = mnemonic i in
      Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m)))
    t.instrs;
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) tbl []
  |> List.sort (fun (ma, na) (mb, nb) ->
         if na <> nb then compare nb na else compare ma mb)
