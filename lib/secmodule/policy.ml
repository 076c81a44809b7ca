module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Eval = Smod_keynote.Eval
module Compile = Smod_keynote.Compile
module Fuse = Smod_keynote.Fuse
module Vexec = Smod_keynote.Vexec

type t =
  | Always_allow
  | Session_lifetime
  | Call_quota of int
  | Rate_limit of { max_calls : int; window_us : float }
  | Time_window of { not_before_us : float; not_after_us : float }
  | Keynote of {
      policy : Smod_keynote.Ast.assertion list;
      levels : string array;
      min_level : string;
      attrs : (string * string) list;
    }
  | All_of of t list

type state =
  | S_none
  | S_quota of int ref
  | S_rate of { mutable window_start : float; mutable in_window : int }
  | S_list of state list

type denial = { reason : string; policy : t }

let rec initial_state = function
  | Always_allow | Session_lifetime | Time_window _ | Keynote _ -> S_none
  | Call_quota n -> S_quota (ref n)
  | Rate_limit _ -> S_rate { window_start = 0.0; in_window = 0 }
  | All_of ps -> S_list (List.map initial_state ps)

let rec describe = function
  | Always_allow -> "always-allow"
  | Session_lifetime -> "session-lifetime"
  | Call_quota n -> Printf.sprintf "call-quota(%d)" n
  | Rate_limit { max_calls; window_us } ->
      Printf.sprintf "rate-limit(%d per %.0fus)" max_calls window_us
  | Time_window _ -> "time-window"
  | Keynote { policy; _ } -> Printf.sprintf "keynote(%d assertions)" (List.length policy)
  | All_of ps -> "all-of[" ^ String.concat "; " (List.map describe ps) ^ "]"

let deny policy reason = Error { reason; policy }

(* Cacheability for the policy-decision cache (Policy_cache).  A decision
   may be reused across calls only when it is a pure function of
   (credential, origin, module, function, policy revision): no per-session
   mutable state, no clock dependence, and no condition guard that reads
   an action attribute that varies call to call. *)
let volatile_attrs = [ "calls_so_far" ]

(* Attributes that change from slot to slot within one batch: the called
   function, plus everything already too volatile to cache.  This is the
   [varying] set the fused planner partitions against — an opcode reading
   any of these (directly or through a value node) stays per-slot. *)
let batch_varying_attrs = "function" :: volatile_attrs

let rec term_volatile = function
  | Smod_keynote.Ast.Attr name -> List.mem name volatile_attrs
  | Smod_keynote.Ast.Str _ | Smod_keynote.Ast.Int _ -> false

and expr_volatile = function
  | Smod_keynote.Ast.True | Smod_keynote.Ast.False -> false
  | Smod_keynote.Ast.Cmp (a, _, b) -> term_volatile a || term_volatile b
  | Smod_keynote.Ast.Not e -> expr_volatile e
  | Smod_keynote.Ast.And (a, b) | Smod_keynote.Ast.Or (a, b) ->
      expr_volatile a || expr_volatile b

let assertion_volatile (a : Smod_keynote.Ast.assertion) =
  List.exists (fun (c : Smod_keynote.Ast.clause) -> expr_volatile c.guard) a.conditions

let rec cacheable = function
  | Always_allow | Session_lifetime -> true
  | Call_quota _ | Rate_limit _ | Time_window _ -> false
  | Keynote { policy; _ } -> not (List.exists assertion_volatile policy)
  | All_of ps -> List.for_all cacheable ps

let credential_cacheable (c : Credential.t) =
  not (List.exists assertion_volatile c.Credential.assertions)

(* Observability (lib/metrics): per-call policy evaluation volume and
   outcome, matching the paper's "access control check per call" step. *)
let m_scope = Smod_metrics.scope "secmodule"
let m_policy_checks = Smod_metrics.Scope.counter m_scope "policy_checks"
let m_policy_denials = Smod_metrics.Scope.counter m_scope "policy_denials"

(* The index a KeyNote verdict must reach.  A [min_level] that names no
   level is unreachable, so every engine denies instead of admitting from
   index 0. *)
let min_index ~levels ~min_level =
  let rec find i =
    if i >= Array.length levels then Array.length levels
    else if levels.(i) = min_level then i
    else find (i + 1)
  in
  find 0

let keynote_denial policy ~min_level level =
  { reason = Printf.sprintf "keynote compliance %S below required %S" level min_level; policy }

(* [All_of] under any engine: arms in order, the first denial decides. *)
let all_of policy check arms states =
  let rec all arms states =
    match (arms, states) with
    | [], [] -> Ok ()
    | a :: arms', s :: states' -> (
        match check a s with Ok () -> all arms' states' | Error _ as e -> e)
    | _ -> deny policy "policy/state shape mismatch"
  in
  all arms states

(* One counted check per admission query, whichever engine answered it. *)
let counted verdict =
  Smod_metrics.Counter.incr m_policy_checks;
  (match verdict with Ok () -> () | Error _ -> Smod_metrics.Counter.incr m_policy_denials);
  verdict

let rec check_inner ~clock ~now_us ~credential ~attrs policy state =
  match (policy, state) with
  | Always_allow, S_none ->
      Clock.charge clock Cost.Policy_always_allow;
      Ok ()
  | Session_lifetime, S_none ->
      (* Granted at session establishment; per-call it is free beyond the
         baseline credential check the dispatcher already performed. *)
      Clock.charge clock Cost.Policy_always_allow;
      Ok ()
  | Call_quota _, S_quota remaining ->
      Clock.charge clock Cost.Policy_counter_check;
      if !remaining > 0 then begin
        decr remaining;
        Ok ()
      end
      else deny policy "call quota exhausted"
  | Rate_limit { max_calls; window_us }, S_rate r ->
      Clock.charge clock Cost.Policy_counter_check;
      if now_us -. r.window_start > window_us then begin
        r.window_start <- now_us;
        r.in_window <- 0
      end;
      if r.in_window < max_calls then begin
        r.in_window <- r.in_window + 1;
        Ok ()
      end
      else deny policy "rate limit exceeded"
  | Time_window { not_before_us; not_after_us }, S_none ->
      Clock.charge clock Cost.Policy_counter_check;
      if now_us >= not_before_us && now_us <= not_after_us then Ok ()
      else deny policy "outside permitted time window"
  | Keynote { policy = assertions; levels; min_level; attrs = static_attrs }, S_none -> (
      match
        Eval.query ~policy:assertions ~credentials:credential.Credential.assertions
          ~attrs:(attrs @ static_attrs)
          ~requesters:[ credential.Credential.principal ]
          ~levels
      with
      | exception Invalid_argument reason ->
          (* A clause naming no compliance level (or no levels at all):
             the query has no result, so no assertion is charged. *)
          deny policy reason
      | result ->
          Clock.charge_n clock Cost.Keynote_assertion_eval result.assertions_evaluated;
          (* Formatted on every denied check: this engine is the oracle the
             compiled engines' prebuilt denials are checked against. *)
          if result.index >= min_index ~levels ~min_level then Ok ()
          else Error (keynote_denial policy ~min_level result.level))
  | All_of ps, S_list states ->
      all_of policy (check_inner ~clock ~now_us ~credential ~attrs) ps states
  | _ -> deny policy "policy/state shape mismatch"

let check ~clock ~now_us ~credential ~attrs policy state =
  counted (check_inner ~clock ~now_us ~credential ~attrs policy state)

(* ------------------------------------------------------------------ *)
(* Compiled policies                                                   *)
(* ------------------------------------------------------------------ *)

(* KeyNote arms flattened into decision programs, with the credential
   chain verified once here instead of per call.  Non-KeyNote arms keep
   their interpreted (and stateful) evaluation — they are already a single
   counter check.  A compiled policy is valid for exactly one (credential,
   policy revision, keystore generation) triple; the registry entry's
   cache and the session's program slot in [Smod] key on that. *)
type compiled =
  | C_pass of t
  | C_keynote of {
      program : Compile.t;
      plan : (Fuse.t * int) option;
          (* the fused lowering, built when the kernel opts in, and the
             index of its snapshot in a prepared program *)
      denials : denial array;
          (* the denial for reaching level index i, for every i below
             the required level's index (the array's length), built here:
             its reason depends only on the level reached and [min_level] *)
      static_attrs : (string * string) list;
      policy : t;
    }
  | C_deny of { reason : string; policy : t }
  | C_all of compiled list * t

let m_policy_compiles = Smod_metrics.Scope.counter m_scope "policy_compiles"
let m_policy_compile_denials = Smod_metrics.Scope.counter m_scope "policy_compile_denials"

let compile ?(fuse = false) ?origin_env ~clock ~keystore ~credential policy =
  Smod_metrics.Counter.incr m_policy_compiles;
  (* Hoisted credential-chain verification: one signature check per
     credential assertion now, none per call. *)
  Clock.charge_n clock Cost.Cred_check
    (max 1 (List.length credential.Credential.assertions));
  let verified = Credential.verify_signatures keystore credential in
  (* Planned arms are numbered in tree order, the order [prepare] walks. *)
  let planned = ref 0 in
  let rec arm p =
    match p with
    | Keynote { policy = assertions; levels; min_level; attrs = static_attrs } ->
        if not verified then begin
          Smod_metrics.Counter.incr m_policy_compile_denials;
          C_deny { reason = "credential signature verification failed"; policy = p }
        end
        else begin
          Clock.charge_n clock Cost.Policy_compile_assertion
            (List.length assertions + List.length credential.Credential.assertions);
          match
            Compile.compile ?origin:origin_env ~policy:assertions
              ~credentials:credential.Credential.assertions
              ~requesters:[ credential.Credential.principal ]
              ~levels ()
          with
          | Ok program ->
              let min_index = min_index ~levels ~min_level in
              let plan =
                if fuse then begin
                  let pos = !planned in
                  incr planned;
                  Some (Fuse.plan program ~varying:batch_varying_attrs, pos)
                end
                else None
              in
              let denials =
                Array.init min_index (fun i -> keynote_denial p ~min_level levels.(i))
              in
              C_keynote { program; plan; denials; static_attrs; policy = p }
          | Error reason ->
              Smod_metrics.Counter.incr m_policy_compile_denials;
              C_deny { reason; policy = p }
        end
    | All_of ps -> C_all (List.map arm ps, p)
    | p -> C_pass p
  in
  arm policy

(* A prepared program is the compiled tree plus, for every planned KeyNote
   arm, the snapshot its batch-invariant prefix produced, at the arm's
   index.  Stateful arms ([C_pass] quotas, rate limits) keep their per-call
   interpreted evaluation — preparing must not change when a quota
   decrements. *)
type prepared = { tree : compiled; snapshots : Fuse.snapshot array }

(* Run each planned arm's invariant prefix once, in tree order, charging
   the amortized setup ([Policy_fused_setup] plus the prefix opcodes) to
   the caller — every check then pays only residue opcodes.  [attrs] are
   the batch-invariant attributes (module, phase, origin pairs); no prefix
   opcode reads a varying attribute. *)
let prepare ~clock ~origin ~attrs tree =
  let rec walk acc = function
    | C_keynote { plan = Some (plan, _); static_attrs; _ } ->
        Clock.charge clock Cost.Policy_fused_setup;
        let snapshot = Fuse.begin_batch plan ~origin ~attrs:(attrs @ static_attrs) in
        Clock.charge_n clock Cost.Policy_compiled_op snapshot.Fuse.s_setup_ops;
        snapshot :: acc
    | C_all (cs, _) -> List.fold_left walk acc cs
    | C_pass _ | C_keynote { plan = None; _ } | C_deny _ -> acc
  in
  { tree; snapshots = Array.of_list (List.rev (walk [] tree)) }

(* A compiled arm's verdict for the level index its program reached. *)
let compiled_verdict denials index =
  if index >= Array.length denials then Ok () else Error denials.(index)

let rec check_arm ~clock ~now_us ~credential ~origin ~attrs snapshots compiled state =
  match (compiled, state) with
  | C_pass p, s -> check_inner ~clock ~now_us ~credential ~attrs p s
  | C_keynote { program; plan; denials; static_attrs; _ }, S_none ->
      let attrs = attrs @ static_attrs in
      let outcome =
        match plan with
        | Some (plan, pos) -> Fuse.run_slot plan snapshots.(pos) ~origin ~attrs
        | None -> Compile.run program ~attrs
      in
      Clock.charge_n clock Cost.Policy_compiled_op outcome.Compile.ops;
      compiled_verdict denials outcome.Compile.index
  | C_deny { reason; policy }, _ ->
      Clock.charge clock Cost.Policy_compiled_op;
      deny policy reason
  | C_all (cs, policy), S_list states ->
      all_of policy (check_arm ~clock ~now_us ~credential ~origin ~attrs snapshots) cs states
  | C_keynote { policy; _ }, _ | C_all (_, policy), _ ->
      deny policy "policy/state shape mismatch"

let check_compiled ~clock ~now_us ~credential ~origin ~attrs { tree; snapshots } state =
  counted (check_arm ~clock ~now_us ~credential ~origin ~attrs snapshots tree state)

(* ------------------------------------------------------------------ *)
(* Vectorized (batch-major) checking — E25                              *)
(* ------------------------------------------------------------------ *)

(* Arm-major evaluation of a whole batch: each arm of the prepared tree is
   evaluated over all lanes before the next arm runs, with a shared
   alive mask so an arm never touches a lane an earlier arm already
   denied.  KeyNote arms run batch-major through [Vexec]; stateful arms
   (quotas) are delegated per lane *in lane order*, which reproduces the
   slot-major path's counter semantics exactly: a quota verdict for lane
   k depends only on how many earlier lanes reached that arm, and the
   alive mask is precisely "reached".

   Eligibility is conservative and decided per batch from the prepared
   program:

   - a program with no planned arm has no residue to vectorize;
   - a residue that reads a volatile attribute ([calls_so_far]) has a
     lane-order data dependency — lane k's value depends on earlier
     lanes' overall verdicts — so it stays slot-major;
   - clock-dependent arms ([Rate_limit], [Time_window]) are excluded
     because arm-major charge reordering shifts [now_us] at evaluation
     relative to the slot-major path;
   - unplanned KeyNote arms have no residue to vectorize.

   An ineligible tree simply keeps the slot-major path — the dispatcher
   falls back wholesale, never per arm. *)

let vector_eligible { tree; snapshots } =
  let rec eligible = function
    | C_pass (Always_allow | Session_lifetime | Call_quota _) | C_deny _ -> true
    | C_pass _ | C_keynote { plan = None; _ } -> false
    | C_keynote { plan = Some (plan, _); _ } -> not (Fuse.residue_reads plan volatile_attrs)
    | C_all (cs, _) -> List.for_all eligible cs
  in
  Array.length snapshots > 0 && eligible tree

let check_vector ~clock ~now_us ~credential ~(lanes : Vexec.lane array) { tree; snapshots }
    state =
  let width = Vexec.default_width in
  let n = Array.length lanes in
  let alive = Array.make n true in
  let results : (unit, denial) result array = Array.make n (Ok ()) in
  let kill k d =
    alive.(k) <- false;
    results.(k) <- Error d
  in
  let live () = Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive in
  let rec arm compiled state =
    match (compiled, state) with
    | (C_pass _ | C_keynote { plan = None; _ }), s ->
        (* Per lane, in lane order; an unplanned KeyNote arm is
           unreachable under [vector_eligible], but stay total. *)
        Array.iteri
          (fun k (lane : Vexec.lane) ->
            if alive.(k) then
              match
                check_arm ~clock ~now_us ~credential ~origin:lane.l_origin
                  ~attrs:lane.l_attrs snapshots compiled s
              with
              | Ok () -> ()
              | Error d -> kill k d)
          lanes
    | C_deny { reason; policy }, _ ->
        let l = live () in
        if l > 0 then begin
          Clock.charge_n clock Cost.Policy_vector_op ((l + width - 1) / width);
          for k = 0 to n - 1 do
            if alive.(k) then kill k { reason; policy }
          done
        end
    | C_keynote { plan = Some (plan, pos); denials; static_attrs; _ }, S_none ->
        (* Lane compaction: only still-alive lanes enter the vector walk,
           so an early-denied lane drops out of the ceil(L/W) charge. *)
        let packed_idx =
          let l = ref [] in
          for k = n - 1 downto 0 do
            if alive.(k) then l := k :: !l
          done;
          Array.of_list !l
        in
        if Array.length packed_idx > 0 then begin
          let vlanes =
            Array.map
              (fun k ->
                let lane = lanes.(k) in
                { lane with Vexec.l_attrs = lane.Vexec.l_attrs @ static_attrs })
              packed_idx
          in
          let res = Vexec.run_residue plan snapshots.(pos) ~width ~lanes:vlanes in
          Clock.charge_n clock Cost.Policy_vector_op res.Vexec.vr_units;
          Array.iteri
            (fun j k ->
              match compiled_verdict denials res.Vexec.vr_indices.(j) with
              | Ok () -> ()
              | Error d -> kill k d)
            packed_idx
        end
    | C_all (cs, policy), S_list states ->
        let rec all cs states =
          match (cs, states) with
          | [], [] -> ()
          | c :: cs', s :: ss' ->
              arm c s;
              all cs' ss'
          | _ ->
              for k = 0 to n - 1 do
                if alive.(k) then kill k { reason = "policy/state shape mismatch"; policy }
              done
        in
        all cs states
    | C_keynote { policy; _ }, _ | C_all (_, policy), _ ->
        for k = 0 to n - 1 do
          if alive.(k) then kill k { reason = "policy/state shape mismatch"; policy }
        done
  in
  arm tree state;
  (* Metrics parity with the slot-major paths: one check per lane, one
     denial per denied lane. *)
  Smod_metrics.Counter.add m_policy_checks n;
  Array.iter
    (function Error _ -> Smod_metrics.Counter.incr m_policy_denials | Ok () -> ())
    results;
  results

type compiled_stats = {
  programs : int;
  opcodes : int;
  value_nodes : int;
  opcode_counts : (string * int) list;
  denied : string option;
  origin_guarded : bool;
}

(* Does any Test opcode compare an origin_* attribute?  Purely static
   introspection over the already-compiled program — the audit's
   origin-coverage component reads this instead of re-walking the policy
   AST. *)
let program_origin_guarded program =
  let is_origin = function
    | Compile.O_attr n -> List.mem n Compile.origin_attrs
    | Compile.O_str _ -> false
  in
  Array.exists
    (function
      | Compile.Test (a, _, b) -> is_origin a || is_origin b
      | _ -> false)
    (Compile.instrs program)

let compiled_stats compiled =
  let merge counts extra =
    List.fold_left
      (fun acc (m, n) ->
        let prev = Option.value ~default:0 (List.assoc_opt m acc) in
        (m, prev + n) :: List.remove_assoc m acc)
      counts extra
  in
  let rec fold acc = function
    | C_pass _ -> acc
    | C_keynote { program; _ } ->
        {
          acc with
          programs = acc.programs + 1;
          opcodes = acc.opcodes + Compile.length program;
          value_nodes = acc.value_nodes + Compile.node_count program;
          opcode_counts = merge acc.opcode_counts (Compile.op_counts program);
          origin_guarded = acc.origin_guarded || program_origin_guarded program;
        }
    | C_deny { reason; _ } ->
        if acc.denied = None then { acc with denied = Some reason } else acc
    | C_all (cs, _) -> List.fold_left fold acc cs
  in
  let acc =
    fold
      {
        programs = 0;
        opcodes = 0;
        value_nodes = 0;
        opcode_counts = [];
        denied = None;
        origin_guarded = false;
      }
      compiled
  in
  {
    acc with
    opcode_counts =
      List.sort
        (fun (ma, na) (mb, nb) -> if na <> nb then compare nb na else compare ma mb)
        acc.opcode_counts;
  }

(* Merged fusion statistics over every planned KeyNote arm; [None] when
   nothing in the tree was compiled with fusion on. *)
let fusion_stats compiled =
  let merge_assoc a b =
    List.fold_left
      (fun acc (m, n) ->
        let prev = Option.value ~default:0 (List.assoc_opt m acc) in
        (m, prev + n) :: List.remove_assoc m acc)
      a b
  in
  let add (a : Fuse.stats) (b : Fuse.stats) =
    Fuse.
      {
        segments = a.segments + b.segments;
        invariant_segments = a.invariant_segments + b.invariant_segments;
        total_fops = a.total_fops + b.total_fops;
        invariant_fops = a.invariant_fops + b.invariant_fops;
        superops = merge_assoc a.superops b.superops;
        origin_fops = a.origin_fops + b.origin_fops;
      }
  in
  let rec fold acc = function
    | C_keynote { plan = Some (plan, _); _ } -> (
        let s = Fuse.stats plan in
        match acc with None -> Some s | Some a -> Some (add a s))
    | C_all (cs, _) -> List.fold_left fold acc cs
    | C_pass _ | C_keynote { plan = None; _ } | C_deny _ -> acc
  in
  match fold None compiled with
  | None -> None
  | Some s ->
      Some
        Fuse.
          {
            s with
            superops =
              List.sort
                (fun (ma, na) (mb, nb) ->
                  if na <> nb then compare nb na else compare ma mb)
                s.superops;
          }
