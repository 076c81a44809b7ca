(* smodctl audit — a least-privilege posture score per installed module,
   derived entirely from introspection the subsystem already exposes
   (registry entries, compile status, live sessions, metric counters,
   systrace attachments).  No new instrumentation is charged to the
   dispatch path: the audit is a read-only scan, so the simulated
   timings the baselines measured are untouched (see DESIGN.md §10).

   The score is 0..100, higher = tighter.  Five weighted components:

   - policy breadth (0.40): how much the access policy can actually
     refuse — Always_allow scores 0, counter policies the middle,
     KeyNote climbs with assertion count, All_of takes its strongest arm.
   - grant usage (0.30): fraction of granted functions ever dispatched
     (allowed or denied).  A module exporting six functions of which
     clients touch one is carrying five unused grants.
   - systrace coverage (0.15): fraction of the module's live handle
     processes running under a syscall filter, default-deny counting
     double what default-permit does.
   - enforcement evidence (0.10): has the policy ever said no (denial
     ratio), and are decisions served from the compiled/decision caches.
   - origin coverage (0.05): modules reachable from ring 3 whose
     policies never test an origin_* attribute are flagged — any user
     process holding a credential is then indistinguishable from a
     trusted inner-ring caller.  Read off the compiled programs'
     Test operands (Policy.compiled_stats.origin_guarded), nothing new
     on the dispatch path.

   An over-privileged module (broad grants, Always_allow, no filter)
   scores strictly below a tight one on every component — the property
   test/test_audit.ml pins. *)

module Smof = Smod_modfmt.Smof
module Json = Smod_util.Json
module Table = Smod_util.Table
module Systrace = Smod_systrace.Systrace

type component = {
  c_name : string;
  c_weight : float;
  c_score : float;  (* 0..1, higher = tighter *)
  c_detail : string;
}

type report = {
  a_m_id : int;
  a_module : string;
  a_policy : string;  (* Policy.describe of the module's policy *)
  a_score : float;  (* 0..100, higher = tighter *)
  a_components : component list;
  a_granted : string list;  (* exported functions, funcID order *)
  a_dispatched : string list;  (* functions with any dispatch evidence *)
  a_unused : string list;  (* granted but never dispatched *)
  a_calls : int;  (* allowed dispatches, from secmodule.func_calls.* *)
  a_denied : int;  (* denied dispatches, from secmodule.func_denied.* *)
}

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

(* How much of the request space the policy can refuse, 0..1.  The
   ladder mirrors bench E9's complexity ordering; All_of is as tight as
   its tightest arm (every arm must agree to allow). *)
let rec policy_tightness = function
  | Policy.Always_allow -> 0.0
  | Policy.Session_lifetime -> 0.15
  | Policy.Time_window _ -> 0.5
  | Policy.Call_quota _ | Policy.Rate_limit _ -> 0.55
  | Policy.Keynote { policy; _ } ->
      0.6 +. Float.min 0.3 (0.05 *. float_of_int (List.length policy))
  | Policy.All_of arms ->
      List.fold_left (fun acc p -> Float.max acc (policy_tightness p)) 0.0 arms

let breadth_component entry compile_status =
  let policy = entry.Registry.policy in
  let opcode_note =
    match compile_status with
    | Some { Smod.cs_stats = Some (st : Policy.compiled_stats); _ } ->
        Printf.sprintf ", compiled: %d program(s), %d opcode(s)%s" st.Policy.programs
          st.Policy.opcodes
          (match st.Policy.opcode_counts with
          | (m, n) :: _ -> Printf.sprintf ", top op %s x%d" m n
          | [] -> "")
    | _ -> ""
  in
  {
    c_name = "policy breadth";
    c_weight = 0.40;
    c_score = policy_tightness policy;
    c_detail = Policy.describe policy ^ opcode_note;
  }

(* Per-function dispatch evidence from the metric registry: the dynamic
   counters Smod.count_func maintains, scanned by prefix. *)
let func_counts ?registry ~kind mod_name =
  let prefix = "secmodule." ^ kind ^ "." ^ mod_name ^ "." in
  let plen = String.length prefix in
  Smod_metrics.counters_with_prefix ?registry prefix
  |> List.map (fun (name, v) -> (String.sub name plen (String.length name - plen), v))

let usage_component ?registry entry =
  let mod_name = entry.Registry.image.Smof.mod_name in
  let called = func_counts ?registry ~kind:"func_calls" mod_name in
  let denied = func_counts ?registry ~kind:"func_denied" mod_name in
  let granted =
    Array.to_list (Array.map (fun s -> s.Smof.sym_name) entry.Registry.functions)
  in
  let touched f =
    let hit l = match List.assoc_opt f l with Some n -> n > 0 | None -> false in
    hit called || hit denied
  in
  let dispatched = List.filter touched granted in
  let unused = List.filter (fun f -> not (touched f)) granted in
  let calls = List.fold_left (fun a (_, n) -> a + n) 0 called in
  let denials = List.fold_left (fun a (_, n) -> a + n) 0 denied in
  let score =
    match granted with
    | [] -> 1.0  (* nothing granted = nothing over-granted *)
    | _ -> float_of_int (List.length dispatched) /. float_of_int (List.length granted)
  in
  let c =
    {
      c_name = "grant usage";
      c_weight = 0.30;
      c_score = score;
      c_detail =
        Printf.sprintf "%d/%d granted function(s) dispatched%s"
          (List.length dispatched) (List.length granted)
          (match unused with
          | [] -> ""
          | fs -> "; unused: " ^ String.concat ", " fs);
    }
  in
  (c, granted, dispatched, unused, calls, denials)

let systrace_component ?systrace sessions =
  let score, detail =
    match (systrace, sessions) with
    | None, _ -> (0.0, "systrace not installed")
    | Some _, [] -> (0.0, "no live handle to inspect")
    | Some st, sessions ->
        let weight_of (s : Smod.session) =
          match Systrace.attached_policy st ~pid:s.Smod.handle_pid with
          | None -> 0.0
          | Some p -> (
              match p.Systrace.default with
              | Systrace.Deny _ -> 1.0
              | Systrace.Permit -> 0.5)
        in
        let n = List.length sessions in
        let covered = List.filter (fun s -> weight_of s > 0.0) sessions in
        let sum = List.fold_left (fun a s -> a +. weight_of s) 0.0 sessions in
        ( sum /. float_of_int n,
          Printf.sprintf "%d/%d live handle(s) filtered" (List.length covered) n )
  in
  { c_name = "systrace coverage"; c_weight = 0.15; c_score = score; c_detail = detail }

let evidence_component ?registry entry ~calls ~denied =
  let deny_signal =
    if calls + denied = 0 then 0.0
    else Float.min 1.0 (10.0 *. float_of_int denied /. float_of_int (calls + denied))
  in
  let hits, misses =
    if entry.Registry.compile_hits + entry.Registry.compile_misses > 0 then
      (entry.Registry.compile_hits, entry.Registry.compile_misses)
    else
      let v name =
        Option.value ~default:0 (Smod_metrics.counter_value ?registry name)
      in
      (v "policy_cache.hits", v "policy_cache.misses")
  in
  let cache_rate =
    if hits + misses = 0 then 0.5  (* no cache traffic: neutral, not damning *)
    else float_of_int hits /. float_of_int (hits + misses)
  in
  {
    c_name = "enforcement evidence";
    c_weight = 0.10;
    c_score = (0.7 *. deny_signal) +. (0.3 *. cache_rate);
    c_detail =
      Printf.sprintf "%d denied / %d dispatched; cache %d hit(s), %d miss(es)" denied
        (calls + denied) hits misses;
  }

(* Reachable-from-ring-3 x origin-unguarded.  Reachability is what the
   live proc table shows: a session whose client runs at ring 3, or no
   session at all (nothing stops a ring-3 attach, so an idle module is
   conservatively reachable).  Guardedness comes from the compiled
   programs only — no compiled program yet means unknown, scored
   neutral like the evidence component's no-traffic case. *)
let origin_component machine compile_status sessions =
  let ring_of (s : Smod.session) =
    match Smod_kern.Machine.proc machine s.Smod.client_pid with
    | Some p -> p.Smod_kern.Proc.ring
    | None -> 3
  in
  let reachable = sessions = [] || List.exists (fun s -> ring_of s = 3) sessions in
  let guarded =
    match compile_status with
    | Some { Smod.cs_stats = Some (st : Policy.compiled_stats); _ } ->
        Some st.Policy.origin_guarded
    | _ -> None
  in
  let score, detail =
    match (reachable, guarded) with
    | false, _ -> (1.0, "inner-ring clients only; origin exposure moot")
    | true, Some true -> (1.0, "ring-3 reachable, policy tests origin_* attributes")
    | true, Some false -> (0.0, "ring-3 reachable, compiled policy carries no origin_* guard")
    | true, None -> (0.5, "ring-3 reachable, no compiled program to introspect")
  in
  { c_name = "origin coverage"; c_weight = 0.05; c_score = score; c_detail = detail }

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

let score ?registry ?systrace (t : Smod.t) =
  let compile_status = Smod.policy_compile_status t in
  Registry.entries (Smod.registry t)
  |> List.map (fun (entry : Registry.entry) ->
         let sessions =
           List.filter
             (fun (s : Smod.session) -> s.Smod.m_id = entry.Registry.m_id)
             (Smod.active_sessions t)
         in
         let cs =
           List.find_opt
             (fun (c : Smod.compile_status) -> c.Smod.cs_m_id = entry.Registry.m_id)
             compile_status
         in
         let usage, granted, dispatched, unused, calls, denied =
           usage_component ?registry entry
         in
         let components =
           [
             breadth_component entry cs;
             usage;
             systrace_component ?systrace sessions;
             evidence_component ?registry entry ~calls ~denied;
             origin_component (Smod.machine t) cs sessions;
           ]
         in
         let total =
           100.0
           *. List.fold_left (fun a c -> a +. (c.c_weight *. c.c_score)) 0.0 components
         in
         {
           a_m_id = entry.Registry.m_id;
           a_module = entry.Registry.image.Smof.mod_name;
           a_policy = Policy.describe entry.Registry.policy;
           a_score = total;
           a_components = components;
           a_granted = granted;
           a_dispatched = dispatched;
           a_unused = unused;
           a_calls = calls;
           a_denied = denied;
         })
  |> List.sort (fun a b -> compare a.a_m_id b.a_m_id)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render reports =
  let buf = Buffer.create 4096 in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "m_id"; "module"; "policy"; "score"; "unused"; "denied" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.a_m_id;
          r.a_module;
          r.a_policy;
          Printf.sprintf "%.1f" r.a_score;
          string_of_int (List.length r.a_unused);
          string_of_int r.a_denied;
        ])
    reports;
  Buffer.add_string buf (Table.render t);
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s (m_id %d): %.1f/100\n" r.a_module r.a_m_id r.a_score);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  %-22s %5.1f%% x %.2f  %s\n" c.c_name (100.0 *. c.c_score)
               c.c_weight c.c_detail))
        r.a_components)
    reports;
  Buffer.contents buf

let schema_name = "smod-audit"
let schema_version = 1

let to_json reports =
  let json_of_component c =
    Json.Obj
      [
        ("name", Json.String c.c_name);
        ("weight", Json.Float c.c_weight);
        ("score", Json.Float c.c_score);
        ("detail", Json.String c.c_detail);
      ]
  in
  let strings l = Json.Arr (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("schema", Json.String schema_name);
      ("schema_version", Json.Int schema_version);
      ( "modules",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("m_id", Json.Int r.a_m_id);
                   ("module", Json.String r.a_module);
                   ("policy", Json.String r.a_policy);
                   ("score", Json.Float r.a_score);
                   ("components", Json.Arr (List.map json_of_component r.a_components));
                   ("granted", strings r.a_granted);
                   ("dispatched", strings r.a_dispatched);
                   ("unused", strings r.a_unused);
                   ("calls", Json.Int r.a_calls);
                   ("denied", Json.Int r.a_denied);
                 ])
             reports) );
    ]

let to_string reports = Json.to_string (to_json reports) ^ "\n"
