(* The four end-to-end workloads.

   Each workload is an open loop in simulated time (see loadgen.ml): ops
   arrive on a Poisson schedule and are spread over a fixed set of
   simulated sessions.  An op is one call for the msgq workloads, one
   16-call ring request for ring-policy, and one whole session (connect,
   8 calls, close) for session-churn.

   Every op's expected outcome is fixed by construction — test_incr(i) =
   i+1, vf_k(a) = a+k, abs and the xf_* family denied with EACCES — so
   the load generator checks each result against it.

   Engine, pool and poller switches for every workload are set in one
   place, [configure], so a change that removes a switch has exactly one
   benchmark call site to follow. *)

module Errno = Smod_kern.Errno
module Rng = Smod_util.Rng
module Parse = Smod_keynote.Parse
module World = Smod_bench_kit.World
module Smodd = Smod_pool.Smodd
open Secmodule

type kind = Msgq_paper | Msgq_keynote | Ring_policy | Session_churn

type t = {
  name : string;
  kind : kind;
  sessions : int;  (** simulated client processes serving arrivals *)
  calls_per_op : int;
  light_rate : float;  (** ops per simulated second, about 20% of the knee *)
  headline_rate : float;  (** ops per simulated second, about 70% of the knee *)
  ops : int;  (** headline ops per rep *)
  light_ops : int;
  probe_ops : int;  (** ops per knee-bisection probe *)
  wall_ops : int;  (** ops per wall rep, at the headline rate *)
  p99_limit_us : float;
  knee_lo : float;  (** bisection bracket, ops per simulated second *)
  knee_hi : float;
  why : string;
}

let all =
  [
    {
      name = "msgq-paper";
      kind = Msgq_paper;
      sessions = 8;
      calls_per_op = 1;
      light_rate = 22_000.0;
      headline_rate = 77_000.0;
      ops = 240_000;
      light_ops = 20_000;
      probe_ops = 40_000;
      wall_ops = 160_000;
      p99_limit_us = 100.0;
      knee_lo = 66_000.0;
      knee_hi = 231_000.0;
      why =
        "the paper's Figure 8 path: kern trap/switch/msgq and svm do the work, keynote none, \
         so a policy or ring change must not move it";
    };
    {
      name = "msgq-keynote";
      kind = Msgq_keynote;
      sessions = 16;
      calls_per_op = 1;
      light_rate = 23_000.0;
      headline_rate = 82_000.0;
      ops = 240_000;
      light_ops = 20_000;
      probe_ops = 40_000;
      wall_ops = 120_000;
      p99_limit_us = 100.0;
      knee_lo = 70_000.0;
      knee_hi = 245_000.0;
      why =
        "msgq-paper's transport with a volatile compiled kn-16 policy and 10% denied calls, so \
         the difference isolates scalar compiled admission";
    };
    {
      name = "ring-policy";
      kind = Ring_policy;
      sessions = 16;
      calls_per_op = 16;
      light_rate = 8_000.0;
      headline_rate = 28_000.0;
      ops = 48_000;
      light_ops = 4_000;
      probe_ops = 8_000;
      wall_ops = 6_000;
      p99_limit_us = 200.0;
      knee_lo = 30_000.0;
      knee_hi = 52_000.0;
      why =
        "16-call mixed-function ring requests through poller, mux and vectorized kn-16 \
         admission, 25% denied: keynote vector and ring layers work, msgq none";
    };
    {
      name = "session-churn";
      kind = Session_churn;
      sessions = 16;
      calls_per_op = 8;
      light_rate = 1_850.0;
      headline_rate = 6_400.0;
      ops = 48_000;
      light_ops = 4_000;
      probe_ops = 12_000;
      wall_ops = 6_000;
      p99_limit_us = 500.0;
      knee_lo = 7_000.0;
      knee_hi = 12_000.0;
      why =
        "connect, 8 calls, close per op on the default smodd pool with a cacheable kn-4 policy \
         updated every 2 ms: pool, vmem and policy caches dominate";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

(* ------------------------------------------------------------------ *)
(* Ops and their expected outcomes                                     *)
(* ------------------------------------------------------------------ *)

type expect = Value of int | Denied

type call = { func : string; arg : int; expect : expect }

type op = call array

let family = 64
let vec_module = "e2evec"
let allow_func k = Printf.sprintf "vf_%02d" k
let deny_func k = Printf.sprintf "xf_%02d" k
let test_incr a = { func = "test_incr"; arg = a; expect = Value (a + 1) }

(* One op drawn from [rng]: the op mix, the argument words and (for
   ring-policy) the function column all come from the seed. *)
let gen_op w rng : op =
  let word () = Rng.int rng 1_000_000 in
  match w.kind with
  | Msgq_paper -> [| test_incr (word ()) |]
  | Msgq_keynote ->
      if Rng.int rng 10 = 0 then [| { func = "abs"; arg = word (); expect = Denied } |]
      else [| test_incr (word ()) |]
  | Ring_policy ->
      Array.init w.calls_per_op (fun _ ->
          let k = Rng.int rng family and a = word () in
          if Rng.int rng 4 = 0 then { func = deny_func k; arg = a; expect = Denied }
          else { func = allow_func k; arg = a; expect = Value (a + k) })
  | Session_churn -> Array.init w.calls_per_op (fun _ -> test_incr (word ()))

(* The op each session runs once while the world warms up: it fills the
   compile, fuse and decision caches and arms rings before timing. *)
let warmup_op w : op =
  match w.kind with
  | Msgq_paper | Msgq_keynote -> [| test_incr 1 |]
  | Ring_policy ->
      Array.init w.calls_per_op (fun k ->
          { func = allow_func k; arg = k; expect = Value (2 * k) })
  | Session_churn -> [| test_incr 1 |]

type result = (int, Errno.t) Stdlib.result

let matches expect (r : result) =
  match (expect, r) with
  | Value v, Ok x -> x = v
  | Denied, Error Errno.EACCES -> true
  | (Value _ | Denied), (Ok _ | Error _) -> false

(* ------------------------------------------------------------------ *)
(* Policies and the ring module                                        *)
(* ------------------------------------------------------------------ *)

let assertion cond =
  Parse.assertion_of_string
    (Printf.sprintf
       "keynote-version: 2\n\
        authorizer: \"POLICY\"\n\
        licensees: \"client\"\n\
        conditions: %s -> \"allow\";\n"
       cond)

let keynote ?(attrs = []) assertions =
  Policy.Keynote
    { policy = assertions; levels = [| "deny"; "allow" |]; min_level = "allow"; attrs }

(* E19's volatile kn-16 shape: the matching rung reads calls_so_far, so
   neither the decision cache nor the vector path can take it; abs is
   refused on every call. *)
let volatile_kn16 =
  keynote
    (assertion "module == \"seclibc\" && calls_so_far < 1000000000 && function != \"abs\""
    :: List.init 15 (fun i ->
           assertion (Printf.sprintf "module == \"seclibc\" && clause == %d" i)))

(* Cacheable kn-4; [generation] only changes the non-matching clauses, so
   every update forces a recompile without changing a verdict. *)
let cacheable_kn4 generation =
  keynote
    (assertion "module == \"seclibc\""
    :: List.init 3 (fun i ->
           assertion
             (Printf.sprintf "module == \"seclibc\" && clause == %d" ((10 * generation) + i))))

(* kn-16 function ladder, all-residue: every rung opens with a function
   term; the matching rung admits vf_* and refuses xf_*. *)
let function_kn16 =
  let tail =
    Printf.sprintf
      "module == \"%s\" && origin_ring <= 3 && tier == \"gold\" && region == \"us\""
      vec_module
  in
  keynote
    ~attrs:[ ("tier", "gold"); ("region", "us") ]
    (assertion ("function < \"x\" && " ^ tail)
    :: List.init 15 (fun i ->
           assertion (Printf.sprintf "function == \"__clause_%d\" && %s" i tail)))

let vec_image () =
  Toolchain.assemble_module ~name:vec_module ~version:1
    (List.init family (fun k ->
         (allow_func k, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" k))
    @ List.init family (fun k ->
          (deny_func k, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" (1000 + k))))

(* ------------------------------------------------------------------ *)
(* World construction and the one switch function                      *)
(* ------------------------------------------------------------------ *)

(* A span hook: the traced run wraps world building and every stub entry
   point with it; the untraced run passes [no_span].  It reads clocks and
   never charges, so it cannot change a simulated number. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

type env = {
  world : World.t;
  module_name : string;
  version : int;
  entry : Registry.entry;  (** the module the sessions call *)
  mutable generation : int;  (** policy updates applied (session-churn) *)
}

(* Every engine, pool and poller switch the benchmark sets: the pool
   (installed when the world is created) and the switches set on the
   installed subsystem. *)
let configure w : Smodd.config option * (Smod.t -> unit) =
  match w.kind with
  | Msgq_paper -> (None, ignore)
  | Msgq_keynote ->
      ( None,
        fun smod ->
          Smod.set_policy_compile smod true;
          Smod.set_policy_fuse smod true )
  | Ring_policy ->
      ( None,
        fun smod ->
          Smod.set_policy_compile smod true;
          Smod.set_policy_fuse smod true;
          Smod.set_policy_vectorize smod true;
          Smod.set_kernel_poller smod true;
          Smod.set_session_mux smod true )
  | Session_churn -> (Some Smodd.default_config, fun smod -> Smod.set_policy_compile smod true)

let build ?(span = no_span) w ~seed =
  let seclibc_policy =
    match w.kind with
    | Msgq_paper | Ring_policy -> None
    | Msgq_keynote -> Some volatile_kn16
    | Session_churn -> Some (cacheable_kn4 0)
  in
  let pool, set_switches = configure w in
  let world =
    span.span "world.create" (fun () ->
        World.create ~seed ?policy:seclibc_policy ?pool ~with_rpc:false ())
  in
  set_switches world.World.smod;
  match w.kind with
  | Ring_policy ->
      let entry =
        span.span "toolchain.package" (fun () ->
            Toolchain.package world.World.smod ~image:(vec_image ())
              ~protection:Registry.Encrypted ~policy:function_kn16 ())
      in
      { world; module_name = vec_module; version = 1; entry; generation = 0 }
  | Msgq_paper | Msgq_keynote | Session_churn ->
      {
        world;
        module_name = Smod_libc.Seclibc.module_name;
        version = Smod_libc.Seclibc.version;
        entry = world.World.libc_entry;
        generation = 0;
      }

let policy_update_period_us = 2_000.0

let updates_policy w = w.kind = Session_churn

(* The write path beside the reads: swap in the next equivalent policy. *)
let update_policy env =
  env.generation <- env.generation + 1;
  Registry.set_policy env.entry (cacheable_kn4 env.generation)

(* ------------------------------------------------------------------ *)
(* Executing an op inside a session process                            *)
(* ------------------------------------------------------------------ *)

type session_kind = Long_lived | Per_op

let session_kind w = match w.kind with Session_churn -> Per_op | _ -> Long_lived
let uses_ring w = w.kind = Ring_policy

let connect env p =
  Stub.connect env.world.World.smod p ~module_name:env.module_name ~version:env.version
    ~credential:(World.credential env.world)

(* Runs the calls of [op] on an open connection and returns each call's
   raw result, in order.  [span] wraps each stub entry point (one span
   per msgq call, one per ring batch). *)
let run_calls ~span w conn (op : op) : result array =
  let one c =
    match span.span "secmodule.call" (fun () -> Stub.call conn ~func:c.func [| c.arg |]) with
    | v -> Ok v
    | exception Errno.Error (e, _) -> Error e
  in
  if uses_ring w then
    let slot c =
      match Stub.func_id conn c.func with
      | Some id -> (id, [| c.arg |])
      | None -> invalid_arg ("e2e: no function " ^ c.func)
    in
    let slots = Array.to_list (Array.map slot op) in
    span.span "ring.batch" (fun () -> Stub.call_batch_funcs conn slots)
    |> List.map (function Ok v -> Ok v | Error (e, _) -> Error e)
    |> Array.of_list
  else Array.map one op
