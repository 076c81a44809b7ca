(* E24: fused batch policy evaluation — one compiled pass per batch —
   against per-slot compiled execution, across batch size, assertion
   count and all three admission transports (msgq scalar calls, ring
   batches, the E22 kernel poller).

   The policy ladder mirrors E19's volatile shape but with richer
   batch-invariant guards (module identity, an origin predicate, two
   static deployment attributes) ahead of the varying term, which is
   exactly the shape fusion exploits: the whole non-matching ladder and
   every invariant conjunct of the matching rung land in the
   batch-invariant prefix, evaluated once per batch into a node
   snapshot; the per-slot residue is the calls_so_far comparison plus
   the root combine.  Per-slot compiled execution walks all of it every
   slot.  The volatile guard keeps smodd's decision cache out of the
   picture on every row, like E19.

   Two extra row families ride along:

   - speedup ratios (perslot mean / fused mean) per cell, so the >= 3x
     headline at ring b64 kn-16 is a first-class gated row rather than
     arithmetic a reader does by hand;
   - the origin-predicate ladder: 0..3 origin conjuncts ahead of the
     volatile term.  They share the matching assertion's segment with
     calls_so_far, so they stay in the residue — but each costs one
     fused origin+jf superop per slot against two plain opcodes on the
     per-slot engine (the halved slope is the measured claim; whole-
     assertion hoisting is the main ladder's job).  Plus the
     deny-by-origin path: a transport predicate that refuses ring
     batches outright.

   Each (cell, trial) task builds a private world from coordinate-derived
   seeds, so the document is bit-identical for any job count. *)

module Machine = Smod_kern.Machine
module Clock = Smod_sim.Clock
module Stats = Smod_util.Stats
module Parse = Smod_keynote.Parse
open Secmodule

type transport = Msgq | Ring | Poller

let transport_name = function Msgq -> "msgq" | Ring -> "ring" | Poller -> "poller"

type config = {
  cells : (int * int) list;  (* (batch, assertions) *)
  rounds : int;  (* measured batches per trial *)
  trials : int;
  origin_terms : int list;  (* origin-predicate ladder rungs *)
}

let default_config =
  {
    cells = [ (1, 16); (4, 16); (16, 16); (64, 16); (64, 1); (64, 4); (64, 64) ];
    rounds = 60;
    trials = 3;
    origin_terms = [ 0; 1; 2; 3 ];
  }

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

(* [n]-assertion ladder: one matching rung reading the volatile
   calls_so_far behind four invariant conjuncts, and [n - 1] non-matching
   rungs that differ only in the clause literal.  origin_ring <= 3 is a
   tautology over the 0..3 ring lattice — its point is to be an origin
   predicate the compiler must resolve per batch, not to filter. *)
let ladder_policy n =
  let invariant_guard = "module == \"seclibc\" && origin_ring <= 3 && tier == \"gold\" && region == \"us\"" in
  let matching =
    Parse.assertion_of_string
      (Printf.sprintf
         "keynote-version: 2\n\
          authorizer: \"POLICY\"\n\
          licensees: \"client\"\n\
          conditions: %s && calls_so_far < 1000000000 -> \"allow\";\n"
         invariant_guard)
  in
  let non_matching =
    List.init (n - 1) (fun i ->
        Parse.assertion_of_string
          (Printf.sprintf
             "keynote-version: 2\n\
              authorizer: \"POLICY\"\n\
              licensees: \"client\"\n\
              conditions: %s && clause == %d -> \"allow\";\n"
             invariant_guard i))
  in
  Policy.Keynote
    {
      policy = matching :: non_matching;
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [ ("tier", "gold"); ("region", "us") ];
    }

(* Origin ladder: a single matching assertion whose guard carries [k]
   origin conjuncts (all true for a plain ring-3 client over any call
   transport) ahead of the volatile term. *)
let origin_ladder_policy k =
  let terms =
    [
      "origin_ring <= 3";
      "origin_transport != \"poller\"";
      "origin_module == \"user\"";
    ]
  in
  let rec take n = function
    | x :: xs when n > 0 -> x :: take (n - 1) xs
    | _ -> []
  in
  let guard = String.concat " && " ("module == \"seclibc\"" :: take k terms) in
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            (Printf.sprintf
               "keynote-version: 2\n\
                authorizer: \"POLICY\"\n\
                licensees: \"client\"\n\
                conditions: %s && calls_so_far < 1000000000 -> \"allow\";\n"
               guard);
        ];
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [];
    }

(* Deny-by-origin: establishment is admitted explicitly, ring batches are
   refused because only the msgq transport satisfies the predicate. *)
let deny_by_transport_policy =
  Policy.Keynote
    {
      policy =
        [
          Parse.assertion_of_string
            "keynote-version: 2\n\
             authorizer: \"POLICY\"\n\
             licensees: \"client\"\n\
             conditions: phase == \"session\" -> \"allow\"; origin_transport == \
             \"msgq\" -> \"allow\";\n";
        ];
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [];
    }

(* ------------------------------------------------------------------ *)
(* One (cell, trial) measurement                                       *)
(* ------------------------------------------------------------------ *)

let cell_trial ~policy ~transport ~fuse ~batch ~rounds ~seed =
  let world = World.create ~seed:(Int64.of_int seed) ~policy ~with_rpc:false () in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod fuse;
  (match transport with
  | Poller ->
      Smod.set_kernel_poller smod true;
      Smod.set_session_mux smod true
  | Msgq | Ring -> ());
  let clock = Machine.clock world.World.machine in
  let mean = ref Float.nan and p99 = ref Float.nan in
  World.spawn_seclibc_client world ~name:"e24-client" (fun _p conn ->
      (match transport with
      | Msgq -> ()
      | Ring | Poller -> ignore (Stub.arm_ring ~nslots:(max batch 16) conn));
      let argss = List.init batch (fun i -> [| i |]) in
      let do_batch () =
        match transport with
        | Msgq -> List.iter (fun args -> ignore (Stub.call conn ~func:"test_incr" args)) argss
        | Ring | Poller -> ignore (Stub.call_batch conn ~func:"test_incr" argss)
      in
      (* Warm: symbol lookup, ring arming, the one-off compile + plan. *)
      do_batch ();
      let samples = Array.make rounds 0.0 in
      for r = 0 to rounds - 1 do
        let t0 = Clock.now_cycles clock in
        do_batch ();
        samples.(r) <- Clock.elapsed_us clock ~since:t0 /. float_of_int batch
      done;
      mean := Stats.mean samples;
      p99 := Stats.percentile samples 99.0);
  World.run world;
  (!mean, !p99)

(* The deny path returns per-slot EACCES results rather than values; the
   cost of refusing a batch is the row. *)
let deny_trial ~fuse ~batch ~rounds ~seed =
  let world =
    World.create ~seed:(Int64.of_int seed) ~policy:deny_by_transport_policy
      ~with_rpc:false ()
  in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  Smod.set_policy_fuse smod fuse;
  let clock = Machine.clock world.World.machine in
  let mean = ref Float.nan in
  World.spawn_seclibc_client world ~name:"e24-deny" (fun _p conn ->
      ignore (Stub.arm_ring ~nslots:(max batch 16) conn);
      let argss = List.init batch (fun i -> [| i |]) in
      let do_batch () = ignore (Stub.call_batch conn ~func:"test_incr" argss) in
      do_batch ();
      let samples = Array.make rounds 0.0 in
      for r = 0 to rounds - 1 do
        let t0 = Clock.now_cycles clock in
        do_batch ();
        samples.(r) <- Clock.elapsed_us clock ~since:t0 /. float_of_int batch
      done;
      mean := Stats.mean samples);
  World.run world;
  !mean

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let engines = [ ("perslot", false); ("fused", true) ]

let run ?(runner = Runner.sequential) ?(config = default_config) () =
  let main_configs =
    List.concat_map
      (fun (batch, kn) ->
        List.concat_map
          (fun transport ->
            List.map (fun (ename, fuse) -> `Main (batch, kn, transport, ename, fuse)) engines)
          [ Msgq; Ring; Poller ])
      config.cells
  in
  let origin_configs =
    List.concat_map
      (fun k -> List.map (fun (ename, fuse) -> `Origin (k, ename, fuse)) engines)
      config.origin_terms
    @ [ `Deny ]
  in
  let measure cfg ~trial =
    match cfg with
    | `Main (batch, kn, transport, _, fuse) ->
        let seed =
          24_000 + (1009 * trial) + (17 * batch) + (3 * kn)
          + (match transport with Msgq -> 0 | Ring -> 1 | Poller -> 2)
          + if fuse then 7 else 0
        in
        cell_trial ~policy:(ladder_policy kn) ~transport ~fuse ~batch
          ~rounds:config.rounds ~seed
    | `Origin (k, _, fuse) ->
        let seed = 24_700 + (1009 * trial) + (11 * k) + if fuse then 7 else 0 in
        cell_trial ~policy:(origin_ladder_policy k) ~transport:Ring ~fuse ~batch:16
          ~rounds:config.rounds ~seed
    | `Deny ->
        let seed = 24_900 + (1009 * trial) in
        (deny_trial ~fuse:true ~batch:16 ~rounds:config.rounds ~seed, Float.nan)
  in
  let results =
    Ablations.map_trials runner ~trials:config.trials (main_configs @ origin_configs)
      measure
  in
  let mean_of pairs = Stats.mean (Array.map fst pairs) in
  let label_of = function
    | `Main (batch, kn, transport, ename, _) ->
        Printf.sprintf "%s b%d kn-%d %s" (transport_name transport) batch kn ename
    | `Origin (k, ename, _) -> Printf.sprintf "origin-%d ring b16 %s" k ename
    | `Deny -> "origin deny ring b16 fused"
  in
  let measured =
    List.concat_map
      (fun (cfg, pairs) ->
        let label = label_of cfg in
        match cfg with
        | `Deny -> [ Ablations.entry_of_means (label ^ " (mean)") (Array.map fst pairs) ]
        | `Main _ | `Origin _ ->
            [
              Ablations.entry_of_means (label ^ " (mean)") (Array.map fst pairs);
              Ablations.entry_of_means (label ^ " (p99)") (Array.map snd pairs);
            ])
      results
  in
  (* Speedup ratios: perslot mean / fused mean per (transport, batch, kn)
     cell — the gateable headline rows. *)
  let ratios =
    List.concat_map
      (fun (batch, kn) ->
        List.map
          (fun transport ->
            let find ename =
              List.assoc (`Main (batch, kn, transport, ename, List.assoc ename engines))
                results
            in
            let perslot = mean_of (find "perslot") and fused = mean_of (find "fused") in
            Ablations.
              {
                label =
                  Printf.sprintf "%s b%d kn-%d speedup (ratio)"
                    (transport_name transport) batch kn;
                mean_us = perslot /. fused;
                stdev_us = 0.0;
              })
          [ Msgq; Ring; Poller ])
      config.cells
  in
  measured @ ratios

let task_count config =
  let mains = 6 * List.length config.cells in
  let origins = (2 * List.length config.origin_terms) + 1 in
  (mains + origins) * config.trials

let dispatch_count config =
  let per_round = List.fold_left (fun acc (b, _) -> acc + b) 0 config.cells * 6 in
  let origin_per_round = 16 * ((2 * List.length config.origin_terms) + 1) in
  (per_round + origin_per_round) * (config.rounds + 1) * config.trials
