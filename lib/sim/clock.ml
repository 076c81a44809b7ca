(* The cycle count and the jitter share an all-float record, which OCaml
   stores flat, so a charge updates the count in place without boxing a
   float; the generator, a pointer, lives one level up. *)
type acc = { mutable cycles : float; jitter : float }
type t = { acc : acc; rng : Smod_util.Rng.t }

let create ?(seed = 0x5EC40D2006L) ?(jitter = 0.015) () =
  { acc = { cycles = 0.0; jitter }; rng = Smod_util.Rng.create seed }

let noise t = if t.acc.jitter = 0.0 then 1.0 else Smod_util.Rng.jitter t.rng t.acc.jitter
let charge t op = t.acc.cycles <- t.acc.cycles +. (Cost_model.cycles op *. noise t)

let charge_n t op k =
  if k > 0 then
    t.acc.cycles <- t.acc.cycles +. (Cost_model.cycles op *. float_of_int k *. noise t)

let charge_cycles t c = t.acc.cycles <- t.acc.cycles +. c
let now_cycles t = t.acc.cycles
let now_us t = Cost_model.us_of_cycles t.acc.cycles
let reset t = t.acc.cycles <- 0.0
let elapsed_us t ~since = Cost_model.us_of_cycles (t.acc.cycles -. since)
