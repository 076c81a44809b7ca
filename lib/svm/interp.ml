module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Prot = Smod_vmem.Prot
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model

exception Fault of { pc : int; reason : string }

(* Observability (lib/metrics): module-VM work executed inside handles. *)
let m_instructions = Smod_metrics.counter "svm.instructions"
let m_runs = Smod_metrics.counter "svm.runs"

type env = {
  aspace : Aspace.t;
  clock : Clock.t;
  syscall : (nr:int -> int array -> int) option;
  fuel : int;
  mutable executed : int;
}

let make_env ~aspace ~clock ?syscall ?(fuel = 10_000_000) () =
  { aspace; clock; syscall; fuel; executed = 0 }

let instructions_executed env = env.executed

let mask32 = 0xFFFFFFFF
let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let run env ~code_base ~code_len ?(entry = 0) ~args_base () =
  Smod_metrics.Counter.incr m_runs;
  let aspace = env.aspace in
  (* Instruction fetch goes through the address space: each text page is
     checked once per run, in order, for execute and then read access,
     and instructions decode in place from the checked frames.  Real
     hardware would fetch incrementally, but the protection consequence is
     identical. *)
  let first_vpn = Layout.vpn_of_addr code_base in
  let pages =
    if code_len <= 0 then [||]
    else
      Array.init
        (Layout.vpn_of_addr (code_base + code_len - 1) - first_vpn + 1)
        (fun i ->
          let addr = max code_base (Layout.addr_of_vpn (first_vpn + i)) in
          Aspace.fault aspace ~addr ~access:Prot.Exec;
          Aspace.read_page aspace ~addr)
  in
  let byte i =
    let addr = code_base + i in
    let page = pages.(Layout.vpn_of_addr addr - first_vpn) in
    Aspace.page_u8 page (addr land (Layout.page_size - 1))
  in
  let stack = ref [] in
  let return_stack = ref [] in
  let max_call_depth = 256 in
  let locals = Array.make 16 0 in
  let push v = stack := v land mask32 :: !stack in
  let pop pc =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> raise (Fault { pc; reason = "operand stack underflow" })
  in
  let rec exec pc fuel =
    if fuel <= 0 then raise (Fault { pc; reason = "out of fuel" });
    if pc < 0 || pc >= code_len then raise (Fault { pc; reason = "pc out of code range" });
    let instr =
      try Isa.decode ~len:code_len byte pc
      with Invalid_argument msg -> raise (Fault { pc; reason = msg })
    in
    let next = pc + Isa.length instr in
    env.executed <- env.executed + 1;
    Smod_metrics.Counter.incr m_instructions;
    Clock.charge env.clock Cost.Svm_instr;
    let binop f =
      let b = pop pc in
      let a = pop pc in
      push (f a b);
      exec next (fuel - 1)
    in
    match instr with
    | Isa.Nop -> exec next (fuel - 1)
    | Isa.Push v -> (
        push v;
        exec next (fuel - 1))
    | Isa.Loadarg k ->
        push (Aspace.read_word aspace ~addr:(args_base + (4 * k)));
        exec next (fuel - 1)
    | Isa.Loadw ->
        let addr = pop pc in
        push (Aspace.read_word aspace ~addr);
        exec next (fuel - 1)
    | Isa.Storew ->
        let addr = pop pc in
        let v = pop pc in
        Aspace.write_word aspace ~addr v;
        exec next (fuel - 1)
    | Isa.Loadb ->
        let addr = pop pc in
        push (Aspace.read_u8 aspace ~addr);
        exec next (fuel - 1)
    | Isa.Storeb ->
        let addr = pop pc in
        let v = pop pc in
        Aspace.write_u8 aspace ~addr v;
        exec next (fuel - 1)
    | Isa.Add -> binop (fun a b -> a + b)
    | Isa.Sub -> binop (fun a b -> a - b)
    | Isa.Mul -> binop (fun a b -> a * b)
    | Isa.Divu ->
        let b = pop pc in
        let a = pop pc in
        if b = 0 then raise (Fault { pc; reason = "division by zero" });
        push (a / b);
        exec next (fuel - 1)
    | Isa.And -> binop ( land )
    | Isa.Or -> binop ( lor )
    | Isa.Xor -> binop ( lxor )
    | Isa.Shl -> binop (fun a b -> a lsl (b land 31))
    | Isa.Shr -> binop (fun a b -> a lsr (b land 31))
    | Isa.Eq -> binop (fun a b -> if a = b then 1 else 0)
    | Isa.Lt -> binop (fun a b -> if to_signed a < to_signed b then 1 else 0)
    | Isa.Ltu -> binop (fun a b -> if a < b then 1 else 0)
    | Isa.Jmp d -> exec (next + d) (fuel - 1)
    | Isa.Jz d ->
        let v = pop pc in
        exec (if v = 0 then next + d else next) (fuel - 1)
    | Isa.Jnz d ->
        let v = pop pc in
        exec (if v <> 0 then next + d else next) (fuel - 1)
    | Isa.Dup ->
        let v = pop pc in
        push v;
        push v;
        exec next (fuel - 1)
    | Isa.Drop ->
        ignore (pop pc);
        exec next (fuel - 1)
    | Isa.Swap ->
        let b = pop pc in
        let a = pop pc in
        push b;
        push a;
        exec next (fuel - 1)
    | Isa.Localget k ->
        if k >= Array.length locals then raise (Fault { pc; reason = "local index" });
        push locals.(k);
        exec next (fuel - 1)
    | Isa.Localset k ->
        if k >= Array.length locals then raise (Fault { pc; reason = "local index" });
        locals.(k) <- pop pc;
        exec next (fuel - 1)
    | Isa.Sys (nr, nargs) -> (
        match env.syscall with
        | None -> raise (Fault { pc; reason = "syscall from module code not permitted here" })
        | Some sys ->
            let args = Array.make nargs 0 in
            for i = nargs - 1 downto 0 do
              args.(i) <- pop pc
            done;
            push (sys ~nr args);
            exec next (fuel - 1))
    | Isa.Call target ->
        let tgt_off = target - code_base in
        if tgt_off < 0 || tgt_off >= code_len then
          raise (Fault { pc; reason = Printf.sprintf "call target 0x%x outside module" target });
        if List.length !return_stack >= max_call_depth then
          raise (Fault { pc; reason = "call depth overflow" });
        return_stack := next :: !return_stack;
        exec tgt_off (fuel - 1)
    | Isa.Ret -> (
        match !return_stack with
        | ret :: rest ->
            (* intra-module return: the result stays on the operand stack *)
            return_stack := rest;
            exec ret (fuel - 1)
        | [] -> pop pc)
  in
  if entry < 0 || entry >= code_len then
    raise (Fault { pc = entry; reason = "entry point outside code" });
  exec entry env.fuel
