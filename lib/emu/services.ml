(* Baseline platform hypercall services every firmware can rely on:
   secondary hart startup, hart identification, explicit exit and a
   character-output fallback. *)

open Embsan_isa

let install (m : Machine.t) =
  Machine.set_trap_handler m Hypercall.hart_start (fun m cpu ->
      let id = Cpu.get cpu Reg.a0
      and pc = Cpu.get cpu Reg.a1
      and sp = Cpu.get cpu Reg.a2 in
      if id > 0 && id < Array.length m.harts then Machine.start_hart m id ~pc ~sp);
  Machine.set_trap_handler m Hypercall.current_hart (fun _m cpu ->
      Cpu.set cpu Reg.a0 cpu.Cpu.id);
  Machine.set_trap_handler m Hypercall.exit_ (fun _m cpu ->
      raise (Fault.Halted (Cpu.get cpu Reg.a0)));
  Machine.set_trap_handler m Hypercall.putc (fun m cpu ->
      Buffer.add_char m.uart.Devices.out
        (Char.chr (Cpu.get cpu Reg.a0 land 0xFF)));
  (* kcov reports are dropped unless a coverage collector overrides this *)
  if not (Machine.has_trap_handler m Hypercall.kcov) then
    Machine.set_trap_handler m Hypercall.kcov (fun _ _ -> ());
  (* interrupt plumbing for the rehosting layer: the stub announcement is
     always recorded (so arming a rehost controller after boot finds it);
     end-of-interrupt stays inert unless a controller overrides it *)
  Machine.set_trap_handler m Hypercall.irq_register (fun m cpu ->
      m.irq_entry <- Cpu.get cpu Reg.a0);
  if not (Machine.has_trap_handler m Hypercall.irq_eoi) then
    Machine.set_trap_handler m Hypercall.irq_eoi (fun _ _ -> ())
