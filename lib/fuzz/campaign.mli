(** Coverage-guided fuzzing campaign over one firmware image, with crash
    triage against the bug registry and reproducer confirmation.  Two
    front-ends match the paper's tooling: Syzkaller mode (guest kcov
    coverage) for Linux firmware and Tardis mode (OS-agnostic
    translated-block coverage) for the RTOS and closed-source images. *)

open Embsan_guest

(** Model-free MMIO rehosting ({!Embsan_rehost.Rehost}): [Mmio] serves
    reads from unmapped MMIO ranges from a per-exec seeded stream behind
    a (pc, addr) memoization table, so firmware with no hand-written
    device model still runs; [Mmio_irq] also draws an interrupt injection
    plan (the ["irq"] stream) from the same seed.  The rehost seed rides
    the corpus entry and reproducers like the schedule seed, from a
    dedicated non-advancing [Rng.split_stream] stream — trajectories with
    rehosting [Off] stay pinned. *)
type rehosting = Off | Mmio | Mmio_irq

type config = {
  fw : Firmware_db.firmware;
  sanitizers : Embsan_core.Embsan.sanitizers;
  max_execs : int;
  seed : int;
  stop_when_all_found : bool;
  use_snapshots : bool;
      (** recover from crashes (and run confirmation replays / corpus
          cleaning) by restoring a post-boot checkpoint instead of
          rebooting; on by default — the restore-transparency oracle in
          [lib/check] pins the equivalence *)
  use_cmplog : bool;
      (** compare-operand coverage ({!Embsan_emu.Cmplog}): per-exec
          compare features join the frontier signature and the operand
          dictionary feeds mutation, which is what solves magic-value
          guards.  Off by default so existing seeded trajectories stay
          pinned. *)
  use_sched : bool;
      (** schedule fuzzing ({!Embsan_sched.Sched}): each execution runs
          under a fuzzer-chosen interleaving seeded from a dedicated
          [Rng.split_stream] stream, the seed is part of the corpus
          entry and of reproducers (mutated, minimized), and the main
          mutation stream is never touched — so trajectories with
          [use_sched = false] stay pinned.  Off by default. *)
  rehosting : rehosting;  (** [Off] by default *)
}

val default_config : Firmware_db.firmware -> config

type found = {
  f_bug : Defs.bug;
  f_exec : int;  (** executions until first detection *)
  f_prog : Prog.t;  (** reproducer (possibly with shrunk history prefix) *)
  f_sched : int option;
      (** schedule seed the reproducer needs ([None] = round-robin
          suffices; minimization tries dropping the schedule first) *)
  f_rehost : int option;
      (** rehost seed the reproducer needs ([None] = fires without the
          rehost layer; minimization tries dropping it before the
          schedule seed) *)
  f_irq : bool;
      (** the rehost replay also injects interrupts: [f_rehost] is set
          under [Mmio_irq] ([repro] needs [--irq] alongside
          [--rehost-seed]) *)
  f_confirmed : bool;  (** reproduced on a fresh instance *)
}

type result = {
  r_fw : Firmware_db.firmware;
  r_found : found list;
  r_execs : int;
  r_crashes : int;
  r_corpus : int;
  r_coverage : int;
  r_insns : int;
  r_unmatched : string list;
  r_corpus_progs : Prog.t list;
      (** the merged corpus (the overhead experiment's workload) *)
}

(** The steppable per-worker fuzzing engine behind {!run}.  One engine
    owns one booted instance (machine, runtime, post-boot snapshot),
    corpus and coverage map — shared-nothing, so the campaign
    orchestrator ([lib/orch]) can drive one engine per domain.  {!run}
    is exactly [create]; [step] until [finished]; [result] — which is
    what makes a single-worker orchestrated campaign bit-identical to
    {!run} for the same seed. *)
module Engine : sig
  type t

  (** [create ?rng cfg] boots a fresh instance and returns an idle
      engine.  [rng] defaults to [Rng.create ~seed:cfg.seed]; the
      orchestrator passes [Rng.split]-derived per-shard streams. *)
  val create : ?rng:Rng.t -> config -> t

  (** Budget exhausted, or all registered bugs found (when
      [stop_when_all_found]). *)
  val finished : t -> bool

  (** One fuzzing iteration: generate or mutate a program, execute it,
      triage coverage/reports/crashes, recover from architectural
      crashes. *)
  val step : t -> unit

  (** Execute a frontier program received from another worker, under the
      schedule and rehost seeds it was productive with.  Counts as one
      execution and goes through the same corpus-admission and triage
      path as a generated program. *)
  val inject : t -> ?sched:int -> ?rehost:int -> Prog.t -> unit

  (** New corpus entries (with the schedule and rehost seeds they ran
      under and the coverage signature that admitted them) since the
      last drain, oldest first. *)
  val drain_frontier :
    t -> (Prog.t * int option * int option * (int * int) list) list

  (** Newly found (confirmed/unconfirmed) bugs since the last drain,
      oldest first. *)
  val drain_found : t -> found list

  val execs : t -> int
  val crashes : t -> int
  val corpus_size : t -> int
  val coverage : t -> int
  val insns_now : t -> int
  val unmatched : t -> string list

  (** Final result; also flushes the instruction accounting. *)
  val result : t -> result
end

val run : config -> result

(** Arm a rehost controller from a rehost seed, as campaigns do: MMIO
    responses, plus the injection plan under [Mmio_irq]. *)
val arm_rehost : rehosting -> Embsan_rehost.Rehost.t -> int -> unit

(** Boot the campaign's build of [cfg.fw] with its coverage front-end
    (guest kcov or Tardis) attached to [cov]. *)
val boot_with_coverage : config -> Embsan_emu.Coverage.t -> Replay.instance

(** Filter the corpus to programs that neither report nor crash, iterated
    to a fixpoint (dropping a program changes allocator state for the
    survivors).  The Figure-2 replay workload. *)
val clean_corpus :
  ?use_snapshots:bool -> Firmware_db.firmware -> Prog.t list -> Prog.t list

val pp_result : Format.formatter -> result -> unit
