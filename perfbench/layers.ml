(* The traced run: per-layer numbers, measured by timing calls into the
   public functions of lib/fuzz, lib/guest, lib/core, lib/emu and lib/snap
   from the benchmark's side.  Nothing inside the program is
   instrumented.

   1. The probing phase and a boot, cold ([Replay.session_for],
      [Replay.boot]).
   2. The unit of campaigns, untraced and with a span around every
      [Engine.create] and [Engine.step], alternating twice: the step
      classes, and the tracing overhead as the ratio of the untraced to
      the traced throughput.
   3. Replays of the final corpus of the unit's first campaign on the
      benchmark's own [Replay] instances, restoring the post-boot snapshot
      between programs, under No_sanitizer, KASAN only and the workload's
      sanitizers, in rounds until the run's time is up. *)

open Embsan_guest
module W = Workload
module Snap = Embsan_snap.Snap
module Coverage = Embsan_emu.Coverage
module Engine_stats = Embsan_emu.Engine_stats
module Runtime = Embsan_core.Runtime
module Embsan = Embsan_core.Embsan
module Corpus = Embsan_fuzz.Corpus
module Prog = Embsan_fuzz.Prog
module Rng = Embsan_fuzz.Rng

let now = Unix.gettimeofday

(* Counters summed over a pass's replays; the engine's own counters are
   in [inst.machine.stats], reset before the first replay. *)
type counts = {
  mutable programs : int;
  mutable insns : int;
  mutable minor_words : float;
  mutable mem_events : int;
  mutable callouts : int;
  mutable dirty_pages : int;
}

type pass = {
  label : string;
  inst : Replay.instance;
  snap : Snap.t;
  rt_state : (Runtime.t * Runtime.state) option;
      (** the workload pass also restores the runtime alone *)
  cov : Coverage.t;
  corpus : Corpus.t;
  c : counts;
}

let make_pass tr (w : W.t) ~workload label config =
  let inst, cov = tr.Spans.span ("guest.boot." ^ label) (fun () -> W.boot w config) in
  let snap = Snap.capture ?runtime:inst.rt inst.machine in
  let rt_state =
    match inst.rt with
    | Some rt when workload -> Some (rt, Runtime.save rt)
    | _ -> None
  in
  {
    label;
    inst;
    snap;
    rt_state;
    cov;
    corpus = Corpus.create ();
    c = { programs = 0; insns = 0; minor_words = 0.; mem_events = 0; callouts = 0; dirty_pages = 0 };
  }

let rt_counts (p : pass) =
  match p.inst.rt with Some rt -> (rt.mem_events, rt.callouts) | None -> (0, 0)

(* Restore from the state the previous replay left, then replay one
   corpus program.  When [runtime_alone] (the workload pass, on alternate
   programs), the runtime shadow is restored and timed alone first, and
   the snapshot restore that follows is not timed: every timed restore
   starts from a dirty state. *)
let replay_one tr p ~runtime_alone prog =
  let m = p.inst.machine in
  p.c.dirty_pages <- p.c.dirty_pages + Snap.dirty_pages m;
  (match p.rt_state with
  | Some (rt, st) when runtime_alone ->
      tr.Spans.span "core.runtime_restore" (fun () -> Runtime.restore rt st);
      ignore (Snap.restore p.snap : int)
  | _ -> ignore (tr.Spans.span ("snap.restore." ^ p.label) (fun () -> Snap.restore p.snap) : int));
  Coverage.reset_edges p.cov;
  let ev0, co0 = rt_counts p in
  let o =
    tr.span ("guest.replay." ^ p.label) (fun () ->
        let w0 = Gc.minor_words () in
        let o = Replay.replay p.inst (Prog.to_reproducer prog) in
        p.c.minor_words <- p.c.minor_words +. (Gc.minor_words () -. w0);
        o)
  in
  let ev1, co1 = rt_counts p in
  p.c.mem_events <- p.c.mem_events + (ev1 - ev0);
  p.c.callouts <- p.c.callouts + (co1 - co0);
  p.c.programs <- p.c.programs + 1;
  p.c.insns <- p.c.insns + o.Replay.o_insns;
  if p.rt_state <> None then
    tr.span "fuzz.triage" (fun () ->
        ignore (Corpus.consider p.corpus prog (Coverage.signature p.cov) : bool))

let per c x = float x /. float (max 1 c.programs)

let run (w : W.t) ~seed ~seconds =
  let t_start = now () in
  let spans = Spans.create () in
  let tr = Spans.on spans in
  let kcov = W.uses_kcov w in
  (* 1. cold probing phase, then the boots of the three replay instances *)
  ignore
    (tr.span "core.session_for" (fun () -> Replay.session_for ~kcov w.fw W.sanitizers)
      : Embsan.session);
  let wl = make_pass tr w ~workload:true "workload" (Replay.Embsan_cfg W.sanitizers) in
  let kasan = make_pass tr w ~workload:false "kasan" (Replay.Embsan_cfg Embsan.kasan_only) in
  let plain = make_pass tr w ~workload:false "plain" Replay.No_sanitizer in
  let passes = [ wl; kasan; plain ] in
  (* 2. the campaign unit, untraced and traced, alternating twice; every
     unit must follow the first one's trajectory *)
  let untraced = Gate.run_unit w ~seed in
  let fp = Gate.gate_repeat w ~first:None ~redetect:true untraced in
  let again ?tr () =
    let u = Gate.run_unit ?tr w ~seed in
    ignore (Gate.gate_repeat w ~first:(Some fp) ~redetect:false u : (int * string) list);
    u
  in
  let traced = again ~tr () in
  let untraced2 = again () in
  let traced2 = again ~tr () in
  let untraced_rate = W.fastest_rate [ untraced; untraced2 ]
  and traced_rate = W.fastest_rate [ traced; traced2 ] in
  (* 3. corpus replays, in rounds, until the run's time is up *)
  let corpus = match traced with c :: _ -> c.W.frontier | [] -> [] in
  let rounds = ref 0 in
  List.iter (fun p -> Engine_stats.reset p.inst.machine.stats) passes;
  while
    corpus <> [] && (!rounds = 0 || now () -. t_start < seconds)
  do
    (* the parity flips each round, so every program is measured both ways *)
    let r = !rounds in
    incr rounds;
    List.iter
      (fun p ->
        List.iteri (fun i -> replay_one tr p ~runtime_alone:((i + r) land 1 = 1)) corpus)
      passes
  done;
  (* mutation and generation, on the benchmark's own stream *)
  let rng = Rng.create ~seed in
  let syscalls = w.fw.fw_syscalls in
  let progs = Array.of_list corpus in
  let pick () =
    if progs = [||] then None else Some progs.(Rng.below rng (Array.length progs))
  in
  Array.iter
    (fun p ->
      for _ = 1 to 20 do
        ignore (tr.span "fuzz.mutate" (fun () ->
            Prog.mutate rng syscalls ~corpus_pick:pick p) : Prog.t);
        ignore (tr.span "fuzz.gen" (fun () -> Prog.gen rng syscalls) : Prog.t)
      done)
    progs;
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" w.name seed in
  Spans.write spans path;
  (* ---- per-layer metrics -------------------------------------------- *)
  let wl_stats = wl.inst.machine.stats in
  let us name = Stats.mean (Spans.durations spans name) *. 1e6 in
  let replay_s p = Spans.total spans ("guest.replay." ^ p.label) in
  let traced_runs = traced @ traced2 in
  let steps = Array.concat (List.map (fun (c : W.campaign) -> c.steps) traced_runs) in
  let loop_s = List.fold_left (fun a (c : W.campaign) -> a +. c.loop_s) 0. traced_runs in
  let insns = Array.fold_left (fun a (s : W.step) -> a + s.insns) 0 steps in
  let of_class cls = List.filter (fun (s : W.step) -> s.cls = cls) (Array.to_list steps) in
  let dts l = Array.of_list (List.map (fun (s : W.step) -> s.dt) l) in
  let classes =
    List.concat_map
      (fun cls ->
        let l = of_class cls in
        let name = W.class_name cls in
        [
          Gate.metric ("fuzz.steps_" ^ name) "count" (float (List.length l));
          Gate.metric (Printf.sprintf "fuzz.%s_time_share" name) "share"
            (Array.fold_left ( +. ) 0. (dts l) /. loop_s);
        ]
        @
        (* an empty class has no latency; the crash class is empty on most
           seeds of every workload, so it is printed but never gated *)
        if l = [] || cls = W.Crash then []
        else [ Gate.metric (Printf.sprintf "fuzz.step_%s_us" name) "us" (Stats.mean (dts l) *. 1e6) ])
      W.classes
  in
  let crash_steps = of_class W.Crash in
  let ms =
    classes
    @ [
        Gate.metric "fuzz.crash_insn_share" "share"
          (float (List.fold_left (fun a (s : W.step) -> a + s.insns) 0 crash_steps)
          /. float (max 1 insns));
        Gate.metric "fuzz.admit_ratio" "share"
          (float (List.fold_left (fun a (c : W.campaign) -> a + c.result.r_corpus) 0 traced_runs)
          /. float (max 1 (Array.length steps)));
        Gate.metric "fuzz.mutate_us" "us" (us "fuzz.mutate");
        Gate.metric "fuzz.gen_us" "us" (us "fuzz.gen");
        Gate.metric "fuzz.triage_us" "us" (us "fuzz.triage");
        Gate.metric "core.prepare_ms" "ms" (us "core.session_for" /. 1e3);
        Gate.metric "guest.boot_ms" "ms" (us "guest.boot.workload" /. 1e3);
        Gate.metric "guest.replay_us" "us" (us "guest.replay.workload");
        Gate.metric "emu.plain_minsns_per_s" "Minsn/s"
          (float plain.c.insns /. replay_s plain /. 1e6);
        Gate.metric "core.sanitize_share" "share" (1. -. (replay_s plain /. replay_s wl));
        Gate.metric "core.kcsan_share" "share" (1. -. (replay_s kasan /. replay_s wl));
        Gate.metric "core.mem_events_per_exec" "count" (per wl.c wl.c.mem_events);
        Gate.metric "core.callouts_per_exec" "count" (per wl.c wl.c.callouts);
        Gate.metric "core.alloc_words_per_exec" "words"
          ((wl.c.minor_words /. float wl.c.programs)
          -. (plain.c.minor_words /. float plain.c.programs));
        Gate.metric "emu.cache_hit_rate" "share" (Engine_stats.hit_rate wl_stats);
        Gate.metric "emu.chain_rate" "share" (Engine_stats.chain_rate wl_stats);
        Gate.metric "emu.super_execs_per_exec" "count" (per wl.c wl_stats.super_execs);
        Gate.metric "snap.restore_us" "us" (us "snap.restore.workload");
        Gate.metric "snap.runtime_restore_us" "us" (us "core.runtime_restore");
        Gate.metric "snap.machine_restore_us" "us" (us "snap.restore.plain");
        Gate.metric "snap.dirty_pages_per_restore" "count" (per wl.c wl.c.dirty_pages);
        Gate.metric "snap.retranslations_per_restore" "count"
          (per wl.c wl_stats.translations);
        Gate.metric "trace.overhead_ratio" "x" (untraced_rate /. traced_rate);
      ]
  in
  let crash_us =
    match crash_steps with
    | [] -> "no crash steps"
    | l ->
        Printf.sprintf "%.1f us mean over %d crash steps"
          (Stats.mean (dts l) *. 1e6)
          (List.length l)
  in
  Printf.printf
    "traced run %s seed %d: %d campaigns x %d execs; %d corpus programs x %d \
     replay rounds x 3 configs (%s); fuzz.step_crash_us: %s; %d spans in %s\n"
    w.name seed W.campaigns W.execs (List.length corpus) !rounds
    (String.concat ", " (List.map (fun p -> p.label) passes))
    crash_us (Spans.count spans) path;
  Printf.printf "tracing overhead: untraced %.1f execs/s, traced %.1f execs/s\n"
    untraced_rate traced_rate;
  Gate.print_metrics ms;
  ms
