(* The benchmark's workloads and the closed-loop campaign runner: one
   [Campaign.Engine] steps one exec at a time, and the benchmark times each
   call into [Engine.create] and [Engine.step] from outside. *)

open Embsan_guest
module Campaign = Embsan_fuzz.Campaign
module Engine = Campaign.Engine
module Rng = Embsan_fuzz.Rng
module Prog = Embsan_fuzz.Prog
module Embsan = Embsan_core.Embsan
module Coverage = Embsan_emu.Coverage

type t = { name : string; fw : Firmware_db.firmware }

let firmware name =
  match Firmware_db.find name with
  | Some fw -> fw
  | None -> failwith ("unknown firmware " ^ name)

(* Why each workload is here is recorded in BENCHMARK.json and README.md.
   Each runs its firmware's registered coverage front-end. *)
let all =
  [
    { name = "stm32mp1-dprobe"; fw = firmware "OpenHarmony-stm32mp1" };
    { name = "openwrt-kcov"; fw = firmware "OpenWRT-armvirt" };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One unit of fixed work is [campaigns] campaigns of [execs] execs each,
   seeded from the workload seed.  Several short campaigns rather than one
   long one: a campaign's trajectory (and with it a rare budget-exhausting
   exec) depends on its seed, and the median over several campaigns keeps
   one such trajectory from deciding the run's numbers.  On stm32mp1, some
   seeds gave half of ten 1000-exec campaigns a hang, so the median
   campaign was one with hangs; 500-exec campaigns have fewer. *)
let campaigns = 20
let execs = 500

let sanitizers = Embsan.all_sanitizers
let uses_kcov w = w.fw.Firmware_db.fw_fuzzer = Firmware_db.Syzkaller

let config w ~seed j =
  {
    (Campaign.default_config w.fw) with
    sanitizers;
    seed = Rng.split_seed ~seed ~shard:j;
    max_execs = execs;
    stop_when_all_found = false;
  }

(* Boot an instance the way the campaign boots its own: the same kcov
   build and coverage front-end. *)
let boot w config =
  let kcov = uses_kcov w in
  let inst = Replay.boot ~kcov w.fw config in
  let cov = Coverage.create ~harts:2 in
  if kcov then Coverage.attach_kcov cov inst.machine
  else Coverage.attach_tcg cov inst.machine;
  (inst, cov)

(* What one step did, read from the engine's public counters. *)
type step_class = Plain | Admit | Crash | Found

let class_name = function
  | Plain -> "plain"
  | Admit -> "admit"
  | Crash -> "crash"
  | Found -> "found"

let classes = [ Plain; Admit; Crash; Found ]

type step = { cls : step_class; dt : float; insns : int }

type campaign = {
  cfg : Campaign.config;
  loop_s : float;  (** wall time of the step loop *)
  steps : step array;
  result : Campaign.result;
  frontier : Prog.t list;  (** the final corpus, oldest first *)
  error : string option;  (** the exception a step raised, if one did *)
}

let now = Unix.gettimeofday

(* Run one campaign to its exec budget.  [tr] opens a span around the
   campaign and each call into [Engine.create] and [Engine.step] (a no-op
   outside the traced run); steps are classified from [crashes],
   [corpus_size] and [drain_found] deltas.  A step that raises ends the
   campaign and is reported in [error]. *)
let run ?(tr = Spans.off) cfg =
  tr.span "fuzz.campaign" @@ fun () ->
  let e = tr.span "fuzz.create" (fun () -> Engine.create cfg) in
  let steps = ref [] and error = ref None in
  let l0 = now () in
  (try
     while not (Engine.finished e) do
       let crashes = Engine.crashes e
       and corpus = Engine.corpus_size e
       and insns = Engine.insns_now e in
       let s = now () in
       tr.span "fuzz.step" (fun () -> Engine.step e);
       let dt = now () -. s in
       let cls =
         if Engine.drain_found e <> [] then Found
         else if Engine.crashes e > crashes then Crash
         else if Engine.corpus_size e > corpus then Admit
         else Plain
       in
       steps := { cls; dt; insns = Engine.insns_now e - insns } :: !steps
     done
   with exn -> error := Some (Printexc.to_string exn));
  let loop_s = now () -. l0 in
  let frontier = List.map (fun (p, _, _, _) -> p) (Engine.drain_frontier e) in
  {
    cfg;
    loop_s;
    steps = Array.of_list (List.rev !steps);
    result = Engine.result e;
    frontier;
    error = !error;
  }

let by_exec (r : Campaign.result) =
  List.sort
    (fun (a : Campaign.found) b -> compare (a.f_exec, a.f_bug.b_id) (b.f_exec, b.f_bug.b_id))
    r.r_found

(* Trajectory fingerprint: everything a deterministic campaign must
   reproduce exactly at a fixed seed. *)
let fingerprint (cfg : Campaign.config) (r : Campaign.result) =
  Printf.sprintf
    "seed=%d execs=%d crashes=%d corpus=%d coverage=%d insns=%d unmatched=%d found=[%s]"
    cfg.seed r.r_execs r.r_crashes r.r_corpus r.r_coverage r.r_insns
    (List.length r.r_unmatched)
    (String.concat ","
       (List.map
          (fun (f : Campaign.found) ->
            Printf.sprintf "%s@%d%s" f.f_bug.b_id f.f_exec
              (if f.f_confirmed then "" else "(unconfirmed)"))
          (by_exec r)))

let execs_per_s c = float (Array.length c.steps) /. c.loop_s

(* The fastest time of each step over the repeats, per campaign, keyed by
   the campaign's seed.  Every repeat does the same work (the gate checks
   their fingerprints), and noise from the host only ever adds time, so
   each step's minimum is the estimate of its cost.  Only these times
   outlive a repeat, so the heap does not grow with the repeats already
   measured. *)
let fold_fastest fastest unit =
  List.iter
    (fun (c : campaign) ->
      let dts = Array.map (fun (s : step) -> s.dt) c.steps in
      match Hashtbl.find_opt fastest c.cfg.seed with
      | None -> Hashtbl.replace fastest c.cfg.seed dts
      | Some f ->
          Array.iteri (fun k dt -> if k < Array.length f then f.(k) <- Float.min f.(k) dt) dts)
    unit

let sum = Array.fold_left ( +. ) 0.

(* Execs per second of [Engine.step] time over [units] of the same work,
   each step at its fastest. *)
let fastest_rate units =
  let fastest = Hashtbl.create campaigns in
  List.iter (fold_fastest fastest) units;
  let steps, time =
    Hashtbl.fold (fun _ f (n, t) -> (n + Array.length f, t +. sum f)) fastest (0, 0.)
  in
  float steps /. time

(* Does [f]'s reproducer fire on its own, from a fresh boot of the
   campaign's build? *)
let reproduces_alone w (f : Campaign.found) =
  let inst, _ = boot w (Replay.Embsan_cfg sanitizers) in
  Replay.detects f.f_bug (Replay.replay inst (Prog.to_reproducer f.f_prog))

(* The correctness gate for one campaign's findings, as (check, passed)
   pairs: every finding names a registered bug.  When [redetect], each
   finding's confirmation verdict is also checked from outside: a
   confirmed finding that needs no schedule or rehost seed must fire again
   through [Replay.run_reproducer] on a fresh boot, and an unconfirmed one
   must not fire on its own (else the engine failed to confirm a
   reproducible finding).  Unconfirmed findings are legitimate: the
   engine retries a finding with at most four programs of history, and
   some bugs need older state (README.md). *)
let checks w ~redetect c =
  let per_finding (f : Campaign.found) =
    let id = f.f_bug.b_id in
    let registered =
      List.exists (fun (b : Defs.bug) -> b.b_id = id) w.fw.Firmware_db.fw_bugs
    in
    (id ^ " registered", registered)
    ::
    (if not redetect then []
     else if not f.f_confirmed then
       [ (id ^ " unconfirmed and does not fire alone", not (reproduces_alone w f)) ]
     else if f.f_sched = None && f.f_rehost = None then
       let o =
         Replay.run_reproducer w.fw (Replay.Embsan_cfg sanitizers)
           (Prog.to_reproducer f.f_prog)
       in
       [ (id ^ " re-detected on a fresh boot", Replay.detects f.f_bug o) ]
     else [])
  in
  List.concat_map per_finding (by_exec c.result)
