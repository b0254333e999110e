(* Campaign benchmark: sanitized fuzzing throughput on fixed-work
   workloads, closed loop (one engine steps one exec at a time), one
   process with one domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
   is the separate traced run that gives the per-layer numbers.  Human
   readable lines come first; the last line of standard output is one JSON
   object with the gate's verdict and the metrics.  The exit code is 0
   only when every correctness check passed. *)

module W = Workload
open Gate

let now = Unix.gettimeofday

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  cold_campaign : int option;  (** child mode: run campaign [j] cold *)
  cold_create : int option;  (** child mode: only create campaign [j] cold *)
}

let parse () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.
  and trace = ref false and cold_campaign = ref None and cold_create = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match W.find w with Some w -> workload := Some w | None -> usage ());
        go rest
    | "--seed" :: n :: rest ->
        seed := int_arg n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := float (int_arg n);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | "--cold-campaign" :: j :: rest ->
        cold_campaign := Some (int_arg j);
        go rest
    | "--cold-create" :: j :: rest ->
        cold_create := Some (int_arg j);
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
      { workload; seed = !seed; seconds = !seconds; trace = !trace;
        cold_campaign = !cold_campaign; cold_create = !cold_create }

let child a mode j =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; mode; string_of_int j; "--workload"; a.workload.name;
         "--seed"; string_of_int a.seed |]
  in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  (Unix.close_process_in ic, lines)

(* Each campaign of the unit once more, cold, in a fresh process.
   Sessions and images are memoized per process, so only a new process
   pays what a user pays when a campaign starts, and only its own
   [top_heap_words] is one campaign's heap peak.  Each child prints its
   [Engine.create] seconds, its heap peak in MB and its fingerprint. *)
let cold_campaigns a =
  List.init W.campaigns (fun j ->
      match child a "--cold-campaign" j with
      | Unix.WEXITED 0, create :: heap :: fp :: _ ->
          Some (float_of_string create, float_of_string heap, fp)
      | _ ->
          check (Printf.sprintf "cold campaign %d in a fresh process" j, false);
          None)

(* More cold [Engine.create] times, from processes that stop there.
   [creates_per_repeat] of them run before each repeat of the unit, so the
   samples of [setup_s] span the run and the host's phases in it. *)
let creates_per_repeat = 3
let max_creates = 60

let cold_create_times a ~repeat =
  List.init creates_per_repeat (fun i ->
      let j = ((repeat * creates_per_repeat) + i) mod W.campaigns in
      match child a "--cold-create" j with
      | Unix.WEXITED 0, create :: _ -> Some (float_of_string create)
      | _ ->
          check (Printf.sprintf "cold create of campaign %d in a fresh process" j, false);
          None)
  |> List.filter_map Fun.id

let timed_create a j =
  let cfg = W.config a.workload ~seed:a.seed j in
  let t0 = now () in
  let e = Embsan_fuzz.Campaign.Engine.create cfg in
  (cfg, e, now () -. t0)

(* Child mode: one campaign from a cold start, untimed except for
   [Engine.create]. *)
let cold_campaign a j =
  let module Engine = Embsan_fuzz.Campaign.Engine in
  let cfg, e, create_s = timed_create a j in
  while not (Engine.finished e) do
    Engine.step e
  done;
  let heap_words = (Gc.quick_stat ()).top_heap_words in
  Printf.printf "%.9f\n%.6f\n%s\n" create_s
    (float (heap_words * (Sys.word_size / 8)) /. 1048576.)
    (W.fingerprint cfg (Engine.result e))

(* ---- the untraced run: end-to-end metrics ----------------------------- *)

(* After two repeats of the whole unit, only the campaigns whose step time
   is at most this many times the median campaign's are repeated.  A
   campaign with budget-exhausting hangs takes up to 50 times longer;
   repeating it would spend most of a run on campaigns that are not the
   median, and leave the others with fewer repeats. *)
let heavy_factor = 2.

let end_to_end a =
  let cold = cold_campaigns a in
  let creates = ref [] in
  let fastest = Hashtbl.create W.campaigns in
  let step_s (c : W.campaign) =
    W.sum (Hashtbl.find fastest c.cfg.seed)
  in
  (* repeats until the next one would end past [seconds]; at least two of
     the whole unit, so every fingerprint is compared.  The first repeat
     is kept whole for the count metrics; each repeat starts from a
     compacted heap. *)
  let t0 = now () in
  let first = ref [] in
  let rec repeats n ~last only fp0 =
    let elapsed = now () -. t0 in
    if n >= 2 && elapsed +. last > a.seconds then n
    else begin
      let r0 = now () in
      if List.length !creates < max_creates then
        creates := cold_create_times a ~repeat:n @ !creates;
      Gc.compact ();
      let unit = run_unit ~only a.workload ~seed:a.seed in
      let fp = gate_repeat a.workload ~first:fp0 ~redetect:(fp0 = None) unit in
      if fp0 = None then first := unit;
      W.fold_fastest fastest unit;
      Printf.printf "repeat %d: %d campaigns, %.1f execs/s (median of campaigns)\n%!"
        (n + 1) (List.length unit)
        (Stats.median_l (List.map W.execs_per_s unit));
      let only =
        if n + 1 < 2 then only
        else
          let limit = heavy_factor *. Stats.median_l (List.map step_s !first) in
          List.init W.campaigns Fun.id
          |> List.filter (fun j ->
                 match Hashtbl.find_opt fastest (W.config a.workload ~seed:a.seed j).seed with
                 | Some f -> W.sum f <= limit
                 | None -> false)
      in
      repeats (n + 1) ~last:(now () -. r0) only (Some (Option.value fp0 ~default:fp))
    end
  in
  let n_repeats = repeats 0 ~last:0. (List.init W.campaigns Fun.id) None in
  let first = !first in
  (* per campaign of the unit, then the median over the campaigns *)
  let per_campaign_rate f =
    Stats.median_l (List.map (fun c -> f c /. step_s c) first)
  in
  (* Latency quantiles per campaign, then the median over the campaigns,
     like the rates: how many campaigns have hangs depends on the seed, and
     their steps moved a quantile over the pooled steps by up to 80%
     between seeds.  p98 is the highest percentile of a campaign's 500
     steps with 10 samples beyond it. *)
  let latency p =
    List.filter_map
      (fun (c : W.campaign) ->
        Stats.quantile ~beyond:10 (Array.map (fun dt -> dt *. 1e6) (Hashtbl.find fastest c.cfg.seed)) p)
      first
    |> function [] -> None | l -> Some (Stats.median_l l)
  in
  (* the same seed gives the same trajectory in another process *)
  List.iteri
    (fun j cold ->
      match (cold, List.nth_opt first j) with
      | Some (_, _, fp), Some (c : W.campaign) ->
          check
            ( Printf.sprintf "campaign %d: fresh process follows the same trajectory" j,
              fp = W.fingerprint c.cfg c.result )
      | _ -> ())
    cold;
  let cold = List.filter_map Fun.id cold in
  let per_campaign f = Stats.median_l (List.map f first) in
  let per_campaign_mean f = Stats.mean (Array.of_list (List.map f first)) in
  let confirmed (c : W.campaign) =
    List.length (List.filter (fun (f : Embsan_fuzz.Campaign.found) -> f.f_confirmed) c.result.r_found)
  in
  let first_bug (c : W.campaign) =
    match W.by_exec c.result with
    | f :: _ -> float f.f_exec
    | [] -> float (W.execs + 1)
  in
  let samples =
    Printf.sprintf "(median of %d campaigns of %d steps, each at its fastest of up to %d repeats)"
      (List.length first) W.execs n_repeats
  in
  let ms =
    [
      metric "execs_per_s" "1/s"
        (per_campaign_rate (fun c -> float (Array.length c.steps)))
        ~note:(Printf.sprintf "(median of %d campaigns)" (List.length first));
      metric "exec_p50_us" "us" (Option.get (latency 0.5)) ~note:samples;
      metric "guest_minsns_per_s" "Minsn/s"
        (per_campaign_rate (fun c -> float c.result.r_insns /. 1e6));
      metric "setup_s" "s"
        (Stats.median_l (List.map (fun (s, _, _) -> s) cold @ !creates))
        ~note:(Printf.sprintf "(median of %d cold processes)"
                 (List.length cold + List.length !creates));
      metric "heap_peak_mb" "MB"
        (Stats.median_l (List.map (fun (_, h, _) -> h) cold))
        ~note:(Printf.sprintf "(median of %d cold processes)" (List.length cold));
      metric "insns_per_exec" "insn"
        (per_campaign (fun c -> float c.result.r_insns /. float c.result.r_execs));
      metric "coverage" "count" (per_campaign_mean (fun c -> float c.result.r_coverage));
      metric "bugs_confirmed" "count" (per_campaign_mean (fun c -> float (confirmed c)));
    ]
  in
  (* reported, but not gated: see README.md *)
  let extra =
    (match latency 0.98 with
    | Some p98 -> [ metric "exec_p98_us" "us" p98 ~note:samples ]
    | None -> [])
    @ [
        metric "execs_to_first_bug" "execs" (per_campaign first_bug);
        metric "bugs_unconfirmed" "count"
          (per_campaign_mean (fun c -> float (List.length c.result.r_found - confirmed c)));
        metric "failed_op_share" "share" (float !failed /. float (max 1 !attempted));
      ]
  in
  Printf.printf "workload %s seed %d: %d campaigns x %d execs, %d repeats\n"
    a.workload.name a.seed W.campaigns W.execs n_repeats;
  print_metrics (ms @ extra);
  ms

let () =
  let a = parse () in
  match a.cold_campaign with
  | Some j -> cold_campaign a j
  | None when a.cold_create <> None ->
      let _, _, create_s = timed_create a (Option.get a.cold_create) in
      Printf.printf "%.9f\n" create_s
  | None ->
      let ms =
        if a.trace then Layers.run a.workload ~seed:a.seed ~seconds:a.seconds
        else end_to_end a
      in
      json_result ms;
      exit (if !failed = 0 then 0 else 1)
