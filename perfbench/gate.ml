(* The correctness gate's bookkeeping and the benchmark's output: every
   attempted operation (step, boot, check) is counted, and so is every one
   that failed. *)

module W = Workload

let attempted = ref 0
let failed = ref 0

let check (what, ok) =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "FAILED: %s\n%!" what
  end

(* One unit of fixed work, or the campaigns [only] of it.  Its boots and
   steps count as attempted operations; a step that raised counts as
   failed, and a campaign whose boot fails counts as failed and drops
   out. *)
let run_unit ?tr ?(only = List.init W.campaigns Fun.id) (w : W.t) ~seed =
  List.filter_map
    (fun j ->
      match W.run ?tr (W.config w ~seed j) with
      | c ->
          attempted := !attempted + 1 + Array.length c.steps;
          Option.iter (fun e -> check ("step raised " ^ e, false)) c.error;
          Some c
      | exception exn ->
          check (Printf.sprintf "boot of campaign %d (%s)" j (Printexc.to_string exn), false);
          None)
    only

(* Compare each campaign's fingerprint with the one it had in the first
   repeat, keyed by the campaign's seed; returns this repeat's. *)
let gate_repeat w ~first ~redetect unit =
  let fps =
    List.map (fun (c : W.campaign) -> (c.cfg.seed, W.fingerprint c.cfg c.result)) unit
  in
  let text = String.concat "\n" (List.map snd fps) in
  (match first with
  | None -> Printf.printf "fingerprint:\n%s\n%!" text
  | Some f0 ->
      Printf.printf "fingerprint %s\n%!" (Digest.to_hex (Digest.string text));
      check
        ( "fingerprint identical to the first repeat",
          List.for_all (fun (seed, fp) -> List.assoc_opt seed f0 = Some fp) fps ));
  List.iter (fun c -> List.iter check (W.checks w ~redetect c)) unit;
  fps

(* ---- output ---------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") m_name unit_ value = { m_name; value; unit_; note }

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.4f %-8s %s\n" m.m_name m.value m.unit_ m.note)
    ms

let json_result ms =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.value m.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

