(* Coverage-triaged corpus, AFL-style: a program joins the corpus when its
   execution produced an (edge, hit-bucket) pair never seen before.  When
   schedule fuzzing is on, the schedule seed the program ran under is part
   of the entry: coverage reached only under a particular interleaving is
   replayed and mutated under that interleaving.  Likewise for the rehost
   seed (MMIO response stream + interrupt-injection plan) when the
   model-free rehosting layer is armed. *)

type entry = {
  e_prog : Prog.t;
  e_sched : int option;
  e_rehost : int option;
  e_new_pairs : int;
}

(* One seen-bit per signature pair, keyed by the single int
   [(index lsl 4) lor bucket]: buckets are hit-count classes below 16, so
   the key is injective.  A lookup is one byte load, where a tuple key
   cost a polymorphic hash and compare per pair on every exec.  The
   initial 128 KiB hold every edge pair; {!Embsan_emu.Cmplog} features
   (indices from 2^16) grow the set once. *)
type t = {
  mutable seen : Bytes.t;
  mutable entries : entry list;
  mutable n_entries : int;
  mutable total_pairs : int;
}

let create () =
  {
    seen = Bytes.make (Embsan_emu.Coverage.bitmap_size * 16 / 8) '\000';
    entries = [];
    n_entries = 0;
    total_pairs = 0;
  }

let key (index, bucket) =
  if index < 0 || bucket < 0 || bucket > 15 then
    invalid_arg (Printf.sprintf "Corpus: signature pair (%d, %d)" index bucket);
  (index lsl 4) lor bucket

let mem t k =
  let b = k lsr 3 in
  b < Bytes.length t.seen
  && Bytes.get_uint8 t.seen b land (1 lsl (k land 7)) <> 0

let add t k =
  let b = k lsr 3 in
  let len = Bytes.length t.seen in
  if b >= len then begin
    let grown = Bytes.make (max (b + 1) (2 * len)) '\000' in
    Bytes.blit t.seen 0 grown 0 len;
    t.seen <- grown
  end;
  Bytes.set_uint8 t.seen b (Bytes.get_uint8 t.seen b lor (1 lsl (k land 7)))

(** Record an execution's coverage signature; if it contributed new
    coverage, add the program (with the schedule and rehost seeds it ran
    under) and return [true]. *)
let consider t prog ?sched ?rehost (signature : (int * int) list) =
  let fresh =
    List.filter_map
      (fun pair ->
        let k = key pair in
        if mem t k then None else Some k)
      signature
  in
  if fresh = [] then false
  else begin
    List.iter (add t) fresh;
    let n = List.length fresh in
    t.total_pairs <- t.total_pairs + n;
    t.entries <-
      { e_prog = prog; e_sched = sched; e_rehost = rehost; e_new_pairs = n }
      :: t.entries;
    t.n_entries <- t.n_entries + 1;
    true
  end

let size t = t.n_entries
let coverage t = t.total_pairs

let pick rng t =
  match t.entries with
  | [] -> None
  | es ->
      let e = Rng.pick rng es in
      Some (e.e_prog, e.e_sched, e.e_rehost)

(** All programs, oldest first (the "merged corpus" replayed by the
    overhead experiment). *)
let programs t = List.rev_map (fun e -> e.e_prog) t.entries

(** All entries as (program, schedule seed, rehost seed), oldest first. *)
let inputs t = List.rev_map (fun e -> (e.e_prog, e.e_sched, e.e_rehost)) t.entries
