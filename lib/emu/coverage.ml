(* Basic-block coverage collection.

   Two collection paths mirror the paper's fuzzers:
   - [attach_tcg]: OS-agnostic coverage from translator block probes, the
     Tardis mechanism (works on any firmware, including closed-source);
   - [attach_kcov]: kernel-assisted coverage where the *guest* reports
     covered PCs through a kcov-style hypercall, the Syzkaller mechanism
     (requires guest support compiled in).

   Triage costs O(edges touched), not O(bitmap): [record] appends an
   edge's index to [touched] when its byte goes 0 -> 1, so [signature]
   sorts and buckets only those k indices (a two-pass radix sort on the
   16-bit indices, O(k)) and [reset_edges] zeroes only their bytes.  An
   exec touches a few hundred of the 65536 edges; scanning the whole
   bitmap after every exec used to cost about as much as the sanitized
   replay itself.

   Signature indices live below 65536 (the bitmap size); {!Cmplog}
   compare features are emitted at [Cmplog.feature_base] and above, so a
   campaign can append them to the same signature without collision. *)

type t = {
  bitmap : Bytes.t; (* 64 KiB edge bitmap, AFL-style *)
  mutable touched : int array; (* indices of the non-zero bytes *)
  mutable sort_buf : int array; (* radix-sort buffer, as long as [touched] *)
  mutable n_touched : int;
  digits : int array; (* radix-sort counters, one per byte value + 1 *)
  last_loc : int array; (* per-hart previous location *)
  mutable blocks_seen : int;
}

let bitmap_size = 1 lsl 16

let create ~harts =
  {
    bitmap = Bytes.make bitmap_size '\000';
    touched = Array.make 1024 0;
    sort_buf = Array.make 1024 0;
    n_touched = 0;
    digits = Array.make 257 0;
    last_loc = Array.make harts 0;
    blocks_seen = 0;
  }

let mix pc = (pc lsr 3) * 0x9E3779B1 land 0xFFFF_FFFF

let touch t idx =
  if t.n_touched = Array.length t.touched then begin
    let grown = Array.make (2 * t.n_touched) 0 in
    Array.blit t.touched 0 grown 0 t.n_touched;
    t.touched <- grown;
    t.sort_buf <- Array.make (2 * t.n_touched) 0
  end;
  t.touched.(t.n_touched) <- idx;
  t.n_touched <- t.n_touched + 1

let record t ~hart ~pc =
  let loc = mix pc land (bitmap_size - 1) in
  let prev = if hart >= 0 && hart < Array.length t.last_loc then t.last_loc.(hart) else 0 in
  let idx = (loc lxor prev) land (bitmap_size - 1) in
  let v = Bytes.get_uint8 t.bitmap idx in
  if v = 0 then touch t idx;
  if v < 255 then Bytes.set_uint8 t.bitmap idx (v + 1);
  if hart >= 0 && hart < Array.length t.last_loc then t.last_loc.(hart) <- loc lsr 1;
  t.blocks_seen <- t.blocks_seen + 1

let attach_tcg t (m : Machine.t) =
  Probe.on_block m.probes (fun ~hart ~pc -> record t ~hart ~pc)

(** Hypercall number reserved for guest kcov reporting. *)
let kcov_trap = 9

let attach_kcov t (m : Machine.t) =
  Machine.set_trap_handler m kcov_trap (fun _m cpu ->
      record t ~hart:cpu.Cpu.id ~pc:(Cpu.get cpu Embsan_isa.Reg.a0))

let reset_edges t =
  for i = 0 to t.n_touched - 1 do
    Bytes.set_uint8 t.bitmap t.touched.(i) 0
  done;
  t.n_touched <- 0;
  Array.fill t.last_loc 0 (Array.length t.last_loc) 0;
  t.blocks_seen <- 0

let bucket v =
  if v = 1 then 1
  else if v = 2 then 2
  else if v = 3 then 3
  else if v <= 7 then 4
  else if v <= 15 then 5
  else if v <= 31 then 6
  else if v <= 127 then 7
  else 8

(* One stable counting pass of an LSD radix sort: the first [n] keys of
   [src] into [dst], ordered by their byte at [shift]. *)
let radix_pass digits ~shift src dst n =
  Array.fill digits 0 257 0;
  for i = 0 to n - 1 do
    let d = (src.(i) lsr shift) land 255 in
    digits.(d + 1) <- digits.(d + 1) + 1
  done;
  for d = 1 to 256 do
    digits.(d) <- digits.(d) + digits.(d - 1)
  done;
  for i = 0 to n - 1 do
    let x = src.(i) in
    let d = (x lsr shift) land 255 in
    dst.(digits.(d)) <- x;
    digits.(d) <- digits.(d) + 1
  done

(** Indices of non-zero edges in ascending order, bucketed AFL-style into
    hit-count classes. *)
let signature t =
  let n = t.n_touched in
  radix_pass t.digits ~shift:0 t.touched t.sort_buf n;
  radix_pass t.digits ~shift:8 t.sort_buf t.touched n;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    let i = t.touched.(j) in
    acc := (i, bucket (Bytes.get_uint8 t.bitmap i)) :: !acc
  done;
  !acc

let edge_count t = t.n_touched
let blocks_seen t = t.blocks_seen
let hit_count t idx = Bytes.get_uint8 t.bitmap idx
