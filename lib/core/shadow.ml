(* Unified host-side shadow memory (S3.3).

   One byte of KASAN state per 8-byte granule of guest RAM, using the kernel
   encoding, behind the guest-RAM bounds every sanitizer functionality
   shares: KASAN validates accesses against it, KCSAN only watches
   addresses it covers, ftrace sizes its own planes from its bounds.  One
   structure shared by all of them is the paper's "unified shadow memory
   that records information for multiple sanitizer functionalities". *)

type code =
  | Addressable
  | Partial of int (* first k bytes of the granule are addressable *)
  | Heap_redzone
  | Stack_redzone
  | Global_redzone
  | Freed

(* A [Partial k] granule is only meaningful for k in 1..7: k = 0 would be
   fully poisoned (a redzone byte says which kind) and k = 8 is
   [Addressable].  The old [k land 7] silently aliased out-of-range
   constructions — [Partial 8] encoded as [Addressable] and survived a
   round-trip as a different code — so out-of-range is rejected loudly
   instead. *)
let partial k =
  if k >= 1 && k <= 7 then Partial k
  else invalid_arg (Printf.sprintf "Shadow.partial %d (want 1..7)" k)

let byte_of_code = function
  | Addressable -> 0x00
  | Partial k ->
      if k >= 1 && k <= 7 then k
      else invalid_arg (Printf.sprintf "Shadow.byte_of_code: Partial %d (want 1..7)" k)
  | Heap_redzone -> 0xF1
  | Stack_redzone -> 0xF3
  | Global_redzone -> 0xF9
  | Freed -> 0xFB

let code_of_byte = function
  | 0x00 -> Addressable
  | k when k >= 1 && k <= 7 -> Partial k
  | 0xF1 -> Heap_redzone
  | 0xF3 -> Stack_redzone
  | 0xF9 -> Global_redzone
  | 0xFB -> Freed
  | b -> invalid_arg (Printf.sprintf "Shadow.code_of_byte 0x%x" b)

let code_name = function
  | Addressable -> "addressable"
  | Partial k -> Printf.sprintf "partial(%d)" k
  | Heap_redzone -> "heap-redzone"
  | Stack_redzone -> "stack-redzone"
  | Global_redzone -> "global-redzone"
  | Freed -> "freed"

type t = {
  base : int; (* guest RAM base *)
  limit : int;
  kasan : Bytes.t; (* one byte per granule *)
}

let granule = 8

let create ~ram_base ~ram_size =
  let granules = (ram_size + granule - 1) / granule in
  {
    base = ram_base;
    limit = ram_base + ram_size;
    kasan = Bytes.make granules '\000';
  }

let covers t addr = addr >= t.base && addr < t.limit
let index t addr = (addr - t.base) / granule

let get t addr = code_of_byte (Bytes.get_uint8 t.kasan (index t addr))

let set_raw t addr byte = Bytes.set_uint8 t.kasan (index t addr) byte

(** Poison [addr, addr+size) with [code]; granule-rounded outward on the
    tail like the kernel implementation. *)
let poison t ~addr ~size code =
  if size > 0 && covers t addr then begin
    let b = byte_of_code code in
    let first = index t addr in
    let last = index t (min (addr + size - 1) (t.limit - 1)) in
    Bytes.fill t.kasan first (last - first + 1) (Char.chr b)
  end

(** Mark [addr, addr+size) addressable; a non-multiple-of-8 tail becomes a
    partial granule. *)
let unpoison t ~addr ~size =
  if size > 0 && covers t addr then begin
    let full = size / granule in
    let first = index t addr in
    Bytes.fill t.kasan first full '\000';
    let tail = size mod granule in
    if tail <> 0 then set_raw t (addr + (full * granule)) tail
  end

type verdict = Valid | Invalid of code

(** Validate an access of [size] (1/2/4) bytes at [addr].  Accesses outside
    guest RAM are not the shadow's business (MMIO and fault logic handle
    them), and neither is the part of an access past the end of RAM: the
    machine faults it. *)
let check t ~addr ~size =
  if not (covers t addr) then Valid
  else begin
    let last = min (addr + size - 1) (t.limit - 1) in
    let sh = Bytes.get_uint8 t.kasan (index t last) in
    if sh = 0 then
      (* fast path: access may still start in a different, poisoned granule *)
      if index t addr = index t last then Valid
      else begin
        let sh0 = Bytes.get_uint8 t.kasan (index t addr) in
        if sh0 = 0 then Valid else Invalid (code_of_byte sh0)
      end
    else if sh < 8 then
      if last land (granule - 1) < sh then Valid else Invalid (Partial sh)
    else Invalid (code_of_byte sh)
  end

(** Is the access of [size] (1..8) bytes at [addr] inside guest RAM, with
    every granule it touches 0?  An access of at most one granule touches
    at most two, its first and its last.  The inline quiet test of the
    runtime: no allocation, no exception. *)
let clear t ~addr ~size =
  size >= 1 && size <= granule && addr >= t.base && addr + size <= t.limit
  (* [lsr 3] is [index] for the addresses the bounds check let through *)
  && Bytes.unsafe_get t.kasan ((addr - t.base) lsr 3) = '\000'
  && Bytes.unsafe_get t.kasan ((addr + size - 1 - t.base) lsr 3) = '\000'

(* --- Snapshot support --------------------------------------------------------- *)

type state = { s_kasan : Bytes.t }

(** Deep copy of the shadow for the snapshot service. *)
let save t = { s_kasan = Bytes.copy t.kasan }

let restore t (s : state) =
  if Bytes.length s.s_kasan <> Bytes.length t.kasan then
    invalid_arg "Shadow.restore: size mismatch";
  Bytes.blit s.s_kasan 0 t.kasan 0 (Bytes.length t.kasan)
