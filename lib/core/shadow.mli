(** Unified host-side shadow memory (paper section 3.3): one byte of KASAN
    state per 8-byte granule of guest RAM using the kernel encoding, shared
    by every sanitizer functionality (KCSAN and ftrace use its guest-RAM
    bounds). *)

type code =
  | Addressable
  | Partial of int  (** first [k] bytes of the granule are addressable *)
  | Heap_redzone
  | Stack_redzone
  | Global_redzone
  | Freed

(** Smart constructor for [Partial]: raises [Invalid_argument] unless
    [k] is in 1..7 (0 is a redzone's business, 8 is [Addressable]). *)
val partial : int -> code

(** Raises [Invalid_argument] on [Partial k] with [k] outside 1..7 — the
    encoding would otherwise alias to a different code and break the
    [code_of_byte] round-trip. *)
val byte_of_code : code -> int

(** Inverse of {!byte_of_code}; raises [Invalid_argument] on unknown bytes. *)
val code_of_byte : int -> code

val code_name : code -> string

type t = {
  base : int;
  limit : int;
  kasan : Bytes.t;
}

val granule : int

val create : ram_base:int -> ram_size:int -> t

(** Is [addr] inside the shadowed guest RAM? *)
val covers : t -> int -> bool

(** Shadow state of the granule containing [addr]. *)
val get : t -> int -> code

(** Poison [addr, addr+size) with [code]; granule-rounded outward on the
    tail like the kernel implementation. *)
val poison : t -> addr:int -> size:int -> code -> unit

(** Mark [addr, addr+size) addressable; a non-multiple-of-8 tail becomes a
    partial granule. *)
val unpoison : t -> addr:int -> size:int -> unit

type verdict = Valid | Invalid of code

(** Validate an access of [size] (1/2/4) bytes at [addr]; accesses outside
    guest RAM are [Valid] (MMIO and fault logic own them). *)
val check : t -> addr:int -> size:int -> verdict

(** Is an access of [size] (1..8) bytes at [addr] inside guest RAM with
    every granule it touches 0?  [false] for any other size.  Allocation-
    and exception-free: the runtime's inline quiet test. *)
val clear : t -> addr:int -> size:int -> bool

(** Snapshot of the shadow (deep copy); a saved [state] is immune
    to later mutation of the live shadow and survives repeated restores. *)
type state

val save : t -> state
val restore : t -> state -> unit
