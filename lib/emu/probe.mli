(** Patchable instrumentation probe sites (EmbSan's core mechanism, paper
    section 3.3, Icicle-style "instrumentation without recompilation").

    Translated blocks compile in per-kind sites that consult the
    subscriber arrays at run time; the arrays are the shared site table,
    so subscribing/unsubscribing is an O(1) array swap observed by all
    already-translated code -- no translation-cache flush, no epoch.

    Subscribers live in arrays in registration order; a site's armed
    check is one array-length load, and [fire_*] has a dedicated
    single-subscriber fast path (the common one-sanitizer case).
    Subscribers take the event as unboxed labelled arguments, so
    delivering an event allocates nothing; a subscriber that wants a
    record builds its own. *)

(** A memory access, fired before it happens.  [value] is the value being
    written (stores, AMOs) and 0 for loads; [is_atomic] marks AMO
    instructions. *)
type mem_fn =
  hart:int ->
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  value:int ->
  unit

(** A call, fired after the transfer: [pc] is the call instruction,
    [target] the callee. *)
type call_fn = hart:int -> pc:int -> target:int -> unit

(** A return, fired after the transfer: [pc] is the return instruction,
    [target] the return address, [retval] the callee's a0. *)
type ret_fn = hart:int -> pc:int -> target:int -> retval:int -> unit

(** A block about to run at [pc]. *)
type block_fn = hart:int -> pc:int -> unit

type t = {
  mutable mem : mem_fn array;
  mutable calls : call_fn array;
  mutable rets : ret_fn array;
  mutable blocks : block_fn array;
}

(** Subscription handle for {!unsubscribe}. *)
type sub

val create : unit -> t

(** [subscribe_*] append a subscriber (fire order = registration order)
    and return a handle; O(1) site patch, zero flushes. *)

val subscribe_mem : t -> mem_fn -> sub
val subscribe_call : t -> call_fn -> sub
val subscribe_ret : t -> ret_fn -> sub
val subscribe_block : t -> block_fn -> sub

(** Remove exactly the subscriber the handle added; idempotent, O(1)
    patch, zero flushes.  A no-op on an already-dead handle. *)
val unsubscribe : sub -> unit

(** [on_*]: handle-free subscription for callers that never detach. *)

val on_mem : t -> mem_fn -> unit
val on_call : t -> call_fn -> unit
val on_ret : t -> ret_fn -> unit
val on_block : t -> block_fn -> unit

(** Unsubscribe everything (also an O(1) site patch). *)
val clear : t -> unit

val has_mem : t -> bool
val has_calls : t -> bool
val has_rets : t -> bool
val has_blocks : t -> bool

val fire_mem : t -> mem_fn
val fire_call : t -> call_fn
val fire_ret : t -> ret_fn
val fire_block : t -> block_fn
