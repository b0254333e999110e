(** Basic-block coverage collection with the two paths the paper's fuzzers
    use: OS-agnostic translated-block probes (Tardis) and guest-assisted
    kcov hypercalls (Syzkaller).  A 64 KiB AFL-style edge bitmap with an
    index of the edges touched since the last reset, so triage costs
    O(edges touched) rather than O(bitmap). *)

type t

val bitmap_size : int
val create : harts:int -> t

(** Count one block at [pc] on [hart]; a hart outside [0, harts) records
    with no previous location and leaves the per-hart state alone. *)
val record : t -> hart:int -> pc:int -> unit

(** Subscribe to translated-block events (works on any firmware). *)
val attach_tcg : t -> Machine.t -> unit

(** Hypercall number reserved for guest kcov reporting. *)
val kcov_trap : int

(** Install the kcov hypercall handler (requires a kcov-built guest). *)
val attach_kcov : t -> Machine.t -> unit

(** Clear the edges touched since the last reset, the per-hart previous
    locations and the block count. *)
val reset_edges : t -> unit

(** Non-zero edges as (index, hit-count class) in ascending index order,
    bucketed AFL-style into classes 1..8. *)
val signature : t -> (int * int) list

(** Number of non-zero edges (the length of {!signature}). *)
val edge_count : t -> int

(** Blocks recorded since the last reset. *)
val blocks_seen : t -> int

(** The saturating hit count (0..255) of bitmap byte [idx]. *)
val hit_count : t -> int -> int
