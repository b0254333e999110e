(** Sanitizer bug reports: structured records, deduplication and
    kernel-style pretty printing. *)

type bug_kind =
  | Oob_access
  | Use_after_free
  | Double_free
  | Invalid_free
  | Null_deref
  | Wild_access
  | Data_race
  | Memory_leak
  | Unaligned_access

val kind_name : bug_kind -> string

type t = {
  kind : bug_kind;
  sanitizer : string;  (** "kasan" | "kcsan" | "kmemleak" *)
  addr : int;
  size : int;
  is_write : bool;
  pc : int;
  hart : int;
  location : string option;  (** symbolized function, when available *)
  detail : string;  (** free-form: allocation info, racing pc, ... *)
}

(** Deduplication key: bug class at a location, like syzbot's crash titles. *)
val dedup_key : t -> string

(** One-line title, e.g. ["KASAN: use-after-free in tc_filter_stats"]. *)
val title : t -> string

(** Kernel-oops-style multi-line rendering. *)
val pp : Format.formatter -> t -> unit

(** A collection sink with duplicate suppression. *)
type sink = {
  mutable reports : t list;
  seen : (string, int) Hashtbl.t;
  mutable limit : int;
}

val create_sink : ?limit:int -> unit -> sink

(** Add a report; returns [true] iff it is a new (non-duplicate) bug. *)
val add : sink -> t -> bool

(** [add_lazy sink r ~detail] is [add sink { r with detail = detail () }],
    but calls [detail] only when [r] is a new bug (the dedup key does not
    depend on the detail). *)
val add_lazy : sink -> t -> detail:(unit -> string) -> bool

(** Unique reports in arrival order. *)
val unique_reports : sink -> t list

(** Number of unique bugs seen. *)
val count : sink -> int

(** Hit count for one dedup key. *)
val hits : sink -> string -> int

(** Total report events including duplicates of already-seen bugs. *)
val total_hits : sink -> int

val clear : sink -> unit

(** Snapshot of the sink (report list plus dedup table): restoring reverts
    both the unique reports and the per-key hit counts. *)
type sink_state

val save_sink : sink -> sink_state
val restore_sink : sink -> sink_state -> unit
