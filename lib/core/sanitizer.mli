(** Sanitizer plugin architecture: the typed event vocabulary shared by
    both instrumentation backends, the first-class-module plugin
    interface, and the registry keyed by DSL sanitizer name.  The Common
    Sanitizer Runtime compiles a DSL spec into flat per-interception-point
    arrays of plugin handlers; adding a sanitizer is a module implementing
    {!S} plus an {!Api_spec} header (see {!Ualign}) — no runtime edits. *)

(** Cold-path events.  Access checks are the hot path and dispatch through
    {!access_fn} closures instead, keeping memory events allocation-free. *)
type event =
  | Alloc of { ptr : int; size : int; pc : int; now : int }
      (** an intercepted allocator returned [ptr] ([now] = retired insns) *)
  | Free of { ptr : int; pc : int; hart : int }
  | Poison of { addr : int; size : int; code : Shadow.code }
  | Unpoison of { addr : int; size : int }
  | Register_global of { addr : int; size : int }
  | Stack_poison of { addr : int; size : int }
  | Stack_unpoison of { addr : int; size : int }
  | Ready  (** firmware signalled readiness (after init-routine replay) *)

val event_name : event -> string

(** Hot-path access check: one indirect call per plugin per memory event,
    no allocation. *)
type access_fn =
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  hart:int ->
  unit

(** {2 Quiet tests}

    Most accesses need no callout.  A plugin declares, as data, when that
    is so, and the runtime tests it inline before calling anything.  A
    quiet access must have exactly the effect the runtime reproduces for
    it: the counter bumps and cost charges named here, nothing else.  The
    records are the plugin instance's own state. *)

type tally = { mutable count : int }

type sampler = {
  mutable countdown : int;  (** the sample fires when it reaches 0 *)
  mutable armed : bool;  (** a watch is open: every access must be seen *)
  mutable seen : int;  (** non-atomic accesses seen *)
  cost : int;  (** external cost units charged per non-atomic access *)
}

type quiet =
  | Loud  (** no quiet test: every access runs the plugin's handler *)
  | Shadow_clear of { shadow : Shadow.t; above : int; checks : tally }
      (** quiet when the access lies inside [shadow]'s guest RAM at or
          above [above] and every granule it touches is 0; it bumps
          [checks] *)
  | Sampled of sampler
      (** atomics are quiet and touch nothing; a plain access is quiet
          when not [armed] and [countdown > 1], and it decrements
          [countdown], bumps [seen] and charges [cost] *)

type mode = [ `C | `D ]

(** Everything a plugin may need at creation time.  [shadow] is the
    unified shadow-plane resource shared across plugins; [tuning] carries
    per-plugin knobs (e.g. ["kcsan.interval"]). *)
type ctx = {
  machine : Embsan_emu.Machine.t;
  mode : mode;
  shadow : Shadow.t;
  sink : Report.sink;
  symbolize : int -> string option;
  tuning : (string * int) list;
}

(** [tuned ctx key ~default] looks [key] up in [ctx.tuning]. *)
val tuned : ctx -> string -> default:int -> int

module type S = sig
  val name : string
  (** DSL sanitizer name (registry key). *)

  val points : Api_spec.point list
  (** Interception points this plugin subscribes to. *)

  type t

  val create : ctx -> t

  val access : t -> access_fn
  (** Hot-path handler; evaluated once at plan-compile time.  Only
      meaningful when [points] includes P_load or P_store. *)

  val quiet : t -> quiet
  (** When [access] needs not be called; [Loud] if always.  Evaluated
      once at plan-compile time. *)

  val event : t -> event -> unit
  (** Cold-path handler; plugins ignore events they do not care about. *)

  val scan : t -> now:int -> int
  (** On-demand detector pass (kmemleak-style); returns new reports. *)

  val checkpoint : t -> unit -> unit
  (** Capture mutable state; the returned restore thunk must survive
      repeated invocation. *)

  val stats : t -> (string * int) list
end

type plugin = (module S)

val name : plugin -> string
val supports : plugin -> Api_spec.point -> bool

(** A created plugin instance (existentially packed). *)
type instance

val instantiate : plugin -> ctx -> instance
val instance_name : instance -> string
val instance_points : instance -> Api_spec.point list
val access : instance -> access_fn
val quiet : instance -> quiet
val event : instance -> event -> unit
val scan : instance -> now:int -> int
val checkpoint : instance -> unit -> unit
val stats : instance -> (string * int) list

(** {2 Registry} *)

(** Register (or replace) a plugin under its [S.name]. *)
val register : plugin -> unit

val find : string -> plugin option

(** Registered names, sorted. *)
val registered : unit -> string list
