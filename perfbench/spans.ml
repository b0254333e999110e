(* In-memory span recorder for the traced run.  A span is one call into a
   layer's public function, timed from the benchmark's side: name, start,
   end and the span that caused it (the innermost span open when it
   started).  Spans stay in memory while the run measures and are written
   out once at the end. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

let create () = { spans = []; next = 1; stack = [] }

(* What the campaign runner calls around each layer call: a no-op when
   untraced. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let off = { span = (fun _ f -> f ()) }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  let s = { id; parent; name; t0 = Unix.gettimeofday (); t1 = nan } in
  t.spans <- s :: t.spans;
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      t.stack <- List.tl t.stack)
    f

let on t = { span = (fun name f -> with_span t name f) }
let count t = t.next - 1

(* Durations in seconds of every finished span called [name]. *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    t.spans
  |> Array.of_list

let total t name = Array.fold_left ( +. ) 0. (durations t name)

(* One JSON object per line, oldest first, times in microseconds from the
   first span's start. *)
let write t path =
  let spans = List.rev t.spans in
  let base = match spans with [] -> 0. | s :: _ -> s.t0 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n"
        s.id s.parent s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6))
    spans;
  close_out oc
