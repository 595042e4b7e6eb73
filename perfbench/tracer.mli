(** Clocked span recorder for the benchmark's traced runs.

    Spans are taken in the benchmark's own code, around calls into each
    layer's public functions; the program under test is not
    instrumented.  Spans live in preallocated unboxed arrays until
    {!write} dumps them at the end of the run, so recording one costs
    two clock reads and a few array stores.  While {!enabled} is
    false, {!span} is a plain call. *)

type t

(** A registered layer name. *)
type layer

val create : unit -> t

(** [layer t name] registers [name] (idempotent). *)
val layer : t -> string -> layer

(** Recording switch; off after {!create}. *)
val set_enabled : t -> bool -> unit

val enabled : t -> bool

(** Step id stamped on the spans that follow ([-1] outside the loop). *)
val set_step : t -> int -> unit

(** [span t l f] runs [f ()]; when recording, inside a span of layer
    [l] whose parent is the innermost open span. *)
val span : t -> layer -> (unit -> 'a) -> 'a

(** Total seconds spent inside spans of the layer. *)
val busy_s : t -> layer -> float

(** Number of recorded spans of the layer. *)
val calls : t -> layer -> int

(** Number of recorded spans. *)
val length : t -> int

(** [write t path] writes one JSON object per span, in start order:
    [name], [start] and [end] ({!now} seconds since {!create}), [parent]
    (index of the enclosing span, [-1] at top level) and [step]. *)
val write : t -> string -> unit

(** Processor time of this process (user + system), in seconds: on the
    benchmark's single-threaded loop, wall time less the time the host
    gives to other tenants. *)
val now : unit -> float
