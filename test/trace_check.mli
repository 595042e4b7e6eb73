(** The trace contract of docs/OBSERVABILITY.md, checked on the lines of
    one JSON-lines trace: line 1 is the manifest (with [schema] 1 and a
    [version] string), every later line is a [span_begin] / [span_end] /
    [point] event whose [seq] increases by 1 from 1, spans are balanced,
    and every event's [depth] equals the number of spans open at that
    point.  Shared by [validate_bench trace] and the in-process traces of
    [test_obs]. *)

val check : string list -> (int, string) result
(** [check lines] is [Ok events] (the number of lines after the
    manifest) or [Error msg] describing the first violation, prefixed
    with its 1-based line number when it has one. *)
