(* Host-speed reference.  On a shared host the program's step times
   drift by tens of percent over minutes as other tenants load the
   memory system; CPU time does not remove that.  A fixed kernel that
   reads a 2 MiB array at random slows down with the host in the same
   way, so the benchmark times it next to every measured region and
   reports each time scaled to a host where the kernel takes
   [reference_s].  The kernel runs after the program's own work has
   cycled the caches, as the program's next step does; it shares no code
   with the program, so a change to the program does not move it. *)

let reference_s = 1e-3

let data = Array.init (1 lsl 18) float_of_int

(* CPU seconds of one pass. *)
let kernel () =
  let n = Array.length data in
  let t0 = Tracer.now () in
  let x = ref 0 and s = ref 0. in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land (n - 1);
    s := !s +. Float.sqrt (Array.unsafe_get data !x)
  done;
  ignore (Sys.opaque_identity !s);
  Tracer.now () -. t0
