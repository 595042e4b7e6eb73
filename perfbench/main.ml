(* The benchmark command: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run performs a fixed number of steps: [S] times the workload's
   reference rate (the steps per second it ran at when the benchmark was
   defined, on a 2-vCPU x86-64 host), at least 200.  One seed therefore
   always does the same work and its counters repeat exactly.  It prints
   one line per metric (value, unit, the value before scaling to the
   reference host speed, sample count), the exact counters and the host
   record, then a JSON summary as the last line.  With [--trace 1] the
   summary holds the per-layer metrics and the spans are written to
   perfbench/out/.  Exit status: 0 when every output checked is correct,
   1 on any violation (the summary is still printed), 2 on bad usage. *)

type workload = {
  name : string;
  rate : float;  (** reference steps per second *)
  run : seed:int -> steps:int -> trace:bool -> Perfbench.Run.outcome;
}

let workloads =
  let open Perfbench in
  [
    { name = "table1"; rate = 29.; run = Run.table1 };
    { name = "stream_30k"; rate = 52.; run = Run.stream Stream.stream_30k };
    { name = "churn_10k"; rate = 4.2; run = Run.stream Stream.churn_10k };
  ]

(* p95 must leave at least ten steps beyond it. *)
let min_steps = 200

let out_dir = Filename.concat "perfbench" "out"

let usage () =
  prerr_endline
    "usage: main.exe --workload (table1|stream_30k|churn_10k) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) kv
  then usage ();
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "seed", seconds, trace = 1)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let () =
  let w, seed, seconds, trace = parse_args () in
  let steps = max min_steps (int_of_float (Float.round (float_of_int seconds *. w.rate))) in
  let host = Perfbench.Host.start () in
  let o = w.run ~seed ~steps ~trace in
  let host = Perfbench.Host.finish host ~jobs:1 in
  Printf.printf "perfbench %s: seed %d, %d steps, closed loop at -j 1%s\n"
    w.name seed o.steps
    (if trace then ", traced" else "");
  let metrics = if trace then o.per_layer else o.end_to_end in
  List.iter
    (fun (m : Perfbench.Run.metric) ->
      Printf.printf "  %-36s %14.6g %-8s raw %14.6g  samples %d\n" m.name m.value
        m.unit_ m.raw m.samples)
    metrics;
  Printf.printf "counters: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) o.counters));
  Printf.printf "host: %s\n" (Obs.Jsonl.to_string host);
  List.iter (fun f -> Printf.printf "violation: %s\n" f) o.failures;
  ensure_dir out_dir;
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.name seed (Bool.to_int trace) in
  write_file
    (Filename.concat out_dir (stem ^ ".host.json"))
    (Obs.Jsonl.to_string host ^ "\n");
  if trace then begin
    let path = Filename.concat out_dir (stem ^ ".spans.jsonl") in
    Perfbench.Tracer.write o.tracer path;
    Printf.printf "spans: %d written to %s\n" (Perfbench.Tracer.length o.tracer) path
  end;
  let summary =
    Obs.Jsonl.(
      Obj
        [
          ("correct", Bool (o.failed = 0));
          ("attempted", Int o.attempted);
          ("failed", Int o.failed);
          ( "metrics",
            Obj
              (List.map
                 (fun (m : Perfbench.Run.metric) ->
                   (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit_) ]))
                 metrics) );
        ])
  in
  print_endline (Obs.Jsonl.to_string summary);
  exit (if o.failed = 0 then 0 else 1)
