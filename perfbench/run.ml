(* One benchmark run: set up (several times, keeping the median), run a
   closed loop of steps at -j 1 (each step starts when the previous one
   ends), verify the outputs, and collect the end-to-end metrics and,
   on a traced run, the per-layer ones.

   A traced run records spans in alternating blocks of [block] steps
   and leaves the blocks between them untraced, so the same run yields
   the tracing overhead (untraced minus traced throughput) and
   allocation counts free of the tracer's own allocations. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  raw : float;  (** [value] before scaling to the reference host speed *)
}

type outcome = {
  steps : int;
  attempted : int;
  failed : int;
  failures : string list;  (** the violations, for the log *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  counters : (string * string) list;
      (** exact counts, identical for every run at a seed *)
  tracer : Tracer.t;
  daemon : daemon option;  (** the daemon workloads' final state *)
}

and daemon = {
  state : Stream.t;
  checks : int;  (** verification passes, the final one counted once *)
  degraded : int;  (** passes that saw degradation *)
  final : Stream.check;
}

let block = 10

let traced_step ~trace i = trace && i / block mod 2 = 0

let setup_reps = 7

(* Verification passes of a stream the driver verifies only at its end:
   [verify_reps - 1] spread over the loop, then the final one. *)
let verify_reps = 9

(* Nearest-rank percentile. *)
let percentile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let len = Array.length s in
  let r = int_of_float (Float.ceil (q /. 100. *. float_of_int len)) in
  s.(max 0 (min (len - 1) (r - 1)))

let median a = percentile a 50.

(* The [count - 1] steps after which a repetition runs, evenly spaced
   through the loop; the last one runs after it.  A slow spell on a
   shared host lasts seconds, so repetitions taken back to back can all
   land in one; spread over the loop they see the host the steps see. *)
let spread_points ~count ~steps =
  List.init (count - 1) (fun k -> ((k + 1) * steps / count) - 1)

(* Per-step records of the loop.  [speed.(i)] is the kernel time just
   before step [i] ([speed.(steps)] after the last step). *)
type loop = {
  times : float array;
  units : int array;
  traced : bool array;
  alloc : float array;
  speed : float array;
  mutable majors : int;
}

(* [loop_run tr ~trace ~post steps f] runs [f i] for each step [i];
   [f] returns the units of work (networks, events) the step completed.
   [post i] runs after step [i], outside its timing. *)
let loop_run tr ~trace ?(post = ignore) steps f =
  let lp =
    {
      times = Array.make steps 0.;
      units = Array.make steps 0;
      traced = Array.init steps (fun i -> traced_step ~trace i);
      alloc = Array.make steps 0.;
      speed = Array.make (steps + 1) 0.;
      majors = 0;
    }
  in
  let step = Tracer.layer tr "step" in
  let majors0 = (Gc.quick_stat ()).major_collections in
  for i = 0 to steps - 1 do
    lp.speed.(i) <- Speed.kernel ();
    Tracer.set_enabled tr lp.traced.(i);
    Tracer.set_step tr i;
    let a0 = Gc.allocated_bytes () in
    let t0 = Tracer.now () in
    let units = Tracer.span tr step (fun () -> f i) in
    lp.times.(i) <- Tracer.now () -. t0;
    lp.alloc.(i) <- Gc.allocated_bytes () -. a0;
    lp.units.(i) <- units;
    post i
  done;
  lp.speed.(steps) <- Speed.kernel ();
  lp.majors <- (Gc.quick_stat ()).major_collections - majors0;
  Tracer.set_enabled tr trace;
  Tracer.set_step tr (-1);
  lp

(* The factor that scales a time taken next to step [i] (or after the
   loop, [i] = steps) to the reference host speed: the reference over
   the median kernel time of the five probes around it, so one
   disturbed probe does not skew it. *)
let factor lp i =
  let n = Array.length lp.speed in
  let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
  Speed.reference_s /. median (Array.sub lp.speed lo (hi - lo + 1))

let scaled_times lp = Array.mapi (fun i t -> t *. factor lp i) lp.times

(* Timed verification passes, each with the step it ran next to. *)
type reps = (int * float) list ref

let timed (reps : reps) ~at f =
  let t0 = Tracer.now () in
  let r = f () in
  reps := (at, Tracer.now () -. t0) :: !reps;
  r

let reps_raw (reps : reps) = Array.of_list (List.map snd !reps)

let reps_scaled lp (reps : reps) =
  Array.of_list (List.map (fun (i, t) -> t *. factor lp i) !reps)

(* Host speed over the whole loop, for the per-layer busy times. *)
let loop_speed lp = median lp.speed

let scale t ~speed = t *. Speed.reference_s /. speed

let peak_rss_mb () =
  match Obs.Rss.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

let m ?raw name value unit_ samples =
  { name; value; unit_; samples; raw = Option.value raw ~default:value }

let ratio a b = if b = 0. then 0. else a /. b

(* Sum of [f i] over the steps whose traced flag satisfies [pick]. *)
let sum_where lp pick f =
  let acc = ref 0. in
  Array.iteri (fun i traced -> if pick traced then acc := !acc +. f i) lp.traced;
  !acc

let units lp pick = sum_where lp pick (fun i -> float_of_int lp.units.(i))

let throughput lp times pick = ratio (units lp pick) (sum_where lp pick (Array.get times))

let plain traced = not traced

(* Allocation comes from the untraced steps, free of the tracer's own. *)
let alloc_bytes_per_event lp =
  ratio (sum_where lp plain (Array.get lp.alloc)) (units lp plain)

(* A timed quantity as reported: scaled value, raw value, samples. *)
type timing = { scaled : float; unscaled : float; count : int }

let summarize stat lp reps =
  {
    scaled = stat (reps_scaled lp reps);
    unscaled = stat (reps_raw reps);
    count = List.length !reps;
  }

let median_of = summarize median

let sum_of = summarize (Array.fold_left ( +. ) 0.)

let end_to_end lp ~setup ~verify ~peak_mb =
  let steps = Array.length lp.times in
  let scaled = scaled_times lp in
  let all _ = true in
  let timing name t = m name t.scaled "s" t.count ~raw:t.unscaled in
  [
    timing "setup_s" setup;
    m "throughput_per_s" (throughput lp scaled all) "1/s" steps
      ~raw:(throughput lp lp.times all);
    m "step_p50_ms" (1000. *. percentile scaled 50.) "ms" steps
      ~raw:(1000. *. percentile lp.times 50.);
    m "step_p95_ms" (1000. *. percentile scaled 95.) "ms" steps
      ~raw:(1000. *. percentile lp.times 95.);
    timing "verify_s" verify;
    m "peak_rss_mb" peak_mb "MB" 1;
  ]

let loop_layer lp =
  let events = units lp plain in
  let bytes = sum_where lp plain (Array.get lp.alloc) in
  let steps = sum_where lp plain (fun _ -> 1.) in
  let scaled = scaled_times lp in
  [
    m "alloc_bytes_per_event" (alloc_bytes_per_event lp) "B/event" (int_of_float events);
    m "alloc_mb_per_step" (ratio (bytes /. 1048576.) steps) "MB/step" (int_of_float steps);
    m "gc.major_collections" (float_of_int lp.majors) "count" 1;
    m "trace.overhead_per_s"
      (throughput lp scaled plain -. throughput lp scaled Fun.id)
      "1/s" (Array.length lp.times)
      ~raw:(throughput lp lp.times plain -. throughput lp lp.times Fun.id);
  ]

(* Every per-layer metric, on every workload: a layer a workload does
   not run reads 0, which is the prediction for it. *)
let layer_busy =
  [
    "geo.run";
    "pipeline.of_discovery";
    "proximity.max_power";
    "connectivity.preserves";
    "engine.create";
    "drain";
    "engine.apply";
    "engine.commit";
    "verify";
    "verify.engine_views";
    "verify.guarantees";
    "verify.max_power_graph";
    "verify.connectivity";
  ]

let busy_metrics tr ~speed =
  List.map
    (fun name ->
      let l = Tracer.layer tr name in
      let raw = 1000. *. Tracer.busy_s tr l in
      m (name ^ ".busy_ms") (scale raw ~speed) "ms" (Tracer.calls tr l) ~raw)
    layer_busy

(* Counters, by name and unit; the workload supplies (value, samples). *)
let layer_counts =
  [
    ("geo.run.nodes", "count");
    ("queue.peak", "count");
    ("queue.shed", "count");
    ("engine.apply.moves", "count");
    ("engine.apply.joins", "count");
    ("engine.apply.leaves", "count");
    ("engine.commit.regrown_per_event", "1/event");
    ("engine.commit.full_recomputes", "count");
    ("engine.commit.power_changed_share", "ratio");
    ("grid.drifted", "count");
    ("grid.overflow", "count");
    ("grid.compactions", "count");
  ]

let per_layer tr lp counts =
  busy_metrics tr ~speed:(loop_speed lp)
  @ List.map
      (fun (name, unit_) ->
        match List.assoc_opt name counts with
        | Some (v, samples) -> m name v unit_ samples
        | None -> m name 0. unit_ 0)
      layer_counts
  @ loop_layer lp

let digest_floats a =
  let buf = Buffer.create (24 * Array.length a) in
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h;" x)) a;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)

(* Setup runs [count] times before the loop, each from a compacted
   heap as at the start of the process, and keeps the last result.
   Repetitions taken inside the loop would each pay the collector for
   the run's live state.  Each repetition is scaled by the kernel probe
   taken right before it: the host's speed differs between processes by
   up to 1.8x, and the loop's probes, taken later on a larger heap,
   track the setup's share of that worse than its own.  Reports the
   median scaled and the median raw repetition. *)
let setup_reps_run count f =
  let raw = Array.make count 0. and scaled = Array.make count 0. in
  let last = ref None in
  for i = 0 to count - 1 do
    Gc.compact ();
    let speed = Speed.kernel () in
    let t0 = Tracer.now () in
    last := Some (f ());
    raw.(i) <- Tracer.now () -. t0;
    scaled.(i) <- scale raw.(i) ~speed
  done;
  ( { scaled = median scaled; unscaled = median raw; count },
    Option.get !last )

(* A verification pass the driver would not make at that point runs
   from a compacted heap and leaves one behind, so every such pass
   starts from the same state and its garbage does not slow the steps
   after it. *)
let verify_apart reps ~at f =
  Gc.compact ();
  let r = timed reps ~at f in
  Gc.compact ();
  r

(* [table1]'s setup costs about 2 ms, so it takes more repetitions. *)
let table1_setup_reps = 31

let table1 ~seed ~steps ~trace =
  let tr = Tracer.create () in
  let l = Table1.layers tr in
  let verify = ref [] in
  let setup, nets =
    setup_reps_run table1_setup_reps (fun () -> Table1.networks ~seed ~count:steps)
  in
  let nrows = List.length Table1.rows in
  let sums = Array.make nrows 0. in
  let values = Array.make (steps * nrows * 2) 0. in
  let failures = ref [] in
  let failed = Array.make steps false in
  let fail i msg =
    failed.(i) <- true;
    failures := Printf.sprintf "network %d: %s" i msg :: !failures
  in
  let basic = ref [] in
  let verify_layer = Tracer.layer tr "verify" in
  (* every network's two basic discoveries are verified after its step *)
  let post i =
    timed verify ~at:i (fun () ->
        Tracer.span tr verify_layer (fun () ->
            List.iter
              (fun d -> match Table1.verify tr l d with Ok () -> () | Error msg -> fail i msg)
              !basic))
  in
  Gc.compact ();
  let lp =
    loop_run tr ~trace ~post steps (fun i ->
      let r = Table1.step tr l nets.(i) in
      Array.iteri
        (fun k (deg, rad) ->
          sums.(k) <- sums.(k) +. deg;
          values.((2 * ((i * nrows) + k))) <- deg;
          values.((2 * ((i * nrows) + k)) + 1) <- rad)
        r.values;
      if not r.connected then fail i "all ops at 5pi/6 disconnects G_R";
      basic := r.basic;
      1)
  in
  let peak_mb = peak_rss_mb () in
  let means = Array.map (fun s -> s /. float_of_int steps) sums in
  let shape_ok = Table1.shape_holds means in
  if not shape_ok then failures := "Table 1 shape does not hold" :: !failures;
  let nets_failed = Array.fold_left (fun k b -> if b then k + 1 else k) 0 failed in
  let geo = Tracer.layer tr "geo.run" in
  {
    steps;
    attempted = steps + 1;
    failed = nets_failed + (if shape_ok then 0 else 1);
    failures = List.rev !failures;
    end_to_end =
      end_to_end lp ~setup ~verify:(sum_of lp verify) ~peak_mb;
    per_layer =
      (if trace then
         per_layer tr lp
           [
             ( "geo.run.nodes",
               (float_of_int (100 * Tracer.calls tr geo), Tracer.calls tr geo) );
           ]
       else []);
    counters =
      [
        ("events", string_of_int steps);
        ("alloc_bytes_per_event", Printf.sprintf "%.0f" (alloc_bytes_per_event lp));
        ("digest", digest_floats values);
      ];
    tracer = tr;
    daemon = None;
  }

(* ------------------------------------------------------------------ *)

let stream shape ~seed ~steps ~trace =
  let tr = Tracer.create () in
  let l = Stream.layers tr in
  let create = Tracer.layer tr "engine.create" in
  Tracer.set_enabled tr trace;
  let stream, params, pathloss = Stream.make shape ~seed ~epochs:steps in
  let steps = Stream.epochs params in
  let pool = Parallel.Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  let setup, st =
    setup_reps_run setup_reps (fun () ->
        Tracer.span tr create (fun () -> Stream.setup ~pool stream params pathloss))
  in
  let verify = ref [] in
  (* A stream the driver verifies only at its end gets passes at evenly
     spaced epochs as well, outside the step times, so [verify_s] is a
     median over the run like the step times. *)
  let extra_verify =
    if params.verify_every > 0 then [] else spread_points ~count:verify_reps ~steps
  in
  let n = Daemon.Engine.nb_nodes st.engine in
  let failures = ref [] in
  let checks = ref 0 and extra_checks = ref 0 and checks_failed = ref 0 and degraded = ref 0 in
  let record ?(driver = true) where (c : Stream.check) =
    if driver then begin
      incr checks;
      if Daemon.Driver.degraded c.degradation then incr degraded
    end
    else incr extra_checks;
    if not (Stream.check_ok c) then begin
      incr checks_failed;
      let d = c.degradation in
      failures :=
        Printf.sprintf "%s: guarantees %s, drift %d, liveness lag %d, connectivity %b"
          where
          (match c.guarantees with Ok () -> "ok" | Error m -> m)
          d.drift d.liveness_lag d.connectivity_preserved
        :: !failures
    end
  in
  let post ep =
    if List.mem ep extra_verify then
      record ~driver:false
        (Printf.sprintf "epoch %d (extra)" (ep + 1))
        (verify_apart verify ~at:ep (fun () -> Stream.verify tr l st))
  in
  let before = Array.make n 0. in
  let regrown_traced = ref 0 and changed = ref 0 in
  Gc.compact ();
  let lp =
    loop_run tr ~trace ~post steps (fun ep ->
      let applied = Stream.drain_apply tr l st ep in
      let traced = Tracer.enabled tr in
      if traced then
        for u = 0 to n - 1 do
          before.(u) <- Daemon.Engine.power st.engine u
        done;
      (match Stream.commit tr l st with
      | `Clean -> ()
      | `Incremental k | `Full k ->
          if traced then begin
            regrown_traced := !regrown_traced + k;
            for u = 0 to n - 1 do
              if Daemon.Engine.power st.engine u <> before.(u) then incr changed
            done
          end);
      if Stream.verify_due st ep then
        record
          (Printf.sprintf "epoch %d" (ep + 1))
          (timed verify ~at:ep (fun () -> Stream.verify tr l st));
      applied)
  in
  let final = verify_apart verify ~at:steps (fun () -> Stream.verify tr l st) in
  record "final" final;
  let peak_mb = peak_rss_mb () in
  (* outside every timed region: the tracked state must equal a
     from-scratch recompute, float-exactly *)
  let equivalent = Daemon.Engine.check_full_equivalence ~pool st.engine in
  (match equivalent with
  | Ok () -> ()
  | Error msg -> failures := ("full equivalence: " ^ msg) :: !failures);
  let es = Daemon.Engine.stats st.engine in
  let qs = Daemon.Equeue.stats st.queue in
  let grid = Daemon.Engine.grid_health st.engine in
  let per_event = ratio (float_of_int es.regrown) (float_of_int es.events) in
  {
    steps;
    attempted = qs.pushed + !checks + !extra_checks + 1;
    failed = qs.shed + !checks_failed + (if Result.is_ok equivalent then 0 else 1);
    failures =
      List.rev !failures
      @ (if qs.shed > 0 then [ Printf.sprintf "%d events shed" qs.shed ] else []);
    end_to_end =
      end_to_end lp ~setup ~verify:(median_of lp verify) ~peak_mb;
    per_layer =
      (if trace then
         let count v = (float_of_int v, 1) in
         per_layer tr lp
           [
             ("queue.peak", count qs.peak);
             ("queue.shed", count qs.shed);
             ("engine.apply.moves", count es.moves);
             ("engine.apply.joins", count es.joins);
             ("engine.apply.leaves", count es.leaves);
             ("engine.commit.regrown_per_event", (per_event, es.events));
             ("engine.commit.full_recomputes", count es.full_recomputes);
             ( "engine.commit.power_changed_share",
               (ratio (float_of_int !changed) (float_of_int !regrown_traced), !regrown_traced) );
             ("grid.drifted", count grid.drifted);
             ("grid.overflow", count grid.overflow);
             ("grid.compactions", count grid.compactions);
           ]
       else []);
    counters =
      [
        ("events", string_of_int es.events);
        ("regrown", string_of_int es.regrown);
        ("regrown_per_event", Printf.sprintf "%.6f" per_event);
        ("alloc_bytes_per_event", Printf.sprintf "%.0f" (alloc_bytes_per_event lp));
        ("digest", Daemon.Engine.digest st.engine);
      ];
    tracer = tr;
    daemon = Some { state = st; checks = !checks; degraded = !degraded; final };
  }
