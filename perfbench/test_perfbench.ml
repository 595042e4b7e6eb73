(* The benchmark measures the shipped code: its table1 step returns what
   [Pipeline.run_oracle] returns, and its daemon loop converges to what
   [Daemon.Driver.run] reports on the same stream.  Its counters repeat
   exactly at a seed, and its metric names match BENCHMARK.json. *)

open Perfbench

let table1_fidelity () =
  let tr = Tracer.create () in
  let l = Table1.layers tr in
  List.iter
    (fun seed ->
      let net = Table1.network seed in
      let r = Table1.step tr l net in
      List.iteri
        (fun k (label, plan) ->
          let expect =
            match plan with
            | Some plan ->
                let o = Cbtc.Pipeline.run_oracle net.pathloss net.positions plan in
                (Cbtc.Pipeline.avg_degree o, Cbtc.Pipeline.avg_radius o)
            | None ->
                ( Metrics.Topo_metrics.avg_degree
                    (Baselines.Proximity.max_power net.pathloss net.positions),
                  Radio.Pathloss.max_range net.pathloss )
          in
          Alcotest.(check (pair (float 0.) (float 0.)))
            (Printf.sprintf "seed %d, %s" seed label)
            expect r.values.(k))
        Table1.rows;
      let all56 =
        Cbtc.Pipeline.run_oracle net.pathloss net.positions
          (Cbtc.Pipeline.all_ops Table1.c56)
      in
      Alcotest.(check bool)
        "all-ops connectivity" r.connected
        (Metrics.Connectivity.preserves
           ~reference:(Baselines.Proximity.max_power net.pathloss net.positions)
           all56.graph))
    [ 1; 2; 3; 42 ]

(* Small streams of each daemon workload's shape, at the same density. *)
let small_shapes =
  [
    ("stream", { Stream.stream_30k with n = 600 }, 40);
    ("churn", { Stream.churn_10k with n = 500 }, 30);
  ]

let daemon_fidelity () =
  List.iter
    (fun (label, shape, epochs) ->
      let seed = 7 in
      let o = Run.stream shape ~seed ~steps:epochs ~trace:false in
      let d = Option.get o.daemon in
      let stream, params, pathloss = Stream.make shape ~seed ~epochs in
      let r =
        Parallel.Pool.with_pool ~jobs:1 (fun pool ->
            Daemon.Driver.run ~pool ~params ~config:Stream.config ~pathloss stream)
      in
      let check_int what = Alcotest.(check int) (label ^ ": " ^ what) in
      let es = Daemon.Engine.stats d.state.engine in
      let qs = Daemon.Equeue.stats d.state.queue in
      Alcotest.(check string)
        (label ^ ": topology digest") r.topology_digest
        (Daemon.Engine.digest d.state.engine);
      check_int "epochs" r.epochs o.steps;
      check_int "events" r.engine.events es.events;
      check_int "moves" r.engine.moves es.moves;
      check_int "joins" r.engine.joins es.joins;
      check_int "leaves" r.engine.leaves es.leaves;
      check_int "commits" r.engine.commits es.commits;
      check_int "regrown" r.engine.regrown es.regrown;
      check_int "full recomputes" r.engine.full_recomputes es.full_recomputes;
      check_int "pushed" r.queue.pushed qs.pushed;
      check_int "shed" r.queue.shed qs.shed;
      check_int "verify checks" r.verify_checks d.checks;
      check_int "degraded checks" r.degraded_checks d.degraded;
      Alcotest.(check (list string))
        (label ^ ": verify failures") r.verify_failures
        (match d.final.guarantees with Ok () -> [] | Error m -> [ m ]);
      Alcotest.(check bool)
        (label ^ ": final degradation") true
        (r.final_degradation = d.final.degradation);
      if String.equal label "churn" then
        Alcotest.(check bool) (label ^ ": churn happened") true (es.joins > 0 && es.leaves > 0);
      check_int "benchmark failures" 0 o.failed)
    small_shapes

(* Allocation counts repeat only from the same heap state, which a
   fresh process gives and a second run in one process does not: each
   run is made in a child process that prints its counters. *)
let small_runs =
  List.concat_map
    (fun trace ->
      ( Printf.sprintf "table1-%b" trace,
        fun () -> Run.table1 ~seed:3 ~steps:40 ~trace )
      :: List.map
           (fun (label, shape, epochs) ->
             ( Printf.sprintf "%s-%b" label trace,
               fun () -> Run.stream shape ~seed:3 ~steps:epochs ~trace ))
           small_shapes)
    [ false; true ]

let print_counters name =
  let o = (List.assoc name small_runs) () in
  List.iter (fun (k, v) -> Printf.printf "%s=%s\n" k v) o.Run.counters

let child_counters name =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--counters"; name |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.fail ("child run failed: " ^ name)

let determinism () =
  List.iter
    (fun (name, _) ->
      let a = child_counters name in
      Alcotest.(check string) name a (child_counters name))
    small_runs

(* The names a run reports are the names BENCHMARK.json declares. *)
let names_match_benchmark_json () =
  let json =
    Obs.Jsonl.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
  in
  let declared key =
    match Obs.Jsonl.member key json with
    | Some (Obs.Jsonl.List l) ->
        List.map
          (fun m ->
            match (Obs.Jsonl.member "name" m, Obs.Jsonl.member "unit" m) with
            | Some (Obs.Jsonl.Str n), Some (Obs.Jsonl.Str u) -> (n, u)
            | _ -> Alcotest.fail "metric without name or unit")
          l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let reported ms = List.map (fun (m : Run.metric) -> (m.name, m.unit_)) ms in
  let sort = List.sort compare in
  let t1 = Run.table1 ~seed:1 ~steps:20 ~trace:true in
  let _, churn, _ = List.nth small_shapes 1 in
  let st = Run.stream churn ~seed:1 ~steps:20 ~trace:true in
  List.iter
    (fun (label, o) ->
      Alcotest.(check (list (pair string string)))
        (label ^ ": end_to_end") (sort (declared "end_to_end")) (sort (reported o.Run.end_to_end));
      Alcotest.(check (list (pair string string)))
        (label ^ ": per_layer") (sort (declared "per_layer")) (sort (reported o.per_layer)))
    [ ("table1", t1); ("daemon", st) ]

let () =
  match Sys.argv with
  | [| _; "--counters"; name |] -> print_counters name
  | _ ->
  Alcotest.run "perfbench"
    [
      ( "fidelity",
        [
          Alcotest.test_case "table1 step = run_oracle" `Quick table1_fidelity;
          Alcotest.test_case "daemon loop = Driver.run" `Quick daemon_fidelity;
        ] );
      ("determinism", [ Alcotest.test_case "counters repeat" `Quick determinism ]);
      ("names", [ Alcotest.test_case "BENCHMARK.json" `Quick names_match_benchmark_json ]);
    ]
