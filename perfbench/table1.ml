(* The paper's Section 5 experiment as a benchmark step: one seeded
   network (n = 100, 1500 x 1500, R = 500) evaluated under all nine
   Table 1 rows, then the all-ops 5pi/6 connectivity check against G_R —
   the work of one [bench/main.exe table1] trial.  [Pipeline.run_oracle]
   is [of_discovery (Geo.run ...)], so the step calls the two halves
   itself to time discovery and op1-op3 apart. *)

let c56 = Cbtc.Config.make Geom.Angle.five_pi_six

let c23 = Cbtc.Config.make Geom.Angle.two_pi_three

(* [None] is the max-power row (no topology control). *)
let rows =
  let open Cbtc.Pipeline in
  [
    ("basic, a=5pi/6", Some (basic c56));
    ("basic, a=2pi/3", Some (basic c23));
    ("op1 (shrink), a=5pi/6", Some (with_shrink c56));
    ("op1 (shrink), a=2pi/3", Some (with_shrink c23));
    ("op1+op2 (asym), a=2pi/3", Some (shrink_asym c23));
    ("op2 only (asym), a=2pi/3", Some { (basic c23) with asym = true });
    ("all ops, a=5pi/6", Some (all_ops c56));
    ("all ops, a=2pi/3", Some (all_ops c23));
    ("max power (no TC)", None);
  ]

type network = { pathloss : Radio.Pathloss.t; positions : Geom.Vec2.t array }

let network seed =
  let sc = Workload.Scenario.paper ~seed in
  {
    pathloss = Workload.Scenario.pathloss sc;
    positions = Workload.Scenario.positions sc;
  }

(* Network seeds are drawn from the workload seed, so one workload seed
   names the whole input set. *)
let networks ~seed ~count =
  let prng = Prng.create ~seed in
  Array.init count (fun _ -> network (Prng.int prng (1 lsl 30)))

type layers = {
  geo_run : Tracer.layer;
  of_discovery : Tracer.layer;
  max_power : Tracer.layer;
  preserves : Tracer.layer;
  guarantees : Tracer.layer;
}

let layers tr =
  {
    geo_run = Tracer.layer tr "geo.run";
    of_discovery = Tracer.layer tr "pipeline.of_discovery";
    max_power = Tracer.layer tr "proximity.max_power";
    preserves = Tracer.layer tr "connectivity.preserves";
    guarantees = Tracer.layer tr "verify.guarantees";
  }

type result = {
  values : (float * float) array;  (** (degree, radius) per row of {!rows} *)
  connected : bool;  (** all ops at 5pi/6 preserves G_R's partition *)
  basic : Cbtc.Discovery.t list;  (** the two basic discoveries *)
}

let step tr l net =
  let pl = net.pathloss and pos = net.positions in
  let max_power () =
    Tracer.span tr l.max_power (fun () -> Baselines.Proximity.max_power pl pos)
  in
  let build (plan : Cbtc.Pipeline.plan) =
    let d = Tracer.span tr l.geo_run (fun () -> Cbtc.Geo.run plan.config pl pos) in
    Tracer.span tr l.of_discovery (fun () -> Cbtc.Pipeline.of_discovery d plan)
  in
  let gr = max_power () in
  let built =
    List.map
      (fun (_, plan) ->
        match plan with
        | Some plan ->
            let r = build plan in
            ((Cbtc.Pipeline.avg_degree r, Cbtc.Pipeline.avg_radius r), Some r)
        | None ->
            ( ( Metrics.Topo_metrics.avg_degree (max_power ()),
                Radio.Pathloss.max_range pl ),
              None ))
      rows
  in
  let all56 = build (Cbtc.Pipeline.all_ops c56) in
  let connected =
    Tracer.span tr l.preserves (fun () ->
        Metrics.Connectivity.preserves ~reference:gr all56.graph)
  in
  let basic =
    match built with
    | (_, Some b56) :: (_, Some b23) :: _ ->
        [ b56.Cbtc.Pipeline.discovery; b23.Cbtc.Pipeline.discovery ]
    | _ -> assert false
  in
  { values = Array.of_list (List.map fst built); connected; basic }

(* The paper's guarantees, recomputed from positions: completeness, no
   alpha-gap at non-boundary nodes, boundary nodes at maximum power, and
   minimal converged power.  Quadratic in n, which is cheap at n = 100. *)
let verify tr l d =
  Tracer.span tr l.guarantees (fun () ->
      match Cbtc.Verify.run ~complete:true ~minimal:true d with
      | () -> Ok ()
      | exception Failure m -> Error m)

(* The shape the paper's Table 1 shows, on the run's mean degrees: each
   optimization stage lowers the degree, 5pi/6 beats 2pi/3 on the basic
   algorithm, and max power has the highest degree. *)
let shape_holds (means : float array) =
  let d i = means.(i) in
  d 0 > d 2 && d 2 > d 6
  && d 1 > d 3 && d 3 > d 4 && d 4 > d 7
  && d 1 > d 5
  && d 1 > d 0
  && d 8 > d 1
