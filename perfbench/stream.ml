(* The streaming daemon as a benchmark loop.  One step is one epoch of
   [Daemon.Driver.run]: source tick and queue push, then [Engine.apply]
   for every queued event, then [Engine.commit], and every
   [verify_every]-th epoch the driver's verification pass.  The loop
   calls the same public functions in the same order as the driver, so
   it runs the shipped code, not a fork of it (the fidelity test pins
   this against [Driver.run]). *)

type shape = {
  n : int;
  event_dt : float;
  move_rate : float;  (** position reports per unit of stream time *)
  crash : float;  (** crash fraction, each crash recovering later *)
  verify_every : int;  (** epochs between verification passes; 0 = final only *)
}

(* Move-only: 100 events per epoch, where regrow and dirty propagation
   carry the cost. *)
let stream_30k =
  { n = 30_000; event_dt = 0.1; move_rate = 1000.; crash = 0.; verify_every = 0 }

(* The daemon as shipped: 1000-event epochs, 10 % crash churn with
   recovery, verification every 10th epoch (the CLI's default). *)
let churn_10k =
  { n = 10_000; event_dt = 1.; move_rate = 1000.; crash = 0.1; verify_every = 10 }

let config = Cbtc.Config.make Geom.Angle.five_pi_six

(* [epochs] epochs of stream at the constant density of the committed
   daemon capacity study (the paper's 100 nodes per 1500 x 1500); the
   churn window and recovery delay are the study's fractions of the
   stream length. *)
let make shape ~seed ~epochs =
  let duration = float_of_int epochs *. shape.event_dt in
  let side = 1500. *. Float.sqrt (float_of_int shape.n /. 100.) in
  let sc =
    Workload.Scenario.make ~n:shape.n ~width:side ~height:side ~seed ()
  in
  let churn =
    if shape.crash <= 0. then Faults.Plan.empty
    else
      Faults.Plan.random_crashes
        ~prng:(Prng.create ~seed:(seed + 1))
        ~n:shape.n ~fraction:shape.crash
        ~window:(0.1 *. duration, 0.6 *. duration)
        ~recover_after:(0.25 *. duration) ()
  in
  let stream =
    {
      Daemon.Driver.seed;
      field = sc.Workload.Scenario.field;
      mobility = Workload.Mobility.default_params;
      move_rate = shape.move_rate;
      storm = None;
      churn;
      positions = Workload.Scenario.positions sc;
    }
  in
  let params =
    {
      Daemon.Driver.default_params with
      duration;
      event_dt = shape.event_dt;
      verify_every = shape.verify_every;
    }
  in
  (stream, params, Workload.Scenario.pathloss sc)

(* The driver's epoch count and boundaries, spelled as it spells them. *)
let epochs (params : Daemon.Driver.params) =
  Stdlib.max 1
    (int_of_float (Float.ceil (params.duration /. params.event_dt)))

let boundary (params : Daemon.Driver.params) ep =
  Stdlib.min params.duration (float_of_int (ep + 1) *. params.event_dt)

type layers = {
  drain : Tracer.layer;
  apply : Tracer.layer;
  commit : Tracer.layer;
  verify : Tracer.layer;
  engine_views : Tracer.layer;
  guarantees : Tracer.layer;
  max_power_graph : Tracer.layer;
  connectivity : Tracer.layer;
}

let layers tr =
  {
    drain = Tracer.layer tr "drain";
    apply = Tracer.layer tr "engine.apply";
    commit = Tracer.layer tr "engine.commit";
    verify = Tracer.layer tr "verify";
    engine_views = Tracer.layer tr "verify.engine_views";
    guarantees = Tracer.layer tr "verify.guarantees";
    max_power_graph = Tracer.layer tr "verify.max_power_graph";
    connectivity = Tracer.layer tr "verify.connectivity";
  }

type t = {
  params : Daemon.Driver.params;
  pathloss : Radio.Pathloss.t;
  pool : Parallel.Pool.t;
  src : Daemon.Source.t;
  engine : Daemon.Engine.t;
  queue : Daemon.Equeue.t;
}

(* What [Driver.run] does before its first epoch. *)
let setup ~pool (stream : Daemon.Driver.stream) params pathloss =
  let src =
    Daemon.Source.create ~seed:stream.seed ~field:stream.field
      ~params:stream.mobility ~move_rate:stream.move_rate ?storm:stream.storm
      ~churn:stream.churn stream.positions
  in
  let engine =
    Daemon.Engine.create ~pool ~shards:params.Daemon.Driver.shards
      ~watchdog_frac:params.watchdog_frac config pathloss stream.positions
  in
  let queue = Daemon.Equeue.create ~capacity:params.queue_cap in
  { params; pathloss; pool; src; engine; queue }

(* One epoch, split where a traced run samples powers: the source tick
   and queue push, then [Engine.apply] for every queued event (the
   payload is how many), ... *)
let drain_apply tr l t ep =
  let t1 = boundary t.params ep in
  Tracer.span tr l.drain (fun () ->
      List.iter (Daemon.Equeue.push t.queue) (Daemon.Source.tick t.src ~until:t1));
  let budget = if t.params.budget <= 0 then max_int else t.params.budget in
  Tracer.span tr l.apply (fun () ->
      let rec go k =
        if k >= budget then k
        else
          match Daemon.Equeue.pop t.queue with
          | None -> k
          | Some ev ->
              Daemon.Engine.apply t.engine ev;
              go (k + 1)
      in
      go 0)

(* ... then [Engine.commit]. *)
let commit tr l t =
  Tracer.span tr l.commit (fun () -> Daemon.Engine.commit ~pool:t.pool t.engine)

let verify_due t ep =
  t.params.verify_every > 0 && (ep + 1) mod t.params.verify_every = 0

(* Edges of [g] with both endpoints alive, as the driver restricts. *)
let restrict g alive =
  let h = Graphkit.Ugraph.create (Graphkit.Ugraph.nb_nodes g) in
  Graphkit.Ugraph.iter_edges
    (fun u v -> if alive.(u) && alive.(v) then Graphkit.Ugraph.add_edge h u v)
    g;
  h

type check = {
  guarantees : (unit, string) result;
  degradation : Daemon.Driver.degradation;
}

let check_ok c = Result.is_ok c.guarantees && not (Daemon.Driver.degraded c.degradation)

(* The driver's verification pass, built from the public calls it
   makes: the CBTC guarantees on the tracked survivors, drift and
   liveness lag against the stream's ground truth, and connectivity
   preservation against G_R of the true survivors. *)
let verify tr l t =
  Tracer.span tr l.verify (fun () ->
      let e = t.engine in
      let n = Daemon.Engine.nb_nodes e in
      let d = Tracer.span tr l.engine_views (fun () -> Daemon.Engine.discovery e) in
      let guarantees =
        Tracer.span tr l.guarantees (fun () ->
            Cbtc.Verify.check_surviving ~alive:(Array.init n (Daemon.Engine.alive e)) d)
      in
      let truth_pos = Daemon.Source.true_positions t.src in
      let truth_alive = Daemon.Source.true_alive t.src in
      let drift = ref 0 and lag = ref 0 in
      for u = 0 to n - 1 do
        if Daemon.Engine.position e u <> truth_pos.(u) then incr drift;
        if Daemon.Engine.alive e u <> truth_alive.(u) then incr lag
      done;
      let reference =
        Tracer.span tr l.max_power_graph (fun () ->
            restrict (Cbtc.Geo.max_power_graph ~pool:t.pool t.pathloss truth_pos) truth_alive)
      in
      let tracked =
        Tracer.span tr l.engine_views (fun () -> restrict (Daemon.Engine.topology e) truth_alive)
      in
      let connectivity_preserved =
        Tracer.span tr l.connectivity (fun () ->
            Metrics.Connectivity.preserves ~reference tracked)
      in
      {
        guarantees;
        degradation = { drift = !drift; liveness_lag = !lag; connectivity_preserved };
      })
