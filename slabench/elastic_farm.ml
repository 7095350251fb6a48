(* elastic-farm: a wide pool under diurnal load. The predictive
   autoscaler moves the pool between a floor and a ceiling set high
   enough that buffers stay shallow, while a seeded fault plan crashes
   and browns out servers and retries the orphans. Work goes to the
   O(servers) dispatch probes, the event loop under pool changes, the
   controller tick and the fault hooks; SLA-trees stay tiny, so tree
   work shows no change here. The day, tick interval and failure model
   are fixed in virtual ms, independent of run length. *)

(* Load is sized for [base_servers]; the pool starts near the size the
   controller settles at, so the warm-up day is not a cold ramp. *)
let base_servers = 24
let initial_pool = 48
let period = 20_000.
let interval = period /. 24.
let cycles = 12
let horizon = period *. Float.of_int cycles

(* Rent: a quarter of what a saturated Exp/SLA-B server earns per ms. *)
let cost_rate = 0.0225

let config =
  Elastic.config ~interval ~cost_per_interval:(cost_rate *. interval)
    ~boot_delay:(interval /. 2.) ~cooldown:(2. *. interval) ~min_servers:8
    ~max_servers:64 ()

(* One warm-up day (the forecaster's first season), then ten days. *)
let warmup_id = 23_000
let n_queries = warmup_id + 230_000

let gen ~seed =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.0
      ~servers:base_servers ~n_queries ~seed ()
  in
  Bursty.generate cfg (Bursty.diurnal ~period ~low:0.3 ~high:1.6 ())

(* Crashes and brownouts in equal parts, about one per server per day,
   repaired within a tick or two. *)
let fault_plan ~seed =
  Fault.random_plan ~degrade_prob:0.5 ~degrade_factor:0.5 ~seed:(seed + 7919)
    ~horizon ~n_servers:base_servers ~mttf:period ~mttr:(1.5 *. interval) ()

let build ~seed tracer (_qs : Query.t array) =
  let ctl =
    Elastic.create config (Elastic.predictive ()) ~initial_servers:initial_pool
  in
  let inj = Fault.create ~plan:(fault_plan ~seed) () in
  let pick = Schedulers.pick Schedulers.fcfs_sla_tree in
  let dispatch =
    Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs)
  in
  let metrics = Metrics.create ~warmup_id () in
  let last_event = ref 0. in
  (* a draining server hands its buffer back to the dispatcher *)
  let sim = ref None and redistributed = ref 0 in
  let opt w f = Tracer.opt w tracer f in
  let fault_hook = opt Tracer.fault_hook (Fault.on_server_event inj) in
  let count =
    match tracer with
    | Some tr -> Tracer.count_event tr
    | None -> fun ~sid:_ ~now:_ _ -> ()
  in
  let on_server_event ~sid ~now ev =
    if now > !last_event then last_event := now;
    (match (ev, !sim) with
    | Sim.Draining, Some t ->
      redistributed :=
        !redistributed + Sim.buffer_length (Sim.server t sid)
    | _ -> ());
    Elastic.on_server_event ctl ~sid ~now ev;
    fault_hook ~sid ~now ev;
    count ~sid ~now ev
  in
  let session =
    Sim.session ~n_servers:initial_pool ~on_server_event
      ~on_dispatch:(opt Tracer.observe (Elastic.on_dispatch ctl))
      ~ticker:(interval, opt Tracer.ticker (Elastic.tick ctl))
      ~timers:(opt Tracer.timers (Fault.timers inj))
      ~pick_next:(opt Tracer.pick pick)
      ~dispatch:(opt Tracer.dispatch dispatch)
      ~metrics ()
  in
  sim := Some (Sim.sim session);
  let close () =
    Elastic.finalize ctl ~now:!last_event;
    Fault.finalize inj metrics;
    let s = Elastic.summary ctl and f = Fault.stats inj in
    let measured = Float.of_int (n_queries - warmup_id) in
    {
      Inproc.rent = s.Elastic.cost;
      reoffers = f.Fault.retries + !redistributed;
      layer =
        [
          ("elastic.ticks", Float.of_int s.decisions);
          ("elastic.scale_actions", Float.of_int (s.scale_ups + s.scale_downs));
          ("elastic.pool_mean", s.server_time /. !last_event);
          ("elastic.rent_per_query", s.cost /. measured);
          ("fault.crashes", Float.of_int f.crashes);
          ("fault.reinjected", Float.of_int f.retries);
          ("fault.lost", Float.of_int f.lost);
        ];
    }
  in
  { Inproc.session; metrics; close }

let workload =
  {
    Inproc.name = "elastic-farm";
    n_queries;
    warmup_id;
    gen;
    build;
    planner = Planner.fcfs;
    dispatch_core = false;
    nominal_pass_s = 1.5;
    spans_per_query = 8;
  }
