(* deep-buffer: one server under square-wave bursts. Mean load is below
   one and peak load above it, so every cycle the buffer climbs to a
   few hundred queries and drains again before the next burst. Every
   pick and every dispatch re-plans and rebuilds an SLA-tree over that
   buffer, so the scheduler and the tree dominate. Burst geometry is
   fixed in virtual ms, independent of run length. *)

let period = 30_000.
let duty = 0.25
let low = 0.3
let high = 2.6

(* One warm-up cycle's worth of arrivals, then about three cycles. *)
let warmup_id = 1_300
let n_queries = warmup_id + 4_000
let rate = 1.0 /. Workloads.nominal_mean_ms Workloads.Exp
let planner = Planner.cbs ~rate

let gen ~seed =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.0
      ~servers:1 ~n_queries ~seed ()
  in
  Bursty.generate cfg (Bursty.square ~period ~duty ~low ~high)

let build ~seed:_ tracer _qs =
  let pick = Schedulers.pick (Schedulers.cbs_sla_tree ~rate) in
  let dispatch = Dispatchers.instantiate (Dispatchers.sla_tree planner) in
  let metrics = Metrics.create ~warmup_id () in
  let session =
    match tracer with
    | None -> Sim.session ~n_servers:1 ~pick_next:pick ~dispatch ~metrics ()
    | Some tr ->
      Sim.session ~n_servers:1
        ~on_server_event:(Tracer.count_event tr)
        ~pick_next:(Tracer.pick tr pick)
        ~dispatch:(Tracer.dispatch tr dispatch)
        ~metrics ()
  in
  {
    Inproc.session;
    metrics;
    close = (fun () -> { Inproc.rent = 0.; reoffers = 0; layer = [] });
  }

let workload =
  {
    Inproc.name = "deep-buffer";
    n_queries;
    warmup_id;
    gen;
    build;
    planner;
    dispatch_core = true;
    nominal_pass_s = 2.5;
    spans_per_query = 4;
  }
