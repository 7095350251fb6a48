(* Chaos engineering on a simulated farm (beyond the paper): drive
   scripted crashes and brownouts into a live run and watch what they
   cost, in exactly the paper's profit terms.

   A crash kills the running query and orphans the victim's buffer;
   orphans re-enter the dispatcher as retries that keep their original
   arrival time, so their SLA clocks have been bleeding the whole
   time — a crash never resets a deadline. A brownout halves a
   server's service rate; the speed-aware dispatcher routes around it
   while LWL-style backlog counting would keep feeding it raw sizes.

   Run with: dune exec examples/chaos.exe *)

let n_servers = 4
let n_queries = 4_000
let load = 0.9
let seed = 2718

let workload () =
  Trace.generate
    (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load
       ~servers:n_servers ~n_queries ~seed ())

(* One full run of the FCFS SLA-tree pipeline under a fault plan;
   the injector rides the simulator's [timers] hook. *)
let run ~plan =
  let queries = workload () in
  let injector = Fault.create ~plan () in
  let metrics = Metrics.create ~warmup_id:(n_queries / 5) () in
  Sim.run
    ~timers:(Fault.timers injector)
    ~on_server_event:(Fault.on_server_event injector)
    ~queries ~n_servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
    ~dispatch:(Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs))
    ~metrics ();
  Fault.finalize injector metrics;
  (metrics, Fault.stats injector)

let () =
  let mu = Workloads.nominal_mean_ms Workloads.Exp in
  let horizon = Float.of_int n_queries *. mu /. (load *. Float.of_int n_servers) in

  (* Fair weather first: the baseline every storm is scored against. *)
  let base, _ = run ~plan:[] in
  Fmt.pr "Fair weather: profit $%.0f over %d queries on %d servers.@.@."
    (Metrics.total_profit base) n_queries n_servers;

  (* A hand-written storm. Times are fractions of the arrival span:
     server 2 browns out early and is repaired; server 0 crashes at
     mid-run and stays down for 10%% of the horizon. *)
  let storm =
    Fault.scripted
      [
        Fault.Degrade { at = 0.25 *. horizon; sid = 2; factor = 0.5 };
        Fault.Restore { at = 0.45 *. horizon; sid = 2 };
        Fault.Crash { at = 0.5 *. horizon; sid = 0 };
        Fault.Restore { at = 0.6 *. horizon; sid = 0 };
      ]
  in
  Fmt.pr "A scripted storm:@.";
  List.iter (fun e -> Fmt.pr "  %a@." Fault.pp_event e) storm;
  let m, s = run ~plan:storm in
  let drop = Metrics.total_profit base -. Metrics.total_profit m in
  Fmt.pr
    "=> profit $%.0f (the storm cost $%.0f, %.1f%% of fair weather)@.   %a@."
    (Metrics.total_profit m) drop
    (100.0 *. drop /. Metrics.total_profit base)
    Fault.pp_stats s;
  (match s.Fault.recoveries with
  | (at, ttr) :: _ ->
    Fmt.pr
      "   the crash at t=%.0f took %.0f ms of catch-up before the pool's \
       backlog was back to its pre-crash level@."
      at ttr
  | [] -> ());

  (* The same spec the CLI takes: a seeded random storm drawn from the
     MTTF/MTTR model. Workload and storm use independent random
     streams, so the queries are identical to the runs above. *)
  Fmt.pr "@.A random severe storm (--faults severe:7):@.";
  let plan = Fault.plan_of_spec "severe:7" ~horizon ~n_servers in
  let m, s = run ~plan in
  Fmt.pr "=> profit $%.0f (%.1f%% below fair weather), %d lost to crashes@.   %a@."
    (Metrics.total_profit m)
    (100.0 *. (Metrics.total_profit base -. Metrics.total_profit m)
    /. Metrics.total_profit base)
    (Metrics.lost_count m) Fault.pp_stats s
