(* Command line driver: regenerate any of the paper's tables and
   figures, or run a small interactive demo of the SLA-tree API. *)

open Cmdliner

let ppf = Format.std_formatter

let scale_arg =
  let doc =
    "Experiment scale: 'paper' (20k queries, 10 repeats), 'default', 'smoke', \
     or a query count. Overrides SLATREE_SCALE."
  in
  Arg.(value & opt (some string) None & info [ "scale" ] ~docv:"SCALE" ~doc)

let resolve_scale = function
  | None -> Exp_scale.from_env ()
  | Some s -> begin
    match Exp_scale.of_string s with
    | Some t -> t
    | None -> `Error |> ignore; Exp_scale.default
  end

(* -j / SLATREE_JOBS. Deliberately prints nothing: report output must
   be byte-identical whatever the worker count (the determinism
   contract, see EXPERIMENTS.md). *)
let jobs_arg =
  let doc =
    "Run independent experiment cells on $(docv) worker domains (default 1 = \
     serial; overrides $(b,SLATREE_JOBS)). Reported numbers are bit-identical \
     to the serial run whatever $(docv) is."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let setup_jobs jobs =
  match Parallel.setup ?jobs () with
  | () -> Ok ()
  | exception Invalid_argument e -> Error e

let print_scale scale =
  Fmt.pf ppf "scale: %s (%d queries, %d warm-up, %d repeats)@."
    (Exp_scale.name scale) scale.Exp_scale.n_queries scale.Exp_scale.warmup
    scale.Exp_scale.repeats

let run_table n scale_opt jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let scale = resolve_scale scale_opt in
  print_scale scale;
  match n with
  | 2 -> `Ok (Table2.run ppf scale)
  | 3 -> `Ok (Table3.run ppf scale)
  | 4 -> `Ok (Table4.run ppf scale)
  | 5 -> `Ok (Table5.run ppf scale)
  | 6 -> `Ok (Table6.run ppf scale)
  | 7 -> `Ok (Table7.run ppf ())
  | _ -> `Error (false, "table number must be in 2..7")

let run_fig n scale_opt data_dir jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let scale = resolve_scale scale_opt in
  let seed = scale.Exp_scale.base_seed in
  let maybe_export f =
    match data_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter (Fmt.pf ppf "wrote %s@.") (f dir)
  in
  match n with
  | 15 ->
    Fig15.run ppf ~seed ();
    maybe_export (fun dir -> Fig15.export ~dir ~seed ());
    `Ok ()
  | 17 ->
    Fig17.run ppf ~seed ();
    maybe_export (fun dir -> [ Fig17.export ~dir ~seed () ]);
    `Ok ()
  | _ -> `Error (false, "figure number must be 15 or 17")

let run_all scale_opt jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let scale = resolve_scale scale_opt in
  print_scale scale;
  Fig15.run ppf ~seed:scale.Exp_scale.base_seed ();
  Table2.run ppf scale;
  Table3.run ppf scale;
  Table4.run ppf scale;
  Table5.run ppf scale;
  Table6.run ppf scale;
  Table7.run ppf ();
  Fig17.run ppf ~seed:scale.Exp_scale.base_seed ();
  `Ok ()

let run_ablation which scale_opt jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let scale = resolve_scale scale_opt in
  print_scale scale;
  match which with
  | "sched" -> `Ok (Ablations.sched_run ppf scale)
  | "dispatch" -> `Ok (Ablations.disp_run ppf scale)
  | "admission" -> `Ok (Ablations.admission_run ppf scale)
  | "predictor" -> `Ok (Ablations.predictor_run ppf scale)
  | "fairness" -> `Ok (Ablations.fairness_run ppf scale)
  | "hetero" -> `Ok (Ablations.hetero_run ppf scale)
  | "drop" -> `Ok (Ablations.drop_run ppf scale)
  | "optimality" ->
    `Ok (Ablations.optimality_run ppf ~seed:scale.Exp_scale.base_seed ())
  | "all" -> `Ok (Ablations.run_all ppf scale)
  | s ->
    `Error
      ( false,
        Printf.sprintf
          "unknown ablation %S (expected \
           sched|dispatch|admission|predictor|fairness|hetero|drop|optimality|all)"
          s )

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by the sim and elastic subcommands:
   an enabled sink only when some output file was asked for, and the
   post-run writers. *)

let obs_of_outputs ~trace ~metrics =
  if trace = None && metrics = None then Obs.noop else Obs.create ()

let write_obs_outputs obs ~trace ~metrics =
  (match metrics with
  | None -> ()
  | Some path ->
    Obs.write_metrics obs ~path;
    Fmt.pf ppf "wrote metrics snapshot to %s@." path);
  match trace with
  | None -> ()
  | Some path ->
    Obs.write_trace obs ~path;
    let tr = Obs.trace obs in
    Fmt.pf ppf "wrote trace (%d events, %d dropped) to %s@."
      (Obs.Trace.length tr) (Obs.Trace.dropped tr) path

let write_timeseries_output ts ~path =
  Obs.Timeseries.write ts ~path;
  Fmt.pf ppf "wrote %d time-series samples to %s@." (Obs.Timeseries.length ts)
    path

let run_elastic compare policy shape servers scale_opt forecast horizon
    oracle_rho trace metrics timeseries faults jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let scale = resolve_scale scale_opt in
  print_scale scale;
  if compare then `Ok (Exp_elastic.run ppf scale)
  else
    match Exp_elastic.shape_of_string shape with
    | Error e -> `Error (false, e)
    | Ok shape ->
    match
      Exp_elastic.policy_spec_of_string ?forecast ?horizon ?rho:oracle_rho
        policy
    with
    | Error e -> `Error (false, e)
    | Ok policy ->
      let obs = obs_of_outputs ~trace ~metrics in
      let ts = Option.map (fun _ -> Elastic.timeseries ()) timeseries in
      (try
         Exp_elastic.run_policy ~obs ?timeseries:ts ?faults ~shape ppf ~policy
           ~initial:servers scale;
         write_obs_outputs obs ~trace ~metrics;
         (match (ts, timeseries) with
         | Some ts, Some path -> write_timeseries_output ts ~path
         | _ -> ());
         `Ok ()
       with Invalid_argument e -> `Error (false, e))

let run_validate scale_opt jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
    let scale = resolve_scale scale_opt in
    print_scale scale;
    `Ok (Validation.run ppf scale)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* A small narrative walk through the public API. *)
let run_demo verbose =
  setup_logs verbose;
  let mu = 20.0 in
  let buyer = Sla_profiles.sla_b_customer ~mu in
  let employee = Sla_profiles.sla_b_employee ~mu in
  let mk id arrival size sla = Query.make ~id ~arrival ~size ~sla () in
  let buffer =
    [|
      mk 0 0.0 15.0 buyer;
      mk 1 2.0 30.0 employee;
      mk 2 4.0 10.0 buyer;
      mk 3 5.0 25.0 buyer;
    |]
  in
  let now = 10.0 in
  let tree = Sla_tree.build ~now buffer in
  Fmt.pf ppf "SLA-tree over %d buffered queries (%d slack units, %d tardy units)@."
    (Sla_tree.length tree)
    (fst (Sla_tree.unit_counts tree))
    (snd (Sla_tree.unit_counts tree));
  Fmt.pf ppf "postpone(0, 3, 10ms) loses $%.2f@."
    (Sla_tree.postpone tree ~m:0 ~n:3 ~tau:10.0);
  Fmt.pf ppf "postpone(0, 3, 60ms) loses $%.2f@."
    (Sla_tree.postpone tree ~m:0 ~n:3 ~tau:60.0);
  Array.iteri
    (fun i _ ->
      Fmt.pf ppf "rushing query %d nets $%.2f@." i (What_if.rush_net_gain tree i))
    buffer;
  (match What_if.best_rush tree with
  | Some (i, g) -> Fmt.pf ppf "scheduler decision: run query %d next (nets $%.2f)@." i g
  | None -> ());
  (* The same decisions through the Fig 2 frontend (use --verbose to
     see its decision trace). *)
  let frontend = Frontend.create Planner.fcfs in
  Array.iter (Frontend.query_arrive frontend) buffer;
  let rec drain t =
    match Frontend.get_next_query frontend ~now:t with
    | None -> ()
    | Some q -> drain (t +. q.Query.est_size)
  in
  drain now;
  Fmt.pf ppf "frontend drained the buffer: %d decisions, %d profit-driven rushes@."
    (Frontend.decisions frontend) (Frontend.rushes frontend);
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Trace tooling: generate a workload to a file; replay a file under a
   chosen policy. *)

let kind_of_string = function
  | "exp" -> Ok Workloads.Exp
  | "pareto" -> Ok Workloads.Pareto
  | "ssbm" -> Ok Workloads.Ssbm_wl
  | s -> Error (Printf.sprintf "unknown workload %S (exp|pareto|ssbm)" s)

let profile_of_string = function
  | "a" | "sla-a" -> Ok Workloads.Sla_a
  | "b" | "sla-b" -> Ok Workloads.Sla_b
  | s -> Error (Printf.sprintf "unknown SLA profile %S (a|b)" s)

let scheduler_of_string ~rate = function
  | "fcfs" -> Ok Schedulers.fcfs
  | "sjf" -> Ok Schedulers.sjf
  | "edf" -> Ok Schedulers.edf
  | "value-edf" -> Ok Schedulers.value_edf
  | "cbs" -> Ok (Schedulers.cbs ~rate)
  | "fcfs+tree" -> Ok Schedulers.fcfs_sla_tree
  | "sjf+tree" -> Ok Schedulers.sjf_sla_tree
  | "edf+tree" -> Ok Schedulers.edf_sla_tree
  | "value-edf+tree" -> Ok Schedulers.value_edf_sla_tree
  | "cbs+tree" -> Ok (Schedulers.cbs_sla_tree ~rate)
  | s -> Error (Printf.sprintf "unknown scheduler %S" s)

let dispatcher_of_string ~rate = function
  | "rr" -> Ok Dispatchers.round_robin
  | "lwl" -> Ok Dispatchers.lwl
  | "random" -> Ok (Dispatchers.random ~seed:1)
  | "tree" -> Ok (Dispatchers.sla_tree (Planner.cbs ~rate))
  | "tree+ac" -> Ok (Dispatchers.sla_tree ~admission:true (Planner.cbs ~rate))
  | "tree-fcfs" -> Ok (Dispatchers.sla_tree Planner.fcfs)
  | "tree-fcfs+ac" -> Ok (Dispatchers.sla_tree ~admission:true Planner.fcfs)
  | s -> Error (Printf.sprintf "unknown dispatcher %S" s)

let run_trace_generate out kind profile load servers n seed sigma2 tenants =
  match (kind_of_string kind, profile_of_string profile) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok kind, Ok profile ->
    let error =
      if sigma2 = 0.0 then Estimate_error.none
      else Estimate_error.gaussian ~sigma2 ()
    in
    let cfg =
      Trace.config ~error ~kind ~profile ~load ~servers ~n_queries:n ~seed ()
    in
    let queries = Trace.generate cfg in
    let queries =
      if tenants then Tenancy.assign (Tenancy.default_registry ()) queries
      else queries
    in
    Trace_io.save out queries;
    Fmt.pf ppf "wrote %d queries to %s (%s, %s, load %.2f, %d server(s)%s)@." n
      out
      (Workloads.kind_name kind)
      (Workloads.profile_name profile)
      load servers
      (if tenants then ", tenant-tagged" else "");
    `Ok ()

let run_trace_replay file scheduler_name dispatcher_name servers warmup =
  match Trace_io.load file with
  | exception Trace_io.Parse_error e -> `Error (false, "parse error: " ^ e)
  | exception Sys_error e -> `Error (false, e)
  | queries ->
    let mean =
      Array.fold_left (fun acc q -> acc +. q.Query.est_size) 0.0 queries
      /. Float.of_int (max 1 (Array.length queries))
    in
    let rate = 1.0 /. mean in
    (match (scheduler_of_string ~rate scheduler_name, dispatcher_of_string ~rate dispatcher_name) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok scheduler, Ok dispatcher ->
      let metrics = Metrics.create ~warmup_id:warmup () in
      Sim.run ~queries ~n_servers:servers
        ~pick_next:(Schedulers.pick scheduler)
        ~dispatch:(Dispatchers.instantiate dispatcher)
        ~metrics ();
      Fmt.pf ppf "replayed %d queries (%s / %s, %d server(s), warm-up %d)@."
        (Array.length queries) (Schedulers.name scheduler)
        (Dispatchers.name dispatcher) servers warmup;
      Fmt.pf ppf "  avg profit loss : $%.4f per query@." (Metrics.avg_loss metrics);
      Fmt.pf ppf "  avg profit      : $%.4f per query@." (Metrics.avg_profit metrics);
      Fmt.pf ppf "  deadline misses : %.2f%%@."
        (100.0 *. Metrics.late_fraction metrics);
      (match Metrics.response_percentiles metrics [ 50.0; 95.0; 99.0 ] with
      | [ p50; p95; p99 ] ->
        Fmt.pf ppf "  response p50/p95/p99: %.2f / %.2f / %.2f ms@." p50 p95 p99
      | _ -> assert false);
      if Metrics.rejected_count metrics > 0 then
        Fmt.pf ppf "  rejected        : %d@." (Metrics.rejected_count metrics);
      `Ok ())

(* ------------------------------------------------------------------ *)
(* One-shot simulation with observability outputs: generate a
   workload, run it under a chosen scheduler/dispatcher, and write the
   trace / metrics snapshot / time series that were asked for. *)

let sim_timeseries_columns =
  [| "pool"; "accepting"; "queue_len"; "backlog"; "cum_profit" |]

let sample_sim ts metrics sim =
  let m = Sim.n_servers sim in
  let live = ref 0
  and queue = ref 0
  and backlog = ref 0.0
  and accepting = ref 0 in
  for sid = 0 to m - 1 do
    let s = Sim.server sim sid in
    if Sim.server_state sim sid <> Sim.Retired then begin
      incr live;
      queue := !queue + Sim.buffer_length s;
      backlog := !backlog +. Sim.est_work_left sim s
    end;
    if Sim.dispatchable sim sid then incr accepting
  done;
  Obs.Timeseries.sample ts ~now:(Sim.now sim)
    [|
      Float.of_int !live;
      Float.of_int !accepting;
      Float.of_int !queue;
      !backlog;
      Metrics.total_profit metrics;
    |]

let run_sim kind profile load servers n seed sigma2 scheduler_name
    dispatcher_name warmup trace metrics_out timeseries_out faults =
  match (kind_of_string kind, profile_of_string profile) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok kind, Ok profile ->
    let error =
      if sigma2 = 0.0 then Estimate_error.none
      else Estimate_error.gaussian ~sigma2 ()
    in
    let cfg =
      Trace.config ~error ~kind ~profile ~load ~servers ~n_queries:n ~seed ()
    in
    let queries = Trace.generate cfg in
    let mean =
      Array.fold_left (fun acc q -> acc +. q.Query.est_size) 0.0 queries
      /. Float.of_int (max 1 (Array.length queries))
    in
    let rate = 1.0 /. mean in
    (match
       ( scheduler_of_string ~rate scheduler_name,
         dispatcher_of_string ~rate dispatcher_name )
     with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok scheduler, Ok dispatcher ->
      let obs = obs_of_outputs ~trace ~metrics:metrics_out in
      let metrics = Metrics.create ~warmup_id:warmup () in
      let pick_next = Schedulers.instantiate ~obs scheduler in
      let dispatch = Dispatchers.instantiate ~obs dispatcher in
      let injector =
        match faults with
        | None -> Ok None
        | Some spec -> (
          let horizon =
            if n > 0 then queries.(Array.length queries - 1).Query.arrival
            else 0.0
          in
          match Fault.plan_of_spec spec ~horizon ~n_servers:servers with
          | exception Invalid_argument e -> Error e
          | plan -> Ok (Some (Fault.create ~obs ~plan ())))
      in
      (match injector with
      | Error e -> `Error (false, e)
      | Ok injector ->
        (* Sample roughly 200 rows over the arrival span (at least one
           mean execution time apart, so a degenerate span cannot make
           the ticker spin). *)
        let ts_ticker =
          match timeseries_out with
          | None -> None
          | Some _ ->
            let ts = Obs.Timeseries.create ~columns:sim_timeseries_columns in
            let span =
              if n > 0 then queries.(Array.length queries - 1).Query.arrival
              else 0.0
            in
            let interval = Float.max mean (span /. 200.0) in
            Some (ts, (interval, fun sim -> sample_sim ts metrics sim))
        in
        Sim.run ~obs
          ?on_server_event:(Option.map Fault.on_server_event injector)
          ?ticker:(Option.map snd ts_ticker)
          ?timers:(Option.map Fault.timers injector)
          ~queries ~n_servers:servers ~pick_next ~dispatch ~metrics ();
        Option.iter (fun i -> Fault.finalize i metrics) injector;
        Fmt.pf ppf
          "simulated %d queries (%s/%s, load %.2f; %s / %s, %d server(s), \
           warm-up %d)@."
          (Array.length queries)
          (Workloads.kind_name kind)
          (Workloads.profile_name profile)
          load (Schedulers.name scheduler)
          (Dispatchers.name dispatcher)
          servers warmup;
        Fmt.pf ppf "  avg profit loss : $%.4f per query@."
          (Metrics.avg_loss metrics);
        Fmt.pf ppf "  avg profit      : $%.4f per query@."
          (Metrics.avg_profit metrics);
        Fmt.pf ppf "  deadline misses : %.2f%%@."
          (100.0 *. Metrics.late_fraction metrics);
        if Metrics.rejected_count metrics > 0 then
          Fmt.pf ppf "  rejected        : %d@."
            (Metrics.rejected_count metrics);
        if Metrics.lost_count metrics > 0 then
          Fmt.pf ppf "  lost to crashes : %d@." (Metrics.lost_count metrics);
        Option.iter
          (fun i -> Fmt.pf ppf "  faults          : %a@." Fault.pp_stats
              (Fault.stats i))
          injector;
        write_obs_outputs obs ~trace ~metrics:metrics_out;
        (match (ts_ticker, timeseries_out) with
        | Some (ts, _), Some path -> write_timeseries_output ts ~path
        | _ -> ());
        `Ok ()))

(* The three observability output flags, shared by sim and elastic. *)
let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a trace of the run to FILE: Chrome trace-event JSON \
           (loadable in Perfetto / chrome://tracing), or JSON lines when \
           FILE ends in .jsonl")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics snapshot (counters, gauges, latency \
           histogram percentiles) as JSON to FILE")

let timeseries_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Write per-tick pool/backlog/profit samples to FILE (JSON when \
           FILE ends in .json, CSV otherwise)")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          ("Inject infrastructure faults (crashes, brownouts, repairs) from \
            SPEC: " ^ Fault.spec_doc))

let table_cmd =
  let n =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Table number (2-7)")
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate a table from the paper's evaluation")
    Term.(ret (const run_table $ n $ scale_arg $ jobs_arg))

let fig_cmd =
  let n =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Figure number (15 or 17)")
  in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Also write gnuplot-ready .dat files into DIR")
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate a figure from the paper's evaluation")
    Term.(ret (const run_fig $ n $ scale_arg $ data_dir $ jobs_arg))

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(ret (const run_all $ scale_arg $ jobs_arg))

let demo_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show decision traces")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk through the SLA-tree what-if API on a tiny buffer")
    Term.(ret (const run_demo $ verbose))

let ablation_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WHICH"
          ~doc:
            "sched | dispatch | admission | predictor | fairness | hetero \
             | drop | optimality | all")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run an ablation study beyond the paper's tables")
    Term.(ret (const run_ablation $ which $ scale_arg $ jobs_arg))

let elastic_cmd =
  let compare =
    Arg.(value & flag & info [ "compare" ]
           ~doc:"Run the full comparison (statics / reactive SLA-tree / \
                 queue-threshold / predictive / oracle) on every shape")
  in
  let policy =
    Arg.(value & opt string "sla-tree" & info [ "policy" ] ~docv:"P"
           ~doc:"Autoscaling policy: sla-tree | queue | static | predictive | \
                 oracle")
  in
  let shape =
    Arg.(value & opt string "diurnal" & info [ "shape" ] ~docv:"S"
           ~doc:"Arrival shape: diurnal | square | steady")
  in
  let servers =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"M" ~doc:"Initial pool size")
  in
  let forecast =
    Arg.(value & opt (some string) None & info [ "forecast" ] ~docv:"SPEC"
           ~doc:("Forecaster for --policy predictive: " ^ Forecast.spec_doc
                 ^ " (default hw:24, matching the 24 decisions per cycle)"))
  in
  let horizon =
    Arg.(value & opt (some int) None & info [ "horizon" ] ~docv:"TICKS"
           ~doc:"Forecast horizon override in controller ticks for --policy \
                 predictive (default: ceil(boot_delay / interval))")
  in
  let oracle_rho =
    Arg.(value & opt (some float) None & info [ "oracle-rho" ] ~docv:"RHO"
           ~doc:"Target utilization of the perfect-foresight schedule for \
                 --policy oracle (default 0.8)")
  in
  Cmd.v
    (Cmd.info "elastic"
       ~doc:
         "Autoscale the server pool on a cyclic workload using SLA-tree \
          what-if probes, optionally scaling ahead of an arrival forecast")
    Term.(
      ret
        (const run_elastic $ compare $ policy $ shape $ servers $ scale_arg
       $ forecast $ horizon $ oracle_rho $ trace_file_arg $ metrics_file_arg
       $ timeseries_file_arg $ faults_arg $ jobs_arg))

let sim_cmd =
  let kind =
    Arg.(value & opt string "exp" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Workload: exp | pareto | ssbm")
  in
  let profile =
    Arg.(value & opt string "b" & info [ "profile" ] ~docv:"P"
           ~doc:"SLA profile: a | b")
  in
  let load =
    Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"RHO" ~doc:"System load")
  in
  let servers =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"M" ~doc:"Server count")
  in
  let n =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Query count")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")
  in
  let sigma2 =
    Arg.(value & opt float 0.0 & info [ "sigma2" ] ~docv:"S2"
           ~doc:"Estimation error variance (Sec 7.5); 0 = perfect estimates")
  in
  let scheduler =
    Arg.(value & opt string "fcfs+tree" & info [ "scheduler" ] ~docv:"SCHED"
           ~doc:"fcfs | sjf | edf | value-edf | cbs, each optionally +tree")
  in
  let dispatcher =
    Arg.(value & opt string "tree-fcfs" & info [ "dispatcher" ] ~docv:"DISP"
           ~doc:"rr | lwl | random | tree | tree+ac | tree-fcfs | tree-fcfs+ac")
  in
  let warmup =
    Arg.(value & opt int 0 & info [ "warmup" ] ~docv:"W"
           ~doc:"Exclude queries with id below this from measurement")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Simulate a generated workload once, with observability outputs \
          (--trace, --metrics, --timeseries)")
    Term.(
      ret
        (const run_sim $ kind $ profile $ load $ servers $ n $ seed $ sigma2
       $ scheduler $ dispatcher $ warmup $ trace_file_arg $ metrics_file_arg
       $ timeseries_file_arg $ faults_arg))

let run_resilience scale_opt jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
    let scale = resolve_scale scale_opt in
    print_scale scale;
    `Ok (Exp_resilience.run ppf scale)

let resilience_cmd =
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Chaos experiment: RR / LWL / SLA-tree dispatch and static vs \
          autoscaled pools under fault-free, moderate and severe fault plans")
    Term.(ret (const run_resilience $ scale_arg $ jobs_arg))

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check the simulator against closed-form M/M/m results")
    Term.(ret (const run_validate $ scale_arg $ jobs_arg))

let trace_generate_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Output trace file")
  in
  let kind =
    Arg.(value & opt string "exp" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Workload: exp | pareto | ssbm")
  in
  let profile =
    Arg.(value & opt string "a" & info [ "profile" ] ~docv:"P" ~doc:"SLA profile: a | b")
  in
  let load =
    Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"RHO" ~doc:"System load")
  in
  let servers =
    Arg.(value & opt int 1 & info [ "servers" ] ~docv:"M" ~doc:"Server count")
  in
  let n =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Query count")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed") in
  let sigma2 =
    Arg.(value & opt float 0.0 & info [ "sigma2" ] ~docv:"S2"
           ~doc:"Estimation error variance (Sec 7.5); 0 = perfect estimates")
  in
  let tenants =
    Arg.(value & flag & info [ "tenants" ]
           ~doc:
             "Tag every query with a tenant from the default three-tenant \
              registry (gold/silver/bronze), replacing its SLA with the \
              tenant's tier-scaled class")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload trace file")
    Term.(
      ret
        (const run_trace_generate $ out $ kind $ profile $ load $ servers $ n
       $ seed $ sigma2 $ tenants))

let trace_replay_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file")
  in
  let scheduler =
    Arg.(value & opt string "cbs+tree" & info [ "scheduler" ] ~docv:"SCHED"
           ~doc:"fcfs | sjf | edf | value-edf | cbs, each optionally +tree")
  in
  let dispatcher =
    Arg.(value & opt string "lwl" & info [ "dispatcher" ] ~docv:"DISP"
           ~doc:"rr | lwl | random | tree | tree+ac | tree-fcfs | tree-fcfs+ac")
  in
  let servers =
    Arg.(value & opt int 1 & info [ "servers" ] ~docv:"M" ~doc:"Server count")
  in
  let warmup =
    Arg.(value & opt int 0 & info [ "warmup" ] ~docv:"W"
           ~doc:"Exclude queries with id below this from measurement")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace file under a chosen policy")
    Term.(
      ret (const run_trace_replay $ file $ scheduler $ dispatcher $ servers $ warmup))

let trace_cmd =
  Cmd.group (Cmd.info "trace" ~doc:"Generate and replay workload trace files")
    [ trace_generate_cmd; trace_replay_cmd ]

(* ------------------------------------------------------------------ *)
(* Real traces: SWF logs from the Parallel Workloads Archive through
   the SLA synthesis layer. See EXPERIMENTS.md "Real traces". *)

let time_scale_arg =
  Arg.(value & opt float 1.0
       & info [ "time-scale" ] ~docv:"F"
           ~doc:
             "Virtual milliseconds per SWF second. A pure unit change: \
              inter-arrivals and sizes scale together, so utilization is \
              invariant")

let load_factor_arg =
  Arg.(value & opt float 1.0
       & info [ "load-factor" ] ~docv:"F"
           ~doc:
             "Compress arrivals by this factor (>1 = heavier load; sizes \
              untouched) — one log yields a whole load sweep")

let classes_spec_arg =
  Arg.(value & opt (some string) None
       & info [ "classes" ] ~docv:"SPEC" ~doc:Sla_synth.classes_doc)

let stretch_arg =
  Arg.(value & opt string "1,3"
       & info [ "stretch" ] ~docv:"K1,K2,..."
           ~doc:
             "Deadline stretch tiers: response bound k is K_k times the \
              requested time. Strictly increasing; every class needs one \
              gain per tier")

let synth_seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Class-draw seed (the only randomness in the synthesis)")

let tile_arg =
  Arg.(value & opt int 1
       & info [ "tile" ] ~docv:"N"
           ~doc:
             "Stream the log N times end-to-end, each pass offset past the \
              previous one's span — scales a small fixture up to millions \
              of jobs")

let max_jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "max-jobs" ] ~docv:"N" ~doc:"Stop after synthesizing N queries")

let synth_config ~time_scale ~load_factor ~classes ~stretch ~seed =
  let ( let* ) = Result.bind in
  let* classes =
    match classes with
    | None -> Ok Sla_synth.default_classes
    | Some s -> Sla_synth.classes_of_string s
  in
  let* stretches =
    match
      String.split_on_char ',' stretch
      |> List.map (fun s -> float_of_string (String.trim s))
    with
    | l -> Ok (Array.of_list l)
    | exception Failure _ -> Error (Printf.sprintf "bad --stretch %S" stretch)
  in
  match Sla_synth.config ~classes ~stretches ~time_scale ~load_factor ~seed () with
  | cfg -> Ok cfg
  | exception Invalid_argument e -> Error e

let with_trace_cfg ~file ~time_scale ~load_factor ~classes ~stretch ~seed ~tile
    ~max_jobs ~servers f =
  match synth_config ~time_scale ~load_factor ~classes ~stretch ~seed with
  | Error e -> `Error (false, e)
  | Ok synth -> (
    match Exp_trace.cfg ~synth ~tiles:tile ?max_jobs ~servers ~path:file () with
    | exception Invalid_argument e -> `Error (false, e)
    | c -> (
      match f c with
      | r -> r
      | exception Swf.Parse_error e -> `Error (false, e)
      | exception Sys_error e -> `Error (false, e)))

let run_workload_inspect file time_scale load_factor classes stretch seed tile
    max_jobs servers =
  with_trace_cfg ~file ~time_scale ~load_factor ~classes ~stretch ~seed ~tile
    ~max_jobs ~servers (fun c ->
      Swf.with_file file (fun r ->
          List.iter
            (fun (k, v) ->
              if k <> "" then Fmt.pf ppf "  %s: %s@." k v)
            (Swf.metadata r));
      let stats = Exp_trace.inspect c in
      Fmt.pf ppf "%a@." Sla_synth.pp_stats stats;
      Fmt.pf ppf "implied load at %d server(s): %.3f@." servers
        (Sla_synth.implied_load stats ~servers);
      `Ok ())

let run_workload_convert file out time_scale load_factor classes stretch seed
    tile max_jobs =
  with_trace_cfg ~file ~time_scale ~load_factor ~classes ~stretch ~seed ~tile
    ~max_jobs ~servers:1 (fun c ->
      let stats = Sla_synth.stats_create () in
      let n =
        Trace_io.save_seq out
          (Sla_synth.stream c.Exp_trace.synth ~tiles:tile ?max_jobs ~stats
             ~path:file ())
      in
      Fmt.pf ppf "%a@." Sla_synth.pp_stats stats;
      Fmt.pf ppf "wrote %d queries to %s@." n out;
      `Ok ())

let run_workload_exp file time_scale load_factor classes stretch seed tile
    max_jobs servers warmup_frac no_variants jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
    with_trace_cfg ~file ~time_scale ~load_factor ~classes ~stretch ~seed ~tile
      ~max_jobs ~servers (fun c ->
        match
          Exp_trace.cfg ~synth:c.Exp_trace.synth ~tiles:tile ?max_jobs ~servers
            ~warmup_frac ~path:file ()
        with
        | exception Invalid_argument e -> `Error (false, e)
        | c ->
          Exp_trace.run ~variants:(not no_variants) ppf c;
          `Ok ())

let swf_file_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"SWF workload log")

let trace_servers_arg =
  Arg.(value & opt int 8 & info [ "servers" ] ~docv:"M" ~doc:"Server count")

let workload_inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Stream an SWF log through the SLA synthesis and report what it \
          yields (header metadata, kept/dropped counts, span, implied load) \
          without retaining it")
    Term.(
      ret
        (const run_workload_inspect $ swf_file_arg $ time_scale_arg
       $ load_factor_arg $ classes_spec_arg $ stretch_arg $ synth_seed_arg
       $ tile_arg $ max_jobs_arg $ trace_servers_arg))

let workload_convert_cmd =
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Synthesize SLA queries from an SWF log and write them as a native \
          trace file (slatree trace replay / replay --file), streaming both \
          sides")
    Term.(
      ret
        (const run_workload_convert $ swf_file_arg $ out $ time_scale_arg
       $ load_factor_arg $ classes_spec_arg $ stretch_arg $ synth_seed_arg
       $ tile_arg $ max_jobs_arg))

let workload_exp_cmd =
  let warmup_frac =
    Arg.(value & opt float 0.1
         & info [ "warmup-frac" ] ~docv:"F"
             ~doc:"Leading fraction of kept queries excluded from measurement")
  in
  let no_variants =
    Arg.(value & flag
         & info [ "no-variants" ]
             ~doc:"Skip the elastic and fault-storm variant rows")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "The trace-driven experiment grid: schedulers x dispatchers over \
          the log, plus autoscaled and fault-injected variants. Output is \
          bit-identical at any -j")
    Term.(
      ret
        (const run_workload_exp $ swf_file_arg $ time_scale_arg
       $ load_factor_arg $ classes_spec_arg $ stretch_arg $ synth_seed_arg
       $ tile_arg $ max_jobs_arg $ trace_servers_arg $ warmup_frac
       $ no_variants $ jobs_arg))

let workload_cmd =
  Cmd.group
    (Cmd.info "workload"
       ~doc:
         "Real cluster logs (Standard Workload Format) as SLA workloads: \
          inspect, convert, run experiment grids")
    [ workload_inspect_cmd; workload_convert_cmd; workload_exp_cmd ]

(* ------------------------------------------------------------------ *)
(* Serving: the decision stack as a persistent process, plus the
   open-loop replay client that stresses it. See docs/SERVING.md. *)

let run_serve listen_s metrics_listen_s scheduler_name dispatcher_name servers
    speed deterministic warmup tick rate exit_on_idle trace_out metrics_out
    timeseries_out =
  let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
  let* listen = Daemon.addr_of_string listen_s in
  let* metrics_listen =
    match metrics_listen_s with
    | None -> Ok None
    | Some s -> Result.map Option.some (Daemon.addr_of_string s)
  in
  let* scheduler = scheduler_of_string ~rate scheduler_name in
  let* dispatcher = dispatcher_of_string ~rate dispatcher_name in
  let* () =
    if servers < 1 then Error "need at least one server"
    else if speed <= 0.0 then Error "--speed must be positive"
    else if tick <= 0.0 then Error "--tick must be positive"
    else Ok ()
  in
  (* The scrape endpoint serves the live registry, so it forces an
     enabled sink even without file outputs. *)
  let obs =
    if trace_out = None && metrics_out = None && metrics_listen = None then
      Obs.noop
    else Obs.create ()
  in
  let metrics = Metrics.create ~warmup_id:warmup () in
  let want_ts = timeseries_out <> None || metrics_listen <> None in
  let ts =
    if want_ts then Some (Obs.Timeseries.create ~columns:sim_timeseries_columns)
    else None
  in
  let ticker =
    Option.map (fun ts -> (tick, fun sim -> sample_sim ts metrics sim)) ts
  in
  let clock =
    if deterministic then Vclock.manual () else Vclock.realtime ~speed ()
  in
  let engine =
    Daemon.Engine.create ~obs ~warmup ?ticker ~clock ~scheduler ~dispatcher
      ~n_servers:servers ()
  in
  ignore (Daemon.Engine.metrics engine);
  (* Final flushes ride Obs teardown, so the SIGINT path and the
     normal exit path share one close. *)
  Obs.on_close obs (fun () -> write_obs_outputs obs ~trace:trace_out ~metrics:metrics_out);
  (match (ts, timeseries_out) with
  | Some ts, Some path ->
    Obs.on_close obs (fun () -> write_timeseries_output ts ~path)
  | _ -> ());
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  Fmt.pf ppf "serving on %a (%s / %s, %d server(s), %s clock%s)@."
    Daemon.pp_addr listen (Schedulers.name scheduler)
    (Dispatchers.name dispatcher) servers
    (if deterministic then "deterministic" else Printf.sprintf "realtime %gx" speed)
    (match metrics_listen with
    | Some a -> Fmt.str ", metrics on %a" Daemon.pp_addr a
    | None -> "");
  (try
     Daemon.serve ~stop ~exit_on_idle ?metrics_listen ?timeseries:ts ~engine
       ~listen ();
     let s = Daemon.Engine.summary engine in
     Fmt.pf ppf
       "served %d queries: %d completed, %d rejected, %d dropped, profit \
        $%.2f (vtime %.0f ms)@."
       (Daemon.Engine.submitted engine)
       s.Wire.completed s.Wire.rejected s.Wire.dropped s.Wire.total_profit
       s.Wire.vnow;
     Obs.close obs;
     `Ok ()
   with Unix.Unix_error (err, fn, arg) ->
     Obs.close obs;
     `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)))

let run_replay_client connect_s file swf time_scale load_factor classes stretch
    tile max_jobs kind profile load gen_servers n seed sigma2 speed json =
  let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
  let* addr = Daemon.addr_of_string connect_s in
  let* source =
    match (swf, file) with
    | Some _, Some _ -> Error "--swf and --file are mutually exclusive"
    | Some swf_path, None -> (
      match synth_config ~time_scale ~load_factor ~classes ~stretch ~seed with
      | Error e -> Error e
      | Ok synth ->
        if tile < 1 then Error "--tile must be >= 1"
        else
          Ok
            (`Stream
               (fun () ->
                 Sla_synth.stream synth ~tiles:tile ?max_jobs ~path:swf_path ())))
    | None, Some f -> (
      match Trace_io.load f with
      | qs -> Ok (`Array qs)
      | exception Trace_io.Parse_error e -> Error ("parse error: " ^ e)
      | exception Sys_error e -> Error e)
    | None, None -> (
      match (kind_of_string kind, profile_of_string profile) with
      | Error e, _ | _, Error e -> Error e
      | Ok kind, Ok profile ->
        let error =
          if sigma2 = 0.0 then Estimate_error.none
          else Estimate_error.gaussian ~sigma2 ()
        in
        Ok
          (`Array
             (Trace.generate
                (Trace.config ~error ~kind ~profile ~load ~servers:gen_servers
                   ~n_queries:n ~seed ()))))
  in
  let* () = if speed < 0.0 then Error "--speed must be >= 0" else Ok () in
  let framing = if json then Wire.Json else Wire.Binary in
  (try
     let fd = Replay.connect addr in
     let pace =
       if speed = 0.0 then "full speed (unpaced)"
       else Printf.sprintf "%gx" speed
     in
     let on_progress ~sent ~completions =
       Fmt.pf ppf "  ... %d sent, %d completed@." sent completions
     in
     let r =
       match source with
       | `Array queries ->
         Fmt.pf ppf "replaying %d queries to %a at %s@." (Array.length queries)
           Daemon.pp_addr addr pace;
         Replay.run ~framing ~speed ~client:"slatree-replay" ~on_progress ~fd
           ~queries ()
       | `Stream mk ->
         Fmt.pf ppf "streaming SWF synthesis to %a at %s@." Daemon.pp_addr addr
           pace;
         Replay.run_stream ~framing ~speed ~client:"slatree-replay" ~on_progress
           ~fd ~queries:(mk ()) ()
     in
     List.iter (fun e -> Fmt.pf ppf "  daemon error: %s@." e) r.Replay.errors;
     Fmt.pf ppf
       "sent %d in %.2fs (%.0f arrivals/s): %d decisions (%d rejected), %d \
        completions, %d dropped, client-side profit $%.2f@."
       r.Replay.sent r.Replay.wall_s
       (Float.of_int r.Replay.sent /. Float.max 1e-9 r.Replay.wall_s)
       r.Replay.decisions r.Replay.rejected r.Replay.completions
       r.Replay.dropped r.Replay.profit;
     (match r.Replay.summary with
     | Some s ->
       Fmt.pf ppf
         "daemon summary: %d completed, %d rejected, %d dropped, %d measured \
          (%d late), profit $%.2f, avg loss $%.4f, avg response %.2f ms@."
         s.Wire.completed s.Wire.rejected s.Wire.dropped s.Wire.measured
         s.Wire.late s.Wire.total_profit s.Wire.avg_loss s.Wire.avg_response;
       List.iter
         (fun tr ->
           Fmt.pf ppf
             "  tenant %d: %d completed, %d rejected, profit $%.2f@."
             tr.Wire.tr_tenant tr.Wire.tr_completed tr.Wire.tr_rejected
             tr.Wire.tr_profit)
         s.Wire.tenants;
       `Ok ()
     | None -> `Error (false, "connection closed before the daemon's summary"))
   with
   | Unix.Unix_error (err, fn, arg) ->
     `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))
   | Swf.Parse_error e | Sys_error e -> `Error (false, e))

let serve_cmd =
  let listen =
    Arg.(value & opt string "unix:/tmp/slatree.sock"
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen address: unix:PATH, HOST:PORT or PORT")
  in
  let metrics_listen =
    Arg.(value & opt (some string) None
         & info [ "metrics-listen" ] ~docv:"ADDR"
             ~doc:
               "Serve /metrics, /metrics.txt, /timeseries and /healthz over \
                HTTP on ADDR")
  in
  let scheduler =
    Arg.(value & opt string "fcfs+tree" & info [ "scheduler" ] ~docv:"SCHED"
           ~doc:"fcfs | sjf | edf | value-edf | cbs, each optionally +tree")
  in
  let dispatcher =
    Arg.(value & opt string "tree-fcfs" & info [ "dispatcher" ] ~docv:"DISP"
           ~doc:"rr | lwl | random | tree | tree+ac | tree-fcfs | tree-fcfs+ac")
  in
  let servers =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"M" ~doc:"Server count")
  in
  let speed =
    Arg.(value & opt float 1.0 & info [ "speed" ] ~docv:"X"
           ~doc:"Virtual milliseconds per wall millisecond (realtime mode)")
  in
  let deterministic =
    Arg.(value & flag & info [ "deterministic" ]
           ~doc:
             "Manual virtual clock driven purely by submission timestamps — \
              bit-identical to the in-process simulator on the same trace")
  in
  let warmup =
    Arg.(value & opt int 0 & info [ "warmup" ] ~docv:"W"
           ~doc:"Exclude queries with id below this from measurement")
  in
  let tick =
    Arg.(value & opt float 1000.0 & info [ "tick" ] ~docv:"MS"
           ~doc:"Virtual time between timeseries samples")
  in
  let rate =
    Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"MU"
           ~doc:
             "Expected service rate (1/mean-execution, per ms) for the cbs \
              scheduler and tree planners")
  in
  let exit_on_idle =
    Arg.(value & flag & info [ "exit-on-idle" ]
           ~doc:
             "Shut down once a client that sent eof has disconnected and no \
              clients remain (CI smoke mode)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the SLA-tree decision stack as a daemon: framed query arrivals \
          in, dispatch decisions and completions out, metrics scrape on the \
          side")
    Term.(
      ret
        (const run_serve $ listen $ metrics_listen $ scheduler $ dispatcher
       $ servers $ speed $ deterministic $ warmup $ tick $ rate $ exit_on_idle
       $ trace_file_arg $ metrics_file_arg $ timeseries_file_arg))

let replay_cmd =
  let connect =
    Arg.(value & opt string "unix:/tmp/slatree.sock"
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Daemon address: unix:PATH, HOST:PORT or PORT")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Replay this trace file (otherwise generate one)")
  in
  let swf =
    Arg.(value & opt (some string) None & info [ "swf" ] ~docv:"FILE"
           ~doc:
             "Stream an SWF cluster log through the SLA synthesis instead of \
              a trace file — constant memory, so archive-scale logs replay \
              directly (--time-scale/--load-factor/--classes/--stretch/\
              --tile/--max-jobs/--seed shape the synthesis, as in slatree \
              workload)")
  in
  let kind =
    Arg.(value & opt string "exp" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Generated workload: exp | pareto | ssbm")
  in
  let profile =
    Arg.(value & opt string "b" & info [ "profile" ] ~docv:"P"
           ~doc:"Generated SLA profile: a | b")
  in
  let load =
    Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"RHO"
           ~doc:"Generated system load")
  in
  let gen_servers =
    Arg.(value & opt int 4 & info [ "gen-servers" ] ~docv:"M"
           ~doc:"Server count the generated load targets (match the daemon's)")
  in
  let n =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N"
           ~doc:"Generated query count")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")
  in
  let sigma2 =
    Arg.(value & opt float 0.0 & info [ "sigma2" ] ~docv:"S2"
           ~doc:"Estimation error variance; 0 = perfect estimates")
  in
  let speed =
    Arg.(value & opt float 1.0 & info [ "speed" ] ~docv:"X"
           ~doc:
             "Replay speed factor (matches the daemon's --speed); 0 = \
              unpaced, as fast as the socket accepts")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Use the newline-JSON debug framing instead of binary")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Pump a workload trace into a running daemon at a wall-clock speed \
          factor, open-loop")
    Term.(
      ret
        (const run_replay_client $ connect $ file $ swf $ time_scale_arg
       $ load_factor_arg $ classes_spec_arg $ stretch_arg $ tile_arg
       $ max_jobs_arg $ kind $ profile $ load $ gen_servers $ n $ seed
       $ sigma2 $ speed $ json))

(* ------------------------------------------------------------------ *)
(* Multi-tenant economics *)

let run_exp_tenancy kind load burst n servers theta warmup_frac seed jobs =
  match setup_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () -> (
    match kind_of_string kind with
    | Error e -> `Error (false, e)
    | Ok kind -> (
      match
        Exp_tenancy.cfg ~kind ~load ~burst_high:burst ~n_queries:n ~servers
          ~theta ~warmup_frac ~seed ()
      with
      | exception Invalid_argument e -> `Error (false, e)
      | c ->
        Exp_tenancy.run ppf c;
        `Ok ()))

let exp_tenancy_cmd =
  let kind =
    Arg.(value & opt string "exp" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Workload generator: exp | pareto | ssbm")
  in
  let load =
    Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"RHO"
           ~doc:"Steady-state utilization of the uniform pool")
  in
  let burst =
    Arg.(value & opt float 2.5 & info [ "burst" ] ~docv:"X"
           ~doc:"Bursty cells: peak load multiplier (duty 40%)")
  in
  let n =
    Arg.(value & opt int 4000 & info [ "n" ] ~docv:"N" ~doc:"Query count")
  in
  let servers =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"M" ~doc:"Server count")
  in
  let theta =
    Arg.(value & opt float 0.0 & info [ "theta" ] ~docv:"T"
           ~doc:"Admission margin in dollars: admit only when the postpone \
                 probe prices the arrival's net at T or better")
  in
  let warmup_frac =
    Arg.(value & opt float 0.1 & info [ "warmup-frac" ] ~docv:"F"
           ~doc:"Leading fraction of queries excluded from measurement")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")
  in
  Cmd.v
    (Cmd.info "tenancy"
       ~doc:
         "Multi-tenant economics grid: tenant-tagged workloads (SLA class x \
          price tier) over uniform and mixed-speed pools, probe-priced \
          admission control off and on, with per-tenant profit, Jain \
          fairness and SLO burn-rate windows, plus an autoscaler choosing \
          among server types under quantum billing. Output is bit-identical \
          at any -j")
    Term.(
      ret
        (const run_exp_tenancy $ kind $ load $ burst $ n $ servers $ theta
       $ warmup_frac $ seed $ jobs_arg))

let exp_cmd =
  Cmd.group
    (Cmd.info "exp"
       ~doc:"Experiment grids beyond the paper's tables and figures")
    [ exp_tenancy_cmd ]

let main =
  Cmd.group
    (Cmd.info "slatree" ~version:"1.0.0"
       ~doc:"SLA-tree: profit-oriented decision support (EDBT 2011 reproduction)")
    [
      table_cmd; fig_cmd; all_cmd; demo_cmd; ablation_cmd; elastic_cmd;
      validate_cmd; trace_cmd; workload_cmd; sim_cmd; resilience_cmd;
      serve_cmd; replay_cmd; exp_cmd;
    ]

let () = exit (Cmd.eval main)
