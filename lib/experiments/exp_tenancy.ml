(* Multi-tenant economics: the admission-control grid. See
   exp_tenancy.mli.

   The economics under test: when the pool is overloaded, completing
   every query means completing doomed queries — work that arrives at
   a backlog deep enough that it can only finish past its last
   deadline, earning the penalty. The admission controller prices each
   arrival with the SLA-tree postpone probe (its own attainable profit
   at its planned slot minus the postpone loss inflicted on the work
   behind it) and refuses the negative-net tail, so the admission-on
   cells should net strictly more measured profit than admission-off
   on the bursty workloads. *)

type cfg = {
  kind : Workloads.kind;
  load : float;
  burst_high : float;
  n_queries : int;
  servers : int;
  theta : float;
  warmup_frac : float;
  seed : int;
}

let cfg ?(kind = Workloads.Exp) ?(load = 0.9) ?(burst_high = 2.5)
    ?(n_queries = 4000) ?(servers = 4) ?(theta = 0.0) ?(warmup_frac = 0.1)
    ?(seed = 42) () =
  if load <= 0.0 then invalid_arg "Exp_tenancy.cfg: load must be positive";
  if burst_high <= 0.0 then
    invalid_arg "Exp_tenancy.cfg: burst_high must be positive";
  if n_queries < 1 then invalid_arg "Exp_tenancy.cfg: n_queries must be >= 1";
  if servers < 1 then invalid_arg "Exp_tenancy.cfg: servers must be >= 1";
  if warmup_frac < 0.0 || warmup_frac >= 1.0 then
    invalid_arg "Exp_tenancy.cfg: warmup_frac must be in [0, 1)";
  { kind; load; burst_high; n_queries; servers; theta; warmup_frac; seed }

let registry () = Tenancy.default_registry ()

(* ------------------------------------------------------------------ *)
(* Workloads and pools *)

let trace_config c =
  Trace.config ~kind:c.kind ~profile:Workloads.Sla_a ~load:c.load
    ~servers:c.servers ~n_queries:c.n_queries ~seed:c.seed ()

(* The tenant registry replaces every SLA at assignment (class ladder
   x price tier), so the generator only contributes arrivals, sizes
   and estimates. *)
let workloads c reg =
  let tcfg = trace_config c in
  let steady = Trace.generate tcfg in
  let period =
    (* about an eighth of the nominal span, so several full burst
       cycles fit in the run *)
    Float.of_int c.n_queries /. Trace.arrival_rate tcfg /. 8.0
  in
  let bursty =
    Bursty.generate tcfg
      (Bursty.square ~period ~duty:0.4 ~low:0.5 ~high:c.burst_high)
  in
  [ ("steady", Tenancy.assign reg steady); ("bursty", Tenancy.assign reg bursty) ]

(* Same aggregate capacity either way: [mixed] alternates fast and
   slow machines summing to [servers] stock speeds. *)
let pools c =
  [
    ("uniform", Array.make c.servers 1.0);
    ("mixed", Array.init c.servers (fun i -> if i land 1 = 0 then 1.5 else 0.5));
  ]

(* ------------------------------------------------------------------ *)
(* One cell *)

type cell = {
  admission : bool;
  pool : string;
  workload : string;
  profit : float;
  turned_away : float;
  rejected : int;
  degraded : int;
  late : float;
  fairness : float;
  report : Tenancy.report;
}

let response_cap = 65_536

let warmup_id c = Float.to_int (c.warmup_frac *. Float.of_int c.n_queries)

(* Run one tagged workload over one pool, the admission controller off
   or on, sampling the per-tenant timeseries on a ticker so the report
   can read burn-rate windows off it. *)
let run_cell c reg ~queries ~speeds ~admission_on =
  let warmup_id = warmup_id c in
  let acct = Tenancy.Acct.create reg ~warmup_id in
  let ts = Tenancy.Acct.timeseries reg in
  let span_est = queries.(Array.length queries - 1).Query.arrival in
  let sample_every = Float.max 1e-6 (span_est /. 240.0) in
  let metrics = Metrics.create ~response_cap ~warmup_id () in
  let admit =
    if admission_on then Tenancy.admit (Tenancy.admission ~theta:c.theta reg ~acct ())
    else fun _sim q ->
      (* admission off: every query is waved through, but the acct
         still sees the offered/admitted flow *)
      Tenancy.Acct.on_offered acct q;
      Tenancy.Acct.on_admitted acct q;
      Sim.Admit
  in
  let sess =
    Sim.session ~admit
      ~on_complete:(Tenancy.Acct.on_complete acct)
      ~speeds
      ~ticker:(sample_every, fun sim -> Tenancy.Acct.sample acct ts ~now:(Sim.now sim))
      ~n_servers:c.servers
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs))
      ~metrics ()
  in
  Array.iter (Sim.inject sess) queries;
  Sim.drain sess;
  let span = Sim.now (Sim.sim sess) in
  Tenancy.Acct.sample acct ts ~now:span;
  if Metrics.offered_count metrics
     <> Metrics.admitted_count metrics + Metrics.rejected_count metrics
  then
    failwith "Exp_tenancy: offered <> admitted + rejected";
  let report = Tenancy.report ~timeseries:ts ~span acct in
  {
    admission = admission_on;
    pool = "";
    workload = "";
    profit = report.Tenancy.rep_profit;
    turned_away = report.Tenancy.rep_rejected_value;
    rejected = Metrics.rejected_count metrics;
    degraded =
      List.fold_left (fun a r -> a + r.Tenancy.r_degraded) 0 report.Tenancy.rows;
    late = Metrics.late_fraction metrics;
    fairness = report.Tenancy.fairness;
    report;
  }

let grid c =
  let reg = registry () in
  let tagged = workloads c reg in
  List.concat_map
    (fun (wname, queries) ->
      List.concat_map
        (fun (pname, speeds) ->
          [ (wname, queries, pname, speeds, false);
            (wname, queries, pname, speeds, true) ])
        (pools c))
    tagged
  |> Parallel.map_list (fun (wname, queries, pname, speeds, admission_on) ->
         let cell = run_cell c reg ~queries ~speeds ~admission_on in
         { cell with pool = pname; workload = wname })

(* ------------------------------------------------------------------ *)
(* The elastic variant: the autoscaler chooses WHAT to boot *)

type typed_row = {
  t_profit : float;
  t_cost : float;
  t_typed_cost : float;
  t_boots : (string * int) list;
  t_peak_pool : int;
}

(* Price scale derived from the registry's class ladder, as in the
   trace experiments: half the workload's potential profit rate per
   provisioned server-interval. *)
let elastic_config c reg ~span =
  let interval = Float.max 1e-6 (span /. 120.0) in
  let classes = (reg : Tenancy.registry).Tenancy.synth.Sla_synth.classes in
  let w = Array.fold_left (fun a cl -> a + cl.Sla_synth.weight) 0 classes in
  let mean_top_gain =
    Array.fold_left
      (fun a cl -> a +. (Float.of_int cl.Sla_synth.weight *. cl.Sla_synth.gains.(0)))
      0.0 classes
    /. Float.of_int w
  in
  let profit_rate = mean_top_gain *. Float.of_int c.n_queries /. span in
  (* Cheaper than the trace experiments' half-rate rent: tier scaling
     (bronze pays 0.6x) and burst overload both cut realizable profit
     well below the ladder's potential, and a price that eats the whole
     margin would make every boot a loss by construction. *)
  let price = 0.15 *. profit_rate /. Float.of_int c.servers *. interval in
  let types =
    [|
      Elastic.server_type ~name:"small" ~price ~quantum:interval ();
      Elastic.server_type ~name:"large" ~speed:2.0
        ~boot_delay:(interval /. 4.0)
        ~price:(2.2 *. price) ~quantum:interval ();
    |]
  in
  Elastic.config ~interval ~cost_per_interval:price
    ~boot_delay:(interval /. 2.0)
    ~cooldown:(2.0 *. interval)
    ~min_servers:(max 1 (c.servers / 2))
    ~max_servers:(2 * c.servers) ~types ()

let run_typed c =
  let reg = registry () in
  let queries =
    match List.assoc_opt "bursty" (workloads c reg) with
    | Some qs -> qs
    | None -> assert false
  in
  let warmup_id = warmup_id c in
  let span_est = queries.(Array.length queries - 1).Query.arrival in
  let ecfg = elastic_config c reg ~span:span_est in
  let ctl = Elastic.create ecfg Elastic.sla_tree_policy ~initial_servers:c.servers in
  let acct = Tenancy.Acct.create reg ~warmup_id in
  let metrics = Metrics.create ~response_cap ~warmup_id () in
  let last_event = ref 0.0 in
  let on_server_event ~sid ~now ev =
    if now > !last_event then last_event := now;
    Elastic.on_server_event ctl ~sid ~now ev
  in
  let sess =
    Sim.session
      ~admit:(Tenancy.admit (Tenancy.admission ~theta:c.theta reg ~acct ()))
      ~on_dispatch:(fun ~now q d -> Elastic.on_dispatch ctl ~now q d)
      ~on_complete:(Tenancy.Acct.on_complete acct)
      ~on_server_event
      ~ticker:(ecfg.Elastic.interval, Elastic.tick ctl)
      ~n_servers:c.servers
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs))
      ~metrics ()
  in
  Array.iter (Sim.inject sess) queries;
  Sim.drain sess;
  Elastic.finalize ctl ~now:!last_event;
  let s = Elastic.summary ctl in
  {
    t_profit = Tenancy.Acct.total_profit acct;
    t_cost = s.Elastic.cost;
    t_typed_cost = s.Elastic.typed_cost;
    t_boots = s.Elastic.boots_by_type;
    t_peak_pool = s.Elastic.peak_pool;
  }

(* ------------------------------------------------------------------ *)
(* Report. No wall-clock anywhere: the output is part of the [-j N]
   determinism contract (CI cmp's serial vs parallel). *)

let run ppf c =
  let reg = registry () in
  Fmt.pf ppf
    "@.=== Multi-tenant economics: %s load %.2f burst x%.1f, %d queries, %d \
     servers, theta $%.2f, seed %d ===@."
    (Workloads.kind_name c.kind) c.load c.burst_high c.n_queries c.servers
    c.theta c.seed;
  Fmt.pf ppf "tenants:";
  Array.iter
    (fun p ->
      Fmt.pf ppf " %s(cls %d, tier %.1fx, share %d, slo %.0f%%)"
        p.Tenancy.pname p.Tenancy.cls p.Tenancy.tier p.Tenancy.share
        (100.0 *. p.Tenancy.slo_late))
    (reg : Tenancy.registry).Tenancy.profiles;
  Fmt.pf ppf "@.";
  let cells = grid c in
  Fmt.pf ppf
    "@.%-8s %-8s %-9s %12s %12s %6s %6s %6s %8s@." "workload" "pool"
    "admission" "profit" "turned-away" "rej" "deg" "late%" "fairness";
  List.iter
    (fun x ->
      Fmt.pf ppf "%-8s %-8s %-9s %12.1f %12.1f %6d %6d %5.1f%% %8.3f@."
        x.workload x.pool
        (if x.admission then "on" else "off")
        x.profit x.turned_away x.rejected x.degraded (100.0 *. x.late)
        x.fairness)
    cells;
  (* The headline comparison: what the probe-priced gatekeeper is
     worth on each overloaded configuration. *)
  Fmt.pf ppf "@.admission value (profit on - off):@.";
  List.iter
    (fun (wname, _) ->
      List.iter
        (fun (pname, _) ->
          let pick adm =
            List.find
              (fun x ->
                x.workload = wname && x.pool = pname && x.admission = adm)
              cells
          in
          let off = pick false and on = pick true in
          Fmt.pf ppf "  %-8s %-8s off $%.1f  on $%.1f  -> %+.1f%s@." wname
            pname off.profit on.profit
            (on.profit -. off.profit)
            (if on.profit > off.profit then "  [admission wins]" else ""))
        (pools c))
    (workloads c reg);
  (* Per-tenant detail for the hardest cell: bursty, uniform pool,
     admission on — burn-rate windows included. *)
  (match
     List.find_opt
       (fun x -> x.workload = "bursty" && x.pool = "uniform" && x.admission)
       cells
   with
  | Some x ->
    Fmt.pf ppf "@.per-tenant (bursty/uniform, admission on):@.%a@."
      Tenancy.pp_report x.report
  | None -> ());
  let t = run_typed c in
  Fmt.pf ppf
    "@.elastic typed pool (bursty, admission on): profit $%.1f  rent $%.1f \
     (typed $%.1f)  peak pool %d  boots=[%s]@."
    t.t_profit t.t_cost t.t_typed_cost t.t_peak_pool
    (String.concat "; "
       (List.map (fun (n, k) -> Printf.sprintf "%s:%d" n k) t.t_boots))
