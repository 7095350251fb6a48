(* Equivalence licences: every fast decision path must make exactly
   the decisions of the slow path it stands in for. The SLA-tree
   scheduler's picks are checked against a brute-force what-if oracle,
   the O(1) FCFS dispatch route against the rebuild-per-candidate boxed
   tree, and the memoized flat dispatcher against the same oracle. Both
   sides are driven inside one simulation run, so every single decision
   is compared on identical state. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let trace ~kind ~sigma2 ~load ~servers ~n_queries ~seed =
  let error =
    if sigma2 > 0.0 then Estimate_error.gaussian ~sigma2 ()
    else Estimate_error.none
  in
  Trace.generate
    (Trace.config ~error ~kind ~profile:Workloads.Sla_b ~load ~servers
       ~n_queries ~seed ())

(* ------------------------------------------------------------------ *)
(* Scheduler: Schedulers.fcfs_sla_tree vs a brute-force oracle. *)

(* Net gain of rushing each buffered query to the front, every postpone
   answered by re-evaluating each SLA at its shifted completion
   ([Naive_whatif]) instead of by the tree. *)
let naive_rush_gains ~now buffer =
  let entries = Schedule.of_queries ~now buffer in
  Array.mapi
    (fun i e ->
      if i = 0 then 0.0
      else begin
        let q = e.Schedule.query in
        let tau = q.Query.est_size in
        let own =
          Query.profit_at q ~completion:(now +. tau)
          -. Query.profit_at q ~completion:(Schedule.completion e)
        in
        let loss =
          if tau = 0.0 then 0.0
          else Naive_whatif.postpone_by_recompute entries ~m:0 ~n:(i - 1) ~tau
        in
        own -. loss
      end)
    entries

(* The two sums add the same profit terms in different orders, so a
   pick counts as a mismatch only when the oracle finds a rush better
   by more than float noise. *)
let tolerance = 1e-6

(* Runs one simulation where each scheduling decision of the SLA-tree
   scheduler is checked against the oracle's best rush; returns
   (decisions, mismatches). *)
let run_scheduler_both ?drop_policy ?ticker ~queries ~servers () =
  let tree = Schedulers.pick Schedulers.fcfs_sla_tree in
  let decisions = ref 0 and mismatches = ref 0 in
  let pick ~now buffer =
    let i = tree ~now buffer in
    let gains = naive_rush_gains ~now buffer in
    let best = Array.fold_left Float.max neg_infinity gains in
    incr decisions;
    if gains.(i) < best -. tolerance then incr mismatches;
    i
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?drop_policy ?ticker ~queries ~n_servers:servers ~pick_next:pick
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  (!decisions, !mismatches)

let test_scheduler_equiv_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:101
  in
  let decisions, mismatches = run_scheduler_both ~queries ~servers:3 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches

let test_scheduler_equiv_pareto () =
  (* Heavy-tailed sizes plus estimation error: completions drift far
     from the estimates, so buffers deepen and rushes pay off. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.05 ~servers:2
      ~n_queries:1_500 ~seed:202
  in
  let decisions, mismatches = run_scheduler_both ~queries ~servers:2 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches

let test_scheduler_equiv_with_drops () =
  (* Overload with the drop policy on: buffers shrink mid-run and the
     picks must still be optimal rushes. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.6 ~servers:2
      ~n_queries:1_200 ~seed:303
  in
  let _, mismatches =
    run_scheduler_both ~drop_policy:Sim.drop_past_last_deadline ~queries
      ~servers:2 ()
  in
  check_int "no pick mismatches under drops" 0 mismatches

let prop_scheduler_equiv_random_seeds =
  QCheck.Test.make ~name:"scheduler picks equal over random seeds" ~count:8
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, heavy) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:2 ~n_queries:1_000 ~seed
      in
      let _, mismatches = run_scheduler_both ~queries ~servers:2 () in
      mismatches = 0)

let test_scheduler_end_to_end_metrics_equal () =
  (* Whole-trajectory check through the public API: the same SLA-tree
     stack run over an enabled [Obs] sink (instrumented pick, dispatch
     and event loop) must reproduce the bare run's metrics bit-for-bit.
     Observing never decides. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:404
  in
  let run obs =
    let metrics = Metrics.create ~warmup_id:500 () in
    Sim.run ~obs ~queries ~n_servers:3
      ~pick_next:(Schedulers.instantiate ~obs Schedulers.fcfs_sla_tree)
      ~dispatch:
        (Dispatchers.instantiate ~obs (Dispatchers.sla_tree Planner.fcfs))
      ~metrics ();
    metrics
  in
  let a = run Obs.noop in
  let b = run (Obs.create ()) in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

(* A scripted elasticity scenario for the ?ticker hook: grow the pool
   twice, then drain two servers (redistributing their buffers). *)
let scale_script () =
  let n = ref 0 in
  fun sim ->
    incr n;
    match !n with
    | 4 | 8 -> ignore (Sim.add_server sim)
    | 12 | 16 ->
      (* Retire the lowest-sid server still accepting work, keeping at
         least one accepting. *)
      if Sim.dispatchable_count sim > 1 then begin
        let sid = ref (-1) in
        for i = Sim.n_servers sim - 1 downto 0 do
          if Sim.dispatchable sim i then sid := i
        done;
        if !sid >= 0 then Sim.retire_server sim !sid
      end
    | _ -> ()

let test_scheduler_equiv_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:808
  in
  let decisions, mismatches =
    run_scheduler_both ~ticker:(400.0, scale_script ()) ~queries ~servers:3 ()
  in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches across scale events" 0 mismatches

(* ------------------------------------------------------------------ *)
(* Dispatcher: the O(1) FCFS route of [sla_tree Planner.fcfs] vs the
   rebuild-per-candidate boxed tree. *)

(* Satellite invariant of the rejection accounting: whenever the run
   is quiescent, every offered query was either admitted or rejected —
   refusals never leak into (or out of) the measured flow. *)
let check_balance m =
  check_int "offered = admitted + rejected" (Metrics.offered_count m)
    (Metrics.admitted_count m + Metrics.rejected_count m)

let same_delta a b =
  match (a, b) with
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* [sla_tree planner] against the rebuild-per-candidate boxed oracle,
   the same planner scheduling. A decision mismatches when the targets
   differ or the reported profit deltas are not bit-equal. *)
let run_dispatcher_both ?speeds ?ticker ?timers ?on_server_event
    ?(planner = Planner.fcfs) ~admission ~queries ~servers () =
  let d_fast =
    Dispatchers.instantiate (Dispatchers.sla_tree ~admission planner)
  in
  let d_oracle =
    Dispatchers.instantiate
      (Dispatchers.sla_tree ~admission ~memo:false ~impl:Sla_tree.Boxed
         planner)
  in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = d_fast sim q in
    let b = d_oracle sim q in
    incr decisions;
    if a.Sim.target <> b.Sim.target || not (same_delta a.est_delta b.est_delta)
    then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?speeds ?ticker ?timers ?on_server_event ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick (Schedulers.of_planner planner))
    ~dispatch ~metrics ();
  check_balance metrics;
  (!decisions, !mismatches)

let test_dispatcher_equiv_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:4
      ~n_queries:1_500 ~seed:505
  in
  let decisions, mismatches =
    run_dispatcher_both ~admission:false ~queries ~servers:4 ()
  in
  check_int "every arrival dispatched through both" 1_500 decisions;
  check_int "no target or delta mismatches" 0 mismatches

let test_dispatcher_equiv_pareto_heterogeneous () =
  (* Heterogeneous speeds: the O(1) profit must keep the paper's
     per-server speed scaling exactly like the tree-based what-if. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:606
  in
  let _, mismatches =
    run_dispatcher_both ~speeds:[| 1.0; 0.5; 2.0 |] ~admission:false ~queries
      ~servers:3 ()
  in
  check_int "no target or delta mismatches (heterogeneous)" 0 mismatches

let test_dispatcher_equiv_admission () =
  (* Saturated farm with admission control: accept/reject decisions
     (target = None) must also coincide. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.6 ~servers:2
      ~n_queries:1_200 ~seed:707
  in
  let _, mismatches =
    run_dispatcher_both ~admission:true ~queries ~servers:2 ()
  in
  check_int "no accept/reject or delta mismatches" 0 mismatches

let test_dispatcher_equiv_elastic () =
  (* Same scripted scale-up/drain scenario on the dispatcher pair:
     redistributed buffers arrive as ordinary dispatches and both
     paths must choose the same target throughout. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:909
  in
  let decisions, mismatches =
    run_dispatcher_both ~ticker:(400.0, scale_script ()) ~admission:false
      ~queries ~servers:3 ()
  in
  check_bool "dispatched (arrivals + redistributions)" true (decisions >= 1_500);
  check_int "no target or delta mismatches across scale events" 0 mismatches

let test_dispatcher_equiv_fault_storm () =
  (* A seeded storm of crashes and brownouts with retries and admission
     on: orphans re-enter the dispatcher, speeds change mid-query, and
     both routes must still agree on every accept, target and delta. *)
  let servers = 4 in
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.2 ~servers ~n_queries:1_500
      ~seed:1010
  in
  let horizon = queries.(Array.length queries - 1).Query.arrival in
  let plan =
    Fault.random_plan ~degrade_prob:0.5 ~seed:11 ~horizon ~n_servers:servers
      ~mttf:(horizon /. 4.0) ~mttr:(horizon /. 20.0) ()
  in
  let injector = Fault.create ~plan () in
  let decisions, mismatches =
    run_dispatcher_both ~timers:(Fault.timers injector)
      ~on_server_event:(Fault.on_server_event injector) ~admission:true
      ~queries ~servers ()
  in
  let st = Fault.stats injector in
  check_bool "storm crashed and degraded servers" true
    (st.Fault.crashes > 0 && st.Fault.degrades > 0);
  check_bool "orphans retried through the dispatcher" true
    (st.Fault.retries > 0 && decisions > 1_500);
  check_int "no accept/reject, target or delta mismatches" 0 mismatches

let prop_dispatcher_equiv_random_seeds =
  QCheck.Test.make ~name:"dispatcher targets equal over random seeds" ~count:8
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, heavy) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:3 ~n_queries:1_000 ~seed
      in
      let _, mismatches =
        run_dispatcher_both ~admission:false ~queries ~servers:3 ()
      in
      mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Flat vs boxed representation, memoized vs rebuild-per-candidate:
   the memoized dispatcher (probes over the flat arena-backed tree)
   against the historical oracle (no cache, boxed tree, rebuilt for
   every candidate), decision by decision on identical state. The
   planner defaults to SJF because FCFS takes the tree-free route
   checked above. *)

let run_dispatcher_flat_boxed ?speeds ?ticker ?timers ?(planner = Planner.sjf)
    ?(admission = false) ~queries ~servers () =
  run_dispatcher_both ?speeds ?ticker ?timers ~planner ~admission ~queries
    ~servers ()

let test_flat_boxed_dispatch_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:4
      ~n_queries:1_500 ~seed:1201
  in
  let decisions, mismatches =
    run_dispatcher_flat_boxed ~queries ~servers:4 ()
  in
  check_int "every arrival through both" 1_500 decisions;
  check_int "no target mismatches" 0 mismatches

let test_flat_boxed_dispatch_sorted_planners () =
  (* Non-FCFS time-invariant planners exercise the O(log n) sorted
     insertion rank against the oracle's append-and-sort rank. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:0.5 ~load:1.0 ~servers:3
      ~n_queries:1_200 ~seed:1202
  in
  List.iter
    (fun planner ->
      let _, mismatches =
        run_dispatcher_flat_boxed ~planner ~queries ~servers:3 ()
      in
      check_int
        (Printf.sprintf "no mismatches under %s" (Planner.name planner))
        0 mismatches)
    [ Planner.sjf; Planner.edf; Planner.value_edf ]

let test_flat_boxed_dispatch_heterogeneous_admission () =
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.4 ~servers:3
      ~n_queries:1_200 ~seed:1203
  in
  let _, mismatches =
    run_dispatcher_flat_boxed ~speeds:[| 1.0; 0.5; 2.0 |] ~admission:true
      ~queries ~servers:3 ()
  in
  check_int "no accept/reject mismatches" 0 mismatches

let test_flat_boxed_dispatch_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:1204
  in
  let decisions, mismatches =
    run_dispatcher_flat_boxed ~ticker:(400.0, scale_script ()) ~queries
      ~servers:3 ()
  in
  check_bool "dispatched (arrivals + redistributions)" true (decisions >= 1_500);
  check_int "no mismatches across scale events" 0 mismatches

(* Fault scenario: a brownout, a crash whose orphans retry through the
   dispatcher, and two repairs. Crashes void cached probe state, so
   this is the sharpest test of the generation-keyed memoization. *)
let fault_timers () =
  [|
    (250.0, fun sim -> Sim.degrade_server sim 0 ~factor:0.4);
    ( 400.0,
      fun sim ->
        List.iter
          (fun q -> Sim.reinject sim (Query.retried q))
          (Sim.crash_server sim 1) );
    (650.0, fun sim -> Sim.restore_server sim 0);
    (800.0, fun sim -> Sim.restore_server sim 1);
  |]

let test_flat_boxed_dispatch_faults () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1205
  in
  let decisions, mismatches =
    run_dispatcher_flat_boxed ~timers:(fault_timers ()) ~queries ~servers:3 ()
  in
  check_bool "dispatched (arrivals + retries)" true (decisions >= 1_500);
  check_int "no mismatches across crash/brownout/repair" 0 mismatches

let prop_flat_boxed_dispatch_random_seeds =
  QCheck.Test.make ~name:"memoized flat == boxed oracle over random seeds"
    ~count:8
    QCheck.(triple (int_bound 100_000) bool bool)
    (fun (seed, heavy, sorted) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let planner = if sorted then Planner.sjf else Planner.fcfs in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:3 ~n_queries:800 ~seed
      in
      let _, mismatches =
        run_dispatcher_flat_boxed ~planner ~queries ~servers:3 ()
      in
      mismatches = 0)

let test_flat_boxed_dispatch_metrics_equal () =
  (* Whole-trajectory check through the public API: the memoized flat
     default must reproduce the boxed no-cache oracle's end-to-end
     metrics bit-for-bit. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1206
  in
  let run d =
    let metrics = Metrics.create ~warmup_id:500 () in
    Sim.run ~queries ~n_servers:3
      ~pick_next:(Schedulers.pick Schedulers.sjf)
      ~dispatch:(Dispatchers.instantiate d)
      ~metrics ();
    metrics
  in
  let a = run (Dispatchers.sla_tree Planner.sjf) in
  let b = run (Dispatchers.sla_tree ~memo:false ~impl:Sla_tree.Boxed Planner.sjf) in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

let run_scheduler_flat_boxed ~planner ~queries ~servers () =
  let flat = Schedulers.pick (Schedulers.with_sla_tree planner) in
  let boxed =
    Schedulers.pick (Schedulers.with_sla_tree ~impl:Sla_tree.Boxed planner)
  in
  let decisions = ref 0 and mismatches = ref 0 in
  let pick ~now buffer =
    let a = flat ~now buffer in
    let b = boxed ~now buffer in
    incr decisions;
    if a <> b then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~queries ~n_servers:servers ~pick_next:pick
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  (!decisions, !mismatches)

let test_flat_boxed_scheduler () =
  List.iter
    (fun (planner, seed) ->
      let queries =
        trace ~kind:Workloads.Pareto ~sigma2:0.5 ~load:1.05 ~servers:2
          ~n_queries:1_000 ~seed
      in
      let decisions, mismatches =
        run_scheduler_flat_boxed ~planner ~queries ~servers:2 ()
      in
      check_bool
        (Printf.sprintf "made decisions (%d)" decisions)
        true (decisions > 100);
      check_int
        (Printf.sprintf "no pick mismatches under %s" (Planner.name planner))
        0 mismatches)
    [ (Planner.fcfs, 1301); (Planner.sjf, 1302); (Planner.value_edf, 1303) ]

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "equivalence"
    [
      ( "scheduler",
        [
          Alcotest.test_case "exp workload" `Quick test_scheduler_equiv_exp;
          Alcotest.test_case "pareto + estimate error" `Quick
            test_scheduler_equiv_pareto;
          Alcotest.test_case "drop policy" `Quick
            test_scheduler_equiv_with_drops;
          Alcotest.test_case "end-to-end metrics equal" `Quick
            test_scheduler_end_to_end_metrics_equal;
          Alcotest.test_case "elastic pool" `Quick test_scheduler_equiv_elastic;
          qtest prop_scheduler_equiv_random_seeds;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "exp workload" `Quick test_dispatcher_equiv_exp;
          Alcotest.test_case "pareto heterogeneous" `Quick
            test_dispatcher_equiv_pareto_heterogeneous;
          Alcotest.test_case "admission control" `Quick
            test_dispatcher_equiv_admission;
          Alcotest.test_case "elastic pool" `Quick test_dispatcher_equiv_elastic;
          Alcotest.test_case "fault storm (retries, brownouts, admission)"
            `Quick test_dispatcher_equiv_fault_storm;
          qtest prop_dispatcher_equiv_random_seeds;
        ] );
      ( "flat-vs-boxed",
        [
          Alcotest.test_case "exp workload" `Quick test_flat_boxed_dispatch_exp;
          Alcotest.test_case "sorted planners" `Quick
            test_flat_boxed_dispatch_sorted_planners;
          Alcotest.test_case "heterogeneous + admission" `Quick
            test_flat_boxed_dispatch_heterogeneous_admission;
          Alcotest.test_case "elastic pool" `Quick test_flat_boxed_dispatch_elastic;
          Alcotest.test_case "faults (crash, brownout, repair)" `Quick
            test_flat_boxed_dispatch_faults;
          Alcotest.test_case "end-to-end metrics equal" `Quick
            test_flat_boxed_dispatch_metrics_equal;
          Alcotest.test_case "scheduler picks equal" `Quick
            test_flat_boxed_scheduler;
          qtest prop_flat_boxed_dispatch_random_seeds;
        ] );
    ]
