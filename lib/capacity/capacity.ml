(* Capacity planning (paper Secs 6.3, 7.4): estimate the per-query
   profit margin of adding one server, without actually adding it.

   While the system runs with SLA-tree dispatching, every arrival
   reports g_i, the best insertion profit among real servers. We also
   compute g_0, the profit the query would earn on a fictitious idle
   server. Accumulating (g_0 - g_i) over the measured window
   approximates the profit a new server would add. The ground truth
   replays the identical trace with n and n+1 servers. *)

type estimate = {
  est_margin_per_query : float;  (** mean (g0 - gi) over measured queries *)
  avg_loss : float;  (** avg profit loss of the n-server run *)
  measured : int;
}

(* The probe both the estimator and the elastic controller accumulate:
   what the arriving query would have earned on a fictitious idle
   server beyond what the chosen real server offers. [None] when the
   dispatcher did not report its insertion profit. *)
let margin ~now q (d : Sim.decision) =
  match d.Sim.est_delta with
  | None -> None
  | Some gi -> Some (What_if.idle_server_profit ~now q -. gi)

(* The one shared run configuration: SLA-tree dispatching over
   [planner]-ordered buffers, [scheduler] picking next, fresh metrics.
   Both the estimation pass and the ground-truth replays go through
   here, so they cannot drift apart. *)
let run_sim ?on_dispatch ~queries ~n_servers ~planner ~scheduler ~warmup_id () =
  let metrics = Metrics.create ~warmup_id () in
  Sim.run ?on_dispatch ~queries ~n_servers
    ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(Dispatchers.instantiate (Dispatchers.sla_tree planner))
    ~metrics ();
  metrics

(* One run with [n_servers], returning the run metrics and the margin
   accumulator. [warmup_id] bounds the measured window. *)
let run_with_estimation ~queries ~n_servers ~planner ~scheduler ~warmup_id =
  let acc = Stats.create () in
  let on_dispatch ~now q (d : Sim.decision) =
    if q.Query.id >= warmup_id then
      match margin ~now q d with Some m -> Stats.add acc m | None -> ()
  in
  let metrics =
    run_sim ~on_dispatch ~queries ~n_servers ~planner ~scheduler ~warmup_id ()
  in
  ( metrics,
    {
      est_margin_per_query = Stats.mean acc;
      avg_loss = Metrics.avg_loss metrics;
      measured = Stats.count acc;
    } )

(* Ground truth (Sec 7.4): same trace, n vs n+1 servers; the margin is
   the gain in average per-query profit, i.e. the drop in average
   per-query loss. *)
let ground_truth ~queries ~n_servers ~planner ~scheduler ~warmup_id =
  let run m =
    Metrics.avg_profit
      (run_sim ~queries ~n_servers:m ~planner ~scheduler ~warmup_id ())
  in
  run (n_servers + 1) -. run n_servers
