(* Shared experiment plumbing: named policy sets and repeat-averaged
   simulation runs. *)

type sched_kind = Fcfs | Fcfs_tree | Cbs | Cbs_tree

let sched_name = function
  | Fcfs -> "FCFS"
  | Fcfs_tree -> "FCFS+SLA-tree"
  | Cbs -> "CBS"
  | Cbs_tree -> "CBS+SLA-tree"

(* CBS's memoryless waiting-time rate: one over the workload's mean
   execution time. *)
let cbs_rate kind = 1.0 /. Workloads.nominal_mean_ms kind

let scheduler_of kind wl =
  match kind with
  | Fcfs -> Schedulers.fcfs
  | Fcfs_tree -> Schedulers.fcfs_sla_tree
  | Cbs -> Schedulers.cbs ~rate:(cbs_rate wl)
  | Cbs_tree -> Schedulers.cbs_sla_tree ~rate:(cbs_rate wl)

type disp_kind = Lwl_cbs | Lwl_tree_sched | Tree_tree

let disp_name = function
  | Lwl_cbs -> "LWL / CBS"
  | Lwl_tree_sched -> "LWL / CBS+SLA-tree"
  | Tree_tree -> "SLA-tree / CBS+SLA-tree"

(* Dispatching experiments (Sec 7.3) keep CBS as the base scheduling;
   the SLA-tree dispatcher plans buffers with the CBS order. *)
let dispatch_setup kind wl =
  let rate = cbs_rate wl in
  let planner = Planner.cbs ~rate in
  match kind with
  | Lwl_cbs -> (Dispatchers.lwl, Schedulers.cbs ~rate)
  | Lwl_tree_sched -> (Dispatchers.lwl, Schedulers.cbs_sla_tree ~rate)
  | Tree_tree -> (Dispatchers.sla_tree planner, Schedulers.cbs_sla_tree ~rate)

(* One simulation run; returns the metrics. *)
let run_once ~trace_cfg ~n_servers ~scheduler ~dispatcher ~warmup_id =
  let queries = Trace.generate trace_cfg in
  let metrics = Metrics.create ~warmup_id () in
  Sim.run ~queries ~n_servers ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  metrics

(* Average loss per query over the scale's repeats (fresh seed each).
   Repeats are independent — each builds its own trace, metrics and
   scheduler state from its own seed — so they fan out across the
   ambient [Parallel] pool; the per-repeat losses come back in repeat
   order and are folded serially, keeping the reported mean
   bit-identical to the serial run whatever the worker count. *)
let avg_loss_over_repeats (scale : Exp_scale.t) ~make_trace_cfg ~n_servers
    ~scheduler ~dispatcher =
  let losses =
    Parallel.map_ordered
      (fun repeat ->
        let trace_cfg = make_trace_cfg ~seed:(Exp_scale.seed scale ~repeat) in
        let metrics =
          run_once ~trace_cfg ~n_servers ~scheduler ~dispatcher
            ~warmup_id:scale.warmup
        in
        Metrics.avg_loss metrics)
      (Array.init scale.repeats Fun.id)
  in
  let acc = Stats.create () in
  Array.iter (Stats.add acc) losses;
  Stats.mean acc
