(** Ablation studies beyond the paper's tables: the SLA-tree
    enhancement over every baseline scheduler, the full dispatching
    baseline ladder (Random/RR/SITA/LWL), admission control at
    overload, and learned (kNN) execution-time estimates vs perfect
    ones. *)

type sched_cell = {
  base_name : string;
  kind : Workloads.kind;
  base_loss : float;
  tree_loss : float;
}

val sched_compute :
  ?kinds:Workloads.kind list -> ?load:float -> Exp_scale.t -> sched_cell list

val sched_run : Format.formatter -> Exp_scale.t -> unit

type disp_cell = { disp_name : string; kind : Workloads.kind; loss : float }

val disp_compute :
  ?kinds:Workloads.kind list -> ?servers:int -> Exp_scale.t -> disp_cell list

val disp_run : Format.formatter -> Exp_scale.t -> unit

type admission_cell = {
  load : float;
  admission : bool;
  avg_loss : float;
  avg_profit : float;
  rejected : int;
}

val admission_compute : ?loads:float list -> Exp_scale.t -> admission_cell list
val admission_run : Format.formatter -> Exp_scale.t -> unit

type predictor_cell = {
  estimates : string;
  cbs_loss : float;
  tree_loss : float;
  mape : float;
}

val predictor_compute : Exp_scale.t -> predictor_cell list
val predictor_run : Format.formatter -> Exp_scale.t -> unit

type fairness_cell = {
  scheduler : string;
  label : string;
  class_loss : float;
  class_late_pct : float;
  n : int;
}

val fairness_compute :
  ?kind:Workloads.kind -> ?load:float -> Exp_scale.t -> fairness_cell list

val fairness_run : Format.formatter -> Exp_scale.t -> unit

type hetero_cell = { h_disp : string; h_loss : float }

val hetero_speeds : float array
val hetero_compute : ?kind:Workloads.kind -> Exp_scale.t -> hetero_cell list
val hetero_run : Format.formatter -> Exp_scale.t -> unit

type drop_cell = {
  d_load : float;
  d_drop : bool;
  d_avg_profit : float;
  d_dropped : int;
}

val drop_compute : ?loads:float list -> Exp_scale.t -> drop_cell list
val drop_run : Format.formatter -> Exp_scale.t -> unit

type optimality_cell = {
  n_queries : int;
  instances : int;
  mean_greedy_ratio : float;
  worst_greedy_ratio : float;
  mean_fcfs_ratio : float;
  greedy_optimal_pct : float;
}

val optimality_compute :
  ?sizes:int list -> ?instances:int -> seed:int -> unit -> optimality_cell list

val optimality_run : Format.formatter -> seed:int -> unit -> unit

(** Every ablation in sequence. *)
val run_all : Format.formatter -> Exp_scale.t -> unit
