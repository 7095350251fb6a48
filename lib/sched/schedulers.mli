(** Schedulers: named [Sim.pick_next] policies.

    Baselines execute the head of their planner's order; SLA-tree
    variants re-rank the whole buffer through the what-if analysis of
    paper Sec 6.1 on every decision. Every scheduler is stateless. *)

type t

val name : t -> string

(** The pick function, ready for [Sim.run]. When [obs] is an enabled
    sink, the pick is wrapped to record per-decision latency
    ([sched.decision_ns] histogram, [sched.decisions] counter); over
    the default {!Obs.noop} the unwrapped pick is returned. *)
val instantiate : ?obs:Obs.t -> t -> Sim.pick_next

(** [instantiate t] without instrumentation. *)
val pick : t -> Sim.pick_next

(** Run the head of the planner's order. *)
val of_planner : Planner.t -> t

(** Rush [argmax_i (own_gain_i - postpone(0, i-1, est_size_i))] over
    the planner's order. [?impl] picks the tree representation
    (equivalence suites pit flat against boxed here). *)
val with_sla_tree : ?impl:Sla_tree.impl -> Planner.t -> t

val fcfs : t
val sjf : t
val edf : t
val value_edf : t
val cbs : rate:float -> t
val fcfs_sla_tree : t
val sjf_sla_tree : t
val edf_sla_tree : t
val value_edf_sla_tree : t
val cbs_sla_tree : rate:float -> t
