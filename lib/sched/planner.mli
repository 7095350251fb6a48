(** Planners: the fixed execution order the SLA-tree requires.

    A planner maps the arrival-ordered buffer to a stable permutation
    (the planned execution order). Stability gives the paper's
    "very minor condition" (Sec 6.2): inserting a query never reorders
    the existing ones. *)

type t

val name : t -> string

(** Whether the planned order is independent of the decision time
    [now]. Probe caches may only reuse a plan across arrivals when
    true (CBS is the time-dependent exception). *)
val time_invariant : t -> bool

(** Whether a newcomer always ranks after the whole buffer (FCFS).
    Inserting it then postpones nobody, so the insertion what-if is
    the newcomer's own profit at the end of the schedule and needs no
    SLA-tree. *)
val ranks_newcomer_last : t -> bool

(** [plan t ~now buffer] is the permutation: [perm.(k)] is the buffer
    index of the k-th query to execute. *)
val plan : t -> now:float -> Query.t array -> int array

(** Buffer reordered into planned execution order. *)
val planned_queries : t -> now:float -> Query.t array -> Query.t array

(** First-come-first-serve: identity order. *)
val fcfs : t

(** Shortest-job-first on estimated sizes. *)
val sjf : t

(** Earliest (first) deadline first. *)
val edf : t

(** Value-based scheduling (Haritsa et al., cited in Sec 2.3): highest
    best-case SLA gain first, EDF within a value class. *)
val value_edf : t

(** Cost-based scheduling (Peha-Tobagi): descending expected loss per
    unit work under a memoryless extra wait [X ~ Exp(rate)]. *)
val cbs : rate:float -> t

(** CBS priority of a single query (exposed for tests). *)
val cbs_priority : rate:float -> now:float -> Query.t -> float

(** Position the query would take if inserted into the planned order
    of [buffer]; in [0 .. length buffer]. *)
val insertion_rank : t -> now:float -> Query.t array -> Query.t -> int

(** Same answer as {!insertion_rank} when [buffer] is already in
    planned order (the output of {!planned_queries}), but O(log n) for
    the built-in key-sort planners: the newcomer loses every tie, so
    its rank is the count of entries with key [<=] its own. *)
val insertion_rank_sorted : t -> now:float -> Query.t array -> Query.t -> int
