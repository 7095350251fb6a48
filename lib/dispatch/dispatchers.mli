(** Dispatchers: named [Sim.dispatch] factories (paper Secs 2.3, 6.2).

    [instantiate] returns a fresh closure per run so stateful policies
    don't leak state across repeats. *)

type t

val name : t -> string

(** When [obs] is an enabled sink, the dispatch is wrapped to record
    per-decision latency ([dispatch.decision_ns] histogram,
    [dispatch.decisions] / [dispatch.rejected] counters); over the
    default {!Obs.noop} the raw closure is returned. *)
val instantiate : ?obs:Obs.t -> t -> Sim.dispatch

(** Constructor for dispatchers defined in other modules. *)
val v : name:string -> (unit -> Sim.dispatch) -> t

(** Uniformly random server. *)
val random : seed:int -> t

(** Cycle through servers. *)
val round_robin : t

(** Least-work-left: smallest estimated backlog wins. *)
val lwl : t

(** Profit delta of inserting [q] into server [sid]'s buffer as planned
    by [planner] (exposed for tests and capacity planning). [?impl]
    picks the tree representation; [?arena] reuses flat-tree storage
    across calls. *)
val insertion_profit :
  ?impl:Sla_tree.impl ->
  ?arena:Sla_tree.arena ->
  Planner.t ->
  Sim.t ->
  int ->
  Query.t ->
  float

(** O(1)-per-server profit of appending [q] to server [sid]'s FCFS
    schedule: under FCFS the newcomer ranks last and postpones nobody,
    so the what-if is its own profit at [now + est_work_left +
    est_size/speed]. *)
val insertion_profit_fcfs : Sim.t -> int -> Query.t -> float

(** SLA-tree dispatching: argmax of {!insertion_profit} over servers
    (exact profit ties fall back to least work left); reports the
    chosen delta through [est_delta]. With [admission], queries whose
    best delta is negative are rejected.

    The route follows the planner. When the newcomer ranks last
    ({!Planner.ranks_newcomer_last}, i.e. FCFS), each server answers
    through {!insertion_profit_fcfs} without any tree. Other
    time-invariant planners memoize one SLA-tree per server, keyed on
    the server's event generation and anchor time, and rebuild only
    when the server changed. CBS rebuilds per candidate. Every route
    makes the same decisions. [?memo:false] forces the
    rebuild-per-candidate path (the equivalence oracle); [?impl]
    selects the tree representation wherever a tree is built. *)
val sla_tree : ?admission:bool -> ?memo:bool -> ?impl:Sla_tree.impl -> Planner.t -> t
