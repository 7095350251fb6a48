(** Elastic server pool: SLA-tree-driven online autoscaling.

    A controller wakes every [interval] ms of simulated time, weighs
    the decision window's evidence against a $/server-interval price,
    and grows or shrinks the simulator's pool through
    {!Sim.add_server} / {!Sim.retire_server} (drain protocol).

    Two SLA-tree what-if probes feed the decisions: the fictitious
    idle-server margin [g0 - gi] (the {!Capacity.margin} probe,
    accumulated per window) answers "what would one more server have
    earned?", and the removal probe {!removal_cost} answers "what does
    retiring server s destroy?". Policies are pluggable; the
    controller owns cost accounting, hysteresis, cooldown, pool bounds
    and boot delay. *)

(** A bootable hardware tier. Typed servers bill {e per server}:
    uptime rounds UP to whole [st_quantum]s (clouds bill the started
    hour) at [st_price] per quantum — unlike the legacy flat-rate
    pool, whose cost is the un-rounded pool-size integral. *)
type server_type = {
  st_name : string;
  st_speed : float;  (** execution rate relative to a stock server *)
  st_price : float;  (** $ per started billing quantum *)
  st_quantum : float;  (** billing quantum, ms *)
  st_boot_delay : float;  (** ms before the server accepts work *)
}

(** Validating constructor. Defaults: [speed = 1.0], [boot_delay = 0]. *)
val server_type :
  ?speed:float ->
  ?boot_delay:float ->
  name:string ->
  price:float ->
  quantum:float ->
  unit ->
  server_type

(** [quantum_cost ty ~uptime] — the round-up bill: at least one
    quantum, then one per started [st_quantum] of uptime. *)
val quantum_cost : server_type -> uptime:float -> float

type config = {
  interval : float;  (** decision interval, ms *)
  cost_per_interval : float;  (** $ per server per interval *)
  boot_delay : float;  (** ms before a new server accepts work *)
  min_servers : int;
  max_servers : int;
  cooldown : float;
      (** minimum ms after any scale action before a scale-down is
          allowed; scale-ups are never throttled (demand ramps must be
          chased, flapping only ever shrinks too early) *)
  up_factor : float;  (** scale up when window gain > cost * up_factor *)
  down_factor : float;
      (** consider scale-down when window gain < cost * down_factor *)
  types : server_type array;
      (** bootable tiers the controller may choose among at each
          scale-up (picked by expected net: margin evidence scaled by
          the tier's speed and boot-readiness, minus its rent); empty
          = every boot is a stock server on the flat-rate integral,
          bit-identical to the pre-typed controller *)
}

(** Validating constructor. Defaults: no boot delay, no cooldown,
    [up_factor = 1.0], [down_factor = 0.5], no server types. *)
val config :
  ?boot_delay:float ->
  ?cooldown:float ->
  ?up_factor:float ->
  ?down_factor:float ->
  ?types:server_type array ->
  interval:float ->
  cost_per_interval:float ->
  min_servers:int ->
  max_servers:int ->
  unit ->
  config

(** One decision window's evidence plus instantaneous pool state. *)
type observation = {
  now : float;
  pool : int;  (** live servers (booting and draining included) *)
  accepting : int;  (** servers currently accepting dispatches *)
  queue_len : int;
  backlog : float;  (** summed estimated work left, ms *)
  arrivals : int;  (** dispatches since the last decision *)
  margin_per_query : float;  (** mean (g0 - gi) over the window *)
  removal_cost : float;
      (** cheapest-server removal probe; [infinity] when shrinking is
          not currently an option *)
  cfg : config;
}

type action = Scale_up of int | Scale_down of int | Hold

type policy = { name : string; decide : observation -> action }

val policy_name : policy -> string

(** The SLA-tree policy: scale up when the window's accumulated
    idle-server margin beats one interval's rent; scale down when the
    margin is far below the rent and the cheapest server's buffer
    migrates for less than one interval's rent. *)
val sla_tree_policy : policy

(** The predictive policy: the reactive rule of {!sla_tree_policy},
    plus a forecast branch that scales {e ahead} of predicted demand.
    [forecast] (default [Forecast.holt_winters ~season:24 ()]) is fed
    one sample per tick: the window's margin-priced gain (the same
    SLA-tree probe evidence the reactive rule thresholds). When the
    forecast of that series at [t + boot_delay] clears the rent, the
    policy boots now, so the server is online when the predicted
    demand lands. [horizon] overrides the forecast distance (default
    [ceil(boot_delay / interval)] ticks, min 1; the forecast is also
    read one tick further and the max taken — a server requested now
    serves both windows). A pending-boot guard keeps the forecast
    branch from re-buying the same predicted peak while its servers
    are still booting (the cooldown would not stop it: cooldown gates
    scale-downs only). Scale-down additionally requires the
    {e predicted} gain below the threshold, so capacity is held
    through a forecast trough-to-peak edge.

    When [obs] is enabled the policy sets the
    [elastic.forecast.predicted_gain] / [elastic.forecast.window_gain]
    gauges and emits one [elastic.forecast] instant per tick (category
    ["elastic"]) carrying the prediction every scale decision rested
    on.

    The policy holds run-local state (the forecaster and the pending
    guard): build a fresh one per run. *)
val predictive :
  ?obs:Obs.t -> ?forecast:Forecast.t -> ?horizon:int -> unit -> policy

(** [scheduled ~target ()] tracks an externally computed pool
    schedule: each tick moves the pool toward [target ~now] (clamped
    to the config bounds). Used with [Forecast.Oracle] schedules as
    the offline-optimal upper bound. Default [name] is ["oracle"]. *)
val scheduled : ?name:string -> target:(now:float -> int) -> unit -> policy

(** Profit-blind baseline on the average queue length per accepting
    server. Defaults: [up = 3.0], [down = 0.5]. *)
val queue_threshold : ?up:float -> ?down:float -> unit -> policy

(** Never scales (fixed pool under the same cost model). *)
val static : policy

(** "What if server [sid] were removed?": summed profit its buffered
    queries lose by migrating from their current slots to their best
    insertion on the remaining pool (clamped at zero per query — the
    probe measures destruction, and per-query relocations are already
    optimistic). 0 for an empty buffer. *)
val removal_cost : Sim.t -> sid:int -> float

(** Cheapest server to retire among those accepting work; [None]
    unless at least two accept (a drain must leave one). *)
val cheapest_removal : Sim.t -> (int * float) option

type summary = {
  server_time : float;
      (** integral of flat-rate pool size over time, ms*servers (typed
          servers bill per quantum and never enter this integral) *)
  cost : float;
      (** total rent: [server_time / interval * cost_per_interval]
          plus [typed_cost] *)
  typed_cost : float;  (** the quantum-billed share of [cost] *)
  boots_by_type : (string * int) list;
      (** boots per configured type, in [config.types] order *)
  scale_ups : int;
  scale_downs : int;
  peak_pool : int;
  min_pool : int;
  decisions : int;
  events : (float * action) list;  (** chronological scale actions *)
}

(** Controller state; wire {!on_dispatch}, {!on_server_event} and
    {!tick} into [Sim.run] (or use {!run}). *)
type t

(** When [obs] is an enabled sink, the controller counts its decisions
    ([elastic.decisions] / [elastic.holds] / [elastic.scale_ups] /
    [elastic.scale_downs]) and emits one instant trace event per
    applied scale action ([elastic.scale_up] / [elastic.scale_down],
    category ["elastic"]) whose args carry the probe evidence the
    decision rested on: window margin per query and gain, arrival
    count, removal-probe cost, the rent, and the pool size. *)
val create : ?obs:Obs.t -> config -> policy -> initial_servers:int -> t

(** Accumulates the window's idle-server margin evidence — wire as
    [Sim.run]'s [on_dispatch]. *)
val on_dispatch : t -> now:float -> Query.t -> Sim.decision -> unit

(** Tracks pool membership for the cost integral (boot and drain time
    are paid for) — compose into [Sim.run]'s [on_server_event]. *)
val on_server_event : t -> sid:int -> now:float -> Sim.server_event -> unit

(** One decision — wire as [Sim.run]'s ticker body. *)
val tick : t -> Sim.t -> unit

(** Close the cost integral at the run's last event time. *)
val finalize : t -> now:float -> unit

val summary : t -> summary

(** Column names of the controller's per-tick time series. *)
val timeseries_columns : string array

(** A fresh sampler over {!timeseries_columns}. *)
val timeseries : unit -> Obs.Timeseries.t

(** One-call harness: FCFS SLA-tree scheduling and dispatching, the
    controller on the ticker. [n_servers] is the
    initial pool. Returns the run metrics and the controller summary
    (net value = [Metrics.total_profit] − [summary.cost]).

    [obs] (default {!Obs.noop}) threads one sink through the whole
    run: the simulator core, the scheduler/dispatcher decision timers
    and the controller (see {!create}). [timeseries] — a sampler from
    {!timeseries} — receives one row per controller tick (pool,
    accepting, queue length, backlog, booting/draining counts,
    cumulative profit), sampled before the decision.

    [timers] and [on_server_event] pass through to {!Sim.run} (the
    latter runs {e in addition to} the controller's own accounting
    hook) — fault injectors wire in here
    without the controller depending on them. *)
val run :
  ?obs:Obs.t ->
  ?timeseries:Obs.Timeseries.t ->
  ?policy:policy ->
  ?drop_policy:(now:float -> Query.t -> bool) ->
  ?timers:(float * (Sim.t -> unit)) array ->
  ?on_server_event:(sid:int -> now:float -> Sim.server_event -> unit) ->
  config:config ->
  queries:Query.t array ->
  n_servers:int ->
  warmup_id:int ->
  unit ->
  Metrics.t * summary

val pp_action : Format.formatter -> action -> unit
val pp_summary : Format.formatter -> summary -> unit
