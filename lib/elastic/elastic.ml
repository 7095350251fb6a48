(* Elastic server pool: SLA-tree-driven online autoscaling.

   The paper's capacity-planning question — "what would one more
   server earn?" (Secs 6.3, 7.4) — answered *online* and closed into a
   control loop: a controller wakes every [interval] ms, weighs the
   window's evidence against a $/server-interval price, and grows or
   shrinks the simulator's pool (Sim.add_server / Sim.retire_server).

   Two SLA-tree what-if probes feed the decision:

   - scale-up: the fictitious-idle-server margin (g0 - gi), the same
     per-arrival probe Capacity accumulates — summed over a decision
     window it estimates the profit an (n+1)-th server would have
     added during that window;

   - scale-down: the removal probe "what if server s were gone?" —
     every query buffered on s loses the profit of its slot on s and
     earns its best insertion profit on the remaining pool instead.
     The server minimizing that loss is the cheapest to retire.

   Policies are pluggable (the SLA-tree policy above, a queue-length
   threshold baseline, and a static no-op); the controller owns the
   shared machinery: cost accounting (integral of pool size over
   time), hysteresis factors, cooldown, min/max pool bounds, and the
   boot delay on new servers. *)

(* A bootable hardware tier. Billing is per-server: uptime is rounded
   UP to a whole number of [st_quantum]s (clouds bill the started
   hour), at [st_price] $ per quantum — unlike the legacy flat-rate
   pool, which integrates pool-size over time with no rounding. *)
type server_type = {
  st_name : string;
  st_speed : float;  (** execution rate relative to a stock server *)
  st_price : float;  (** $ per started billing quantum *)
  st_quantum : float;  (** billing quantum, ms *)
  st_boot_delay : float;  (** ms before the server accepts work *)
}

let server_type ?(speed = 1.0) ?(boot_delay = 0.0) ~name ~price ~quantum () =
  if name = "" then invalid_arg "Elastic.server_type: name must be non-empty";
  if speed <= 0.0 then invalid_arg "Elastic.server_type: speed must be positive";
  if price < 0.0 then invalid_arg "Elastic.server_type: price must be non-negative";
  if quantum <= 0.0 then
    invalid_arg "Elastic.server_type: quantum must be positive";
  if boot_delay < 0.0 then
    invalid_arg "Elastic.server_type: boot_delay must be non-negative";
  { st_name = name; st_speed = speed; st_price = price; st_quantum = quantum;
    st_boot_delay = boot_delay }

(* A started quantum is a billed quantum; even a server retired within
   its first instant owes one. *)
let quantum_cost ty ~uptime =
  Float.max 1.0 (Float.ceil (uptime /. ty.st_quantum)) *. ty.st_price

type config = {
  interval : float;  (** decision interval, ms *)
  cost_per_interval : float;  (** $ per server per interval *)
  boot_delay : float;  (** ms before a new server accepts work *)
  min_servers : int;
  max_servers : int;
  cooldown : float;  (** ms after any scale action before a scale-down *)
  up_factor : float;  (** scale up when window gain > cost * up_factor *)
  down_factor : float;
      (** consider scale-down when window gain < cost * down_factor *)
  types : server_type array;
      (** bootable tiers; empty = every scale-up boots a stock server
          billed by the legacy flat-rate integral *)
}

let config ?(boot_delay = 0.0) ?(cooldown = 0.0) ?(up_factor = 1.0)
    ?(down_factor = 0.5) ?(types = [||]) ~interval ~cost_per_interval
    ~min_servers ~max_servers () =
  if interval <= 0.0 then invalid_arg "Elastic.config: interval must be positive";
  if cost_per_interval < 0.0 then
    invalid_arg "Elastic.config: cost must be non-negative";
  if boot_delay < 0.0 then
    invalid_arg "Elastic.config: boot_delay must be non-negative";
  if cooldown < 0.0 then invalid_arg "Elastic.config: cooldown must be non-negative";
  if min_servers < 1 then invalid_arg "Elastic.config: min_servers must be >= 1";
  if max_servers < min_servers then
    invalid_arg "Elastic.config: max_servers must be >= min_servers";
  if up_factor <= 0.0 || down_factor < 0.0 || down_factor > up_factor then
    invalid_arg "Elastic.config: need 0 <= down_factor <= up_factor, up_factor > 0";
  {
    interval;
    cost_per_interval;
    boot_delay;
    min_servers;
    max_servers;
    cooldown;
    up_factor;
    down_factor;
    types;
  }

(* What a policy sees at each decision point: one window's worth of
   evidence plus instantaneous pool state. *)
type observation = {
  now : float;
  pool : int;  (** live servers (booting and draining included) *)
  accepting : int;  (** servers currently accepting dispatches *)
  queue_len : int;  (** buffered queries across the pool *)
  backlog : float;  (** sum of estimated work left, ms *)
  arrivals : int;  (** dispatches since the last decision *)
  margin_per_query : float;
      (** mean (g0 - gi) over the window; 0 when no arrival reported *)
  removal_cost : float;
      (** cheapest-server removal probe; [infinity] when shrinking is
          not an option (pool at minimum, or probes unavailable) *)
  cfg : config;
}

type action = Scale_up of int | Scale_down of int | Hold

type policy = { name : string; decide : observation -> action }

let policy_name p = p.name

(* ------------------------------------------------------------------ *)
(* The removal probe. *)

(* Cost of retiring server [sid] right now: each query buffered on it
   would lose its current slot (its estimated profit in the server's
   FCFS schedule) and earn its best O(1) insertion profit on the rest
   of the pool instead. Queries that migrate at a profit contribute
   zero, not a negative cost: the probe asks what removal destroys,
   and independent per-query relocation estimates already err on the
   optimistic side (each ignores the others landing on the same
   target). The running query finishes on [sid] either way. *)
let removal_cost sim ~sid =
  let srv = Sim.server sim sid in
  let buffer = Sim.buffer_array srv in
  if Array.length buffer = 0 then 0.0
  else begin
    let m = Sim.n_servers sim in
    let slot_end = ref (Sim.est_free_at sim srv) in
    let cost = ref 0.0 in
    Array.iter
      (fun q ->
        slot_end := !slot_end +. (q.Query.est_size /. srv.Sim.speed);
        let here = Query.profit_at q ~completion:!slot_end in
        let best = ref neg_infinity in
        for j = 0 to m - 1 do
          if j <> sid && Sim.dispatchable sim j then begin
            let p = Dispatchers.insertion_profit_fcfs sim j q in
            if p > !best then best := p
          end
        done;
        if !best > neg_infinity then
          cost := !cost +. Float.max 0.0 (here -. !best))
      buffer;
    !cost
  end

(* The server cheapest to remove, among those accepting work (a drain
   must leave at least one accepting server, so [None] unless two or
   more accept). *)
let cheapest_removal sim =
  let m = Sim.n_servers sim in
  let accepting = ref 0 in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then incr accepting
  done;
  if !accepting < 2 then None
  else begin
    let best = ref None in
    for sid = 0 to m - 1 do
      if Sim.dispatchable sim sid then begin
        let c = removal_cost sim ~sid in
        match !best with
        | Some (_, bc) when bc <= c -> ()
        | _ -> best := Some (sid, c)
      end
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Policies. *)

(* The SLA-tree policy. Scale up when the window's accumulated idle-
   server margin — what an extra server would have earned — beats its
   price; scale down when the margin is far below the price AND the
   removal probe says the cheapest server's buffer migrates for less
   than one interval's rent. *)
let sla_tree_policy =
  {
    name = "SLA-tree";
    decide =
      (fun o ->
        let cfg = o.cfg in
        let gain = o.margin_per_query *. Float.of_int o.arrivals in
        let rent = cfg.cost_per_interval *. cfg.up_factor in
        if gain > rent then
          (* Evidence several rents deep means the pool lags a steep
             ramp; adding servers two at a time halves the chase.
             (Each margin sample priced one extra server, so k is
             capped well below gain / rent.) *)
          Scale_up (if gain > 4.0 *. rent then 2 else 1)
        else if
          gain < cfg.cost_per_interval *. cfg.down_factor
          && o.removal_cost < cfg.cost_per_interval
        then Scale_down 1
        else Hold);
  }

(* Predictive policy: the reactive SLA-tree rule, plus a forecast
   branch that prices the window a booting server would actually
   serve. An online forecaster is fed one sample per tick: the
   window's margin-priced gain (mean idle-server margin g0 - gi times
   the window's arrivals — exactly the evidence the reactive rule
   thresholds). Forecasting that series rather than raw arrivals is
   deliberate: the margin probe reads ~0 at a trough even when a peak
   is one boot-delay away, so predicted arrivals priced at the
   *current* margin can never fire before the reactive rule does.
   The gain series itself carries the cycle (the Holt–Winters
   seasonal slot remembers what this window earned last cycle), so
   its forecast clears the rent while the margin evidence is still
   flat — and the scale-up lands before the demand does.

   The forecast is read at [h = ceil(boot_delay / interval)] ticks
   ahead and at [h + 1] (a server requested now serves both windows),
   taking the max: predicted demand anywhere in the reachable span
   justifies booting now.

   State lives in the closure: the forecaster, plus a pending-boot
   list guarding the forecast branch against double-booting — a
   predicted peak must not be paid for again while the servers bought
   for it are still booting (the controller's cooldown gates
   scale-downs only, so nothing else would stop the repeat). The
   reactive branch is untouched: present evidence always justifies
   present capacity. Policies hold run-local state, so build a fresh
   one per run. *)
let predictive ?(obs = Obs.noop) ?forecast ?horizon () =
  let f =
    match forecast with
    | Some f -> f
    | None -> Forecast.holt_winters ~season:24 ()
  in
  let pending = ref [] in
  let gauges =
    if not (Obs.enabled obs) then None
    else
      let reg = Obs.registry obs in
      Some
        ( Obs.Registry.gauge reg "elastic.forecast.predicted_gain",
          Obs.Registry.gauge reg "elastic.forecast.window_gain" )
  in
  {
    name = "predictive/" ^ Forecast.name f;
    decide =
      (fun o ->
        let cfg = o.cfg in
        let gain = o.margin_per_query *. Float.of_int o.arrivals in
        Forecast.observe f gain;
        let h =
          match horizon with
          | Some h -> max 1 h
          | None ->
            max 1 (int_of_float (Float.ceil (cfg.boot_delay /. cfg.interval)))
        in
        (* Before the model has seen a full cycle its forecast is a
           smoothed level: it can only exceed the rent when current
           evidence dips below it, which is exactly when booting is
           wrong. No forecast until the shape is learned. *)
        (* Min over the two reachable windows: a real cycle edge
           clears the bar in adjacent windows too, while uncorrelated
           seasonal noise rarely does twice in a row. *)
        let gain_pred =
          if not (Forecast.ready f) then 0.0
          else
            Float.max 0.0
              (Float.min
                 (Forecast.predict f ~horizon:h)
                 (Forecast.predict f ~horizon:(h + 1)))
        in
        let rent = cfg.cost_per_interval *. cfg.up_factor in
        pending := List.filter (fun ready -> ready > o.now) !pending;
        (match gauges with
        | Some (g_pred, g_gain) ->
          Obs.Registry.set g_pred gain_pred;
          Obs.Registry.set g_gain gain;
          Obs.instant obs ~cat:"elastic"
            ~args:
              [
                ("sim_t", Obs.Trace.F o.now);
                ("horizon", Obs.Trace.I h);
                ("predicted_gain", Obs.Trace.F gain_pred);
                ("window_gain", Obs.Trace.F gain);
                ("rent", Obs.Trace.F rent);
                ("pending_boots", Obs.Trace.I (List.length !pending));
              ]
            "elastic.forecast"
        | None -> ());
        (* The forecast branch clears a higher bar than the reactive
           one: on a structureless signal the learned "seasonality" is
           noise around the level, and a bare rent threshold would buy
           capacity on every positive wiggle. A real cycle edge
           forecasts several rents deep, so the 1.5x bar costs it at
           most one tick. *)
        let bar = 1.5 *. rent in
        if gain > rent then begin
          let k = if gain > 4.0 *. rent then 2 else 1 in
          for _ = 1 to k do
            pending := (o.now +. cfg.boot_delay) :: !pending
          done;
          Scale_up k
        end
        else if !pending = [] && gain_pred > bar then begin
          let k = if gain_pred > 4.0 *. rent then 2 else 1 in
          for _ = 1 to k do
            pending := (o.now +. cfg.boot_delay) :: !pending
          done;
          Scale_up k
        end
        else if
          gain < cfg.cost_per_interval *. cfg.down_factor
          (* hold capacity only when a rent-clearing peak is within
             reach of the forecast, not on any mid-range prediction *)
          && gain_pred <= bar
          && o.removal_cost < cfg.cost_per_interval
        then Scale_down 1
        else Hold);
  }

(* Track an externally computed pool schedule (the offline oracle):
   each tick moves the pool toward the target for [now]. [pool]
   already counts booting servers, so the tracking converges without
   double-booting. *)
let scheduled ?(name = "oracle") ~target () =
  {
    name;
    decide =
      (fun o ->
        let tgt =
          max o.cfg.min_servers (min o.cfg.max_servers (target ~now:o.now))
        in
        if tgt > o.pool then Scale_up (tgt - o.pool)
        else if tgt < o.pool then Scale_down (o.pool - tgt)
        else Hold);
  }

(* Profit-blind baseline: react to the average queue length per
   accepting server. *)
let queue_threshold ?(up = 3.0) ?(down = 0.5) () =
  if down >= up then invalid_arg "Elastic.queue_threshold: need down < up";
  {
    name = "queue-threshold";
    decide =
      (fun o ->
        let per =
          Float.of_int o.queue_len /. Float.of_int (max 1 o.accepting)
        in
        if per > up then Scale_up 1
        else if per < down && o.removal_cost < infinity then Scale_down 1
        else Hold);
  }

let static = { name = "static"; decide = (fun _ -> Hold) }

(* ------------------------------------------------------------------ *)
(* Controller. *)

type summary = {
  server_time : float;
      (** integral of flat-rate pool size over the run, ms*servers
          (typed servers are excluded — they bill per quantum) *)
  cost : float;
      (** total rent: flat-rate integral cost plus quantum-billed typed
          server cost *)
  typed_cost : float;  (** the quantum-billed share of [cost] *)
  boots_by_type : (string * int) list;
      (** scale-up boots per configured type, in [config.types] order *)
  scale_ups : int;
  scale_downs : int;
  peak_pool : int;
  min_pool : int;
  decisions : int;
  events : (float * action) list;  (** chronological scale actions *)
}

(* Pre-resolved observability handles (see Obs's cost discipline). *)
type ostats = {
  o_ups : Obs.Registry.counter;
  o_downs : Obs.Registry.counter;
  o_decisions : Obs.Registry.counter;
  o_holds : Obs.Registry.counter;
}

type t = {
  cfg : config;
  policy : policy;
  obs : Obs.t;
  ostats : ostats option;
  mutable pool : int;
  mutable acct_t : float;  (* last cost-accounting instant *)
  mutable acc : float;  (* integral of pool over time *)
  mutable last_action : float;
  (* evidence window, reset at each decision *)
  mutable win_margin_sum : float;
  mutable win_margin_n : int;
  mutable win_arrivals : int;
  (* lifetime counters *)
  mutable ups : int;
  mutable downs : int;
  mutable peak : int;
  mutable low : int;
  mutable decisions : int;
  mutable events_rev : (float * action) list;
  (* typed (quantum-billed) servers: sid -> (type, boot instant), kept
     sorted by sid so cost sums fold in a deterministic order *)
  mutable typed : (int * (server_type * float)) list;
  mutable typed_cost : float;  (* quanta already billed (retired servers) *)
  boot_counts : int array;  (* boots per cfg.types index *)
}

let create ?(obs = Obs.noop) cfg policy ~initial_servers =
  if initial_servers < 1 then
    invalid_arg "Elastic.create: initial_servers must be >= 1";
  let ostats =
    if not (Obs.enabled obs) then None
    else begin
      let reg = Obs.registry obs in
      Some
        {
          o_ups = Obs.Registry.counter reg "elastic.scale_ups";
          o_downs = Obs.Registry.counter reg "elastic.scale_downs";
          o_decisions = Obs.Registry.counter reg "elastic.decisions";
          o_holds = Obs.Registry.counter reg "elastic.holds";
        }
    end
  in
  {
    cfg;
    policy;
    obs;
    ostats;
    pool = initial_servers;
    acct_t = 0.0;
    acc = 0.0;
    last_action = neg_infinity;
    win_margin_sum = 0.0;
    win_margin_n = 0;
    win_arrivals = 0;
    ups = 0;
    downs = 0;
    peak = initial_servers;
    low = initial_servers;
    decisions = 0;
    events_rev = [];
    typed = [];
    typed_cost = 0.0;
    boot_counts = Array.make (Array.length cfg.types) 0;
  }

(* The flat-rate integral covers only servers without an explicit
   type; typed servers are billed per started quantum instead (and so
   never enter [acc] — with [cfg.types] empty this is exactly the
   historical pool integral, bit for bit). *)
let account c ~now =
  if now > c.acct_t then begin
    let flat = c.pool - List.length c.typed in
    c.acc <- c.acc +. ((now -. c.acct_t) *. Float.of_int flat);
    c.acct_t <- now
  end

(* Wire as [Sim.run]'s [on_dispatch]: accumulates the window's
   idle-server margin evidence. *)
let on_dispatch c ~now q d =
  c.win_arrivals <- c.win_arrivals + 1;
  match Capacity.margin ~now q d with
  | Some m ->
    c.win_margin_sum <- c.win_margin_sum +. m;
    c.win_margin_n <- c.win_margin_n + 1
  | None -> ()

(* Wire as (part of) [Sim.run]'s [on_server_event]: tracks pool
   membership for the cost integral. Scale-ups are charged from the
   moment the server is requested (boot time is paid for), drains
   until the server actually leaves. *)
let on_server_event c ~sid ~now ev =
  match ev with
  | Sim.Scaled_up ->
    account c ~now;
    c.pool <- c.pool + 1;
    if c.pool > c.peak then c.peak <- c.pool
  | Sim.Retired ->
    (match List.assoc_opt sid c.typed with
    | Some (ty, since) ->
      (* bill before shrinking the pool: the typed server is excluded
         from the flat integral either way *)
      account c ~now;
      c.typed_cost <- c.typed_cost +. quantum_cost ty ~uptime:(now -. since);
      c.typed <- List.remove_assoc sid c.typed
    | None -> account c ~now);
    c.pool <- c.pool - 1;
    if c.pool < c.low then c.low <- c.pool
  | Sim.Started _ | Sim.Enqueued _ | Sim.Finished _ | Sim.Dropped _
  | Sim.Draining ->
    ()
  (* A crashed ([Down]) server still occupies a machine — the provider
     keeps paying for it until it is repaired or retired — so fault
     transitions do not move the cost integral. *)
  | Sim.Crashed | Sim.Degraded _ | Sim.Restored -> ()

let observe c sim =
  let now = Sim.now sim in
  let m = Sim.n_servers sim in
  let queue = ref 0 and backlog = ref 0.0 and accepting = ref 0 in
  for sid = 0 to m - 1 do
    let s = Sim.server sim sid in
    if Sim.server_state sim sid <> Sim.Retired then begin
      queue := !queue + Sim.buffer_length s;
      backlog := !backlog +. Sim.est_work_left sim s
    end;
    if Sim.dispatchable sim sid then incr accepting
  done;
  let margin =
    if c.win_margin_n = 0 then 0.0
    else c.win_margin_sum /. Float.of_int c.win_margin_n
  in
  let removal =
    if c.pool <= c.cfg.min_servers then infinity
    else match cheapest_removal sim with Some (_, cost) -> cost | None -> infinity
  in
  {
    now;
    pool = c.pool;
    accepting = !accepting;
    queue_len = !queue;
    backlog = !backlog;
    arrivals = c.win_arrivals;
    margin_per_query = margin;
    removal_cost = removal;
    cfg = c.cfg;
  }

(* One instant trace event per applied scale action, carrying the
   probe evidence the decision rested on: the window's idle-server
   margin (g0 - gi) and the cheapest-removal what-if. Only called when
   the sink is enabled. *)
let decision_event c o ~name ~k ~pool_after =
  Obs.instant c.obs ~cat:"elastic"
    ~args:
      [
        ("k", Obs.Trace.I k);
        ("sim_t", Obs.Trace.F o.now);
        ("pool", Obs.Trace.I pool_after);
        ("arrivals", Obs.Trace.I o.arrivals);
        ("margin_per_query", Obs.Trace.F o.margin_per_query);
        ( "window_gain",
          Obs.Trace.F (o.margin_per_query *. Float.of_int o.arrivals) );
        ("removal_cost", Obs.Trace.F o.removal_cost);
        ("rent", Obs.Trace.F c.cfg.cost_per_interval);
      ]
    name

(* Which tier should the next boot be? Score each type's expected net
   over one interval: the window's idle-server margin evidence scaled
   by the type's speed (a 2x server captures roughly twice what the
   stock-speed probe priced), discounted by the fraction of the
   interval lost to booting, minus the type's steady-state rent for
   one interval. Deterministic argmax, first-listed type on ties. *)
let choose_type cfg o =
  let gain = o.margin_per_query *. Float.of_int o.arrivals in
  let best = ref 0 and best_score = ref neg_infinity in
  Array.iteri
    (fun i ty ->
      let ready = Float.max 0.0 (1.0 -. (ty.st_boot_delay /. cfg.interval)) in
      let rent = ty.st_price *. cfg.interval /. ty.st_quantum in
      let score = (gain *. ty.st_speed *. ready) -. rent in
      if score > !best_score then begin
        best := i;
        best_score := score
      end)
    cfg.types;
  !best

(* One decision: build the observation, ask the policy, clamp to the
   configured bounds and cooldown, apply through the Sim pool API.
   Wire as [Sim.run]'s ticker body. *)
let tick c sim =
  let now = Sim.now sim in
  account c ~now;
  c.decisions <- c.decisions + 1;
  let cfg = c.cfg in
  let obs = observe c sim in
  (* The cooldown throttles shrinking only: a scale-up must stay
     reactive (a diurnal ramp adds a server's worth of demand every
     couple of intervals), while a scale-down right after any action
     is the flapping the cooldown exists to damp. *)
  let proposed =
    match c.policy.decide obs with
    | Scale_down _ when now -. c.last_action < cfg.cooldown -> Hold
    | a -> a
  in
  let action =
    match proposed with
    | Hold -> Hold
    | Scale_up k ->
      let k = min k (cfg.max_servers - c.pool) in
      if k > 0 then Scale_up k else Hold
    | Scale_down k ->
      let k = min k (c.pool - cfg.min_servers) in
      (* never drain the last accepting server *)
      let k = min k (obs.accepting - 1) in
      if k > 0 then Scale_down k else Hold
  in
  (match c.ostats with
  | Some s -> Obs.Registry.incr s.o_decisions
  | None -> ());
  (match action with
  | Hold -> (
    match c.ostats with
    | Some s -> Obs.Registry.incr s.o_holds
    | None -> ())
  | Scale_up k ->
    let boot () =
      if Array.length cfg.types = 0 then
        ignore (Sim.add_server ~boot_delay:cfg.boot_delay sim)
      else begin
        let ti = choose_type cfg obs in
        let ty = cfg.types.(ti) in
        let sid =
          Sim.add_server ~speed:ty.st_speed ~boot_delay:ty.st_boot_delay sim
        in
        c.typed <-
          List.merge
            (fun (a, _) (b, _) -> Int.compare a b)
            c.typed
            [ (sid, (ty, now)) ];
        c.boot_counts.(ti) <- c.boot_counts.(ti) + 1
      end
    in
    for _ = 1 to k do boot () done;
    c.ups <- c.ups + k;
    c.last_action <- now;
    c.events_rev <- (now, action) :: c.events_rev;
    (match c.ostats with
    | Some s ->
      Obs.Registry.add s.o_ups k;
      decision_event c obs ~name:"elastic.scale_up" ~k ~pool_after:c.pool
    | None -> ())
  | Scale_down k ->
    let retired = ref 0 in
    for _ = 1 to k do
      match cheapest_removal sim with
      | Some (sid, _) ->
        Sim.retire_server sim sid;
        incr retired
      | None -> ()
    done;
    if !retired > 0 then begin
      c.downs <- c.downs + !retired;
      c.last_action <- now;
      c.events_rev <- (now, Scale_down !retired) :: c.events_rev;
      match c.ostats with
      | Some s ->
        Obs.Registry.add s.o_downs !retired;
        decision_event c obs ~name:"elastic.scale_down" ~k:!retired
          ~pool_after:c.pool
      | None -> ()
    end);
  (* fresh evidence window *)
  c.win_margin_sum <- 0.0;
  c.win_margin_n <- 0;
  c.win_arrivals <- 0

(* Close the cost integral at the simulation's last event and bill
   every still-running typed server up to it. *)
let finalize c ~now =
  account c ~now;
  List.iter
    (fun (_, (ty, since)) ->
      c.typed_cost <- c.typed_cost +. quantum_cost ty ~uptime:(now -. since))
    c.typed;
  c.typed <- []

let summary c =
  {
    server_time = c.acc;
    cost = (c.acc /. c.cfg.interval *. c.cfg.cost_per_interval) +. c.typed_cost;
    typed_cost = c.typed_cost;
    boots_by_type =
      Array.to_list
        (Array.mapi (fun i ty -> (ty.st_name, c.boot_counts.(i))) c.cfg.types);
    scale_ups = c.ups;
    scale_downs = c.downs;
    peak_pool = c.peak;
    min_pool = c.low;
    decisions = c.decisions;
    events = List.rev c.events_rev;
  }

(* ------------------------------------------------------------------ *)
(* One-call harness: FCFS SLA-tree scheduling and dispatching (the
   dispatcher's O(1) FCFS route, whose [est_delta] feeds the margin
   probe), the controller on the ticker, the drop policy of footnote 2
   unless overridden. *)

let timeseries_columns =
  [|
    "pool"; "accepting"; "queue_len"; "backlog"; "booting"; "draining";
    "cum_profit";
  |]

let timeseries () = Obs.Timeseries.create ~columns:timeseries_columns

(* One timeseries row per controller tick, sampled before the decision
   so the row reflects the state the policy saw. *)
let sample_timeseries c ts metrics sim =
  let m = Sim.n_servers sim in
  let queue = ref 0
  and backlog = ref 0.0
  and accepting = ref 0
  and booting = ref 0
  and draining = ref 0 in
  for sid = 0 to m - 1 do
    let s = Sim.server sim sid in
    (match Sim.server_state sim sid with
    | Sim.Retired -> ()
    | st ->
      queue := !queue + Sim.buffer_length s;
      backlog := !backlog +. Sim.est_work_left sim s;
      (match st with
      | Sim.Booting _ -> incr booting
      | Sim.Draining -> incr draining
      (* [Down] servers hold no work (crash cleared the buffer); their
         zero contribution falls out of the sums above. *)
      | Sim.Active | Sim.Down | Sim.Retired -> ()));
    if Sim.dispatchable sim sid then incr accepting
  done;
  Obs.Timeseries.sample ts ~now:(Sim.now sim)
    [|
      Float.of_int c.pool;
      Float.of_int !accepting;
      Float.of_int !queue;
      !backlog;
      Float.of_int !booting;
      Float.of_int !draining;
      Metrics.total_profit metrics;
    |]

let run ?(obs = Obs.noop) ?timeseries ?(policy = sla_tree_policy) ?drop_policy
    ?timers ?on_server_event:(extra_hook = fun ~sid:_ ~now:_ _ -> ())
    ~config:cfg ~queries ~n_servers ~warmup_id () =
  let c = create ~obs cfg policy ~initial_servers:n_servers in
  let metrics = Metrics.create ~warmup_id () in
  let pick_next = Schedulers.instantiate ~obs Schedulers.fcfs_sla_tree in
  let dispatch =
    Dispatchers.instantiate ~obs (Dispatchers.sla_tree Planner.fcfs)
  in
  let last_event = ref 0.0 in
  let on_server_event ~sid ~now ev =
    if now > !last_event then last_event := now;
    on_server_event c ~sid ~now ev;
    extra_hook ~sid ~now ev
  in
  let ticker_body =
    match timeseries with
    | None -> tick c
    | Some ts ->
      fun sim ->
        sample_timeseries c ts metrics sim;
        tick c sim
  in
  Sim.run ~obs ?drop_policy ?timers
    ~on_dispatch:(fun ~now q d -> on_dispatch c ~now q d)
    ~on_server_event
    ~ticker:(cfg.interval, ticker_body)
    ~queries ~n_servers ~pick_next ~dispatch ~metrics ();
  finalize c ~now:!last_event;
  (metrics, summary c)

let pp_action ppf = function
  | Scale_up k -> Fmt.pf ppf "+%d" k
  | Scale_down k -> Fmt.pf ppf "-%d" k
  | Hold -> Fmt.pf ppf "hold"

let pp_summary ppf s =
  Fmt.pf ppf
    "server_time=%.0f cost=%.2f ups=%d downs=%d pool=[%d..%d] decisions=%d"
    s.server_time s.cost s.scale_ups s.scale_downs s.min_pool s.peak_pool
    s.decisions;
  if s.boots_by_type <> [] then begin
    Fmt.pf ppf " boots=[";
    List.iteri
      (fun i (n, k) -> Fmt.pf ppf "%s%s:%d" (if i > 0 then " " else "") n k)
      s.boots_by_type;
    Fmt.pf ppf "] typed_cost=%.2f" s.typed_cost
  end
