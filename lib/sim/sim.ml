(* Event-driven multi-server queueing simulator (paper Sec 2.2, Fig 4).

   Queries arrive at a central dispatcher, are assigned to one of the
   pool's servers (each with a single buffer), and a per-server
   scheduler picks the next buffered query whenever the server goes
   idle.

   Decision makers (dispatcher, scheduler) see estimated execution
   times; the server is busy for the *actual* execution time.

   The pool is dynamic: servers can be added mid-run ([add_server],
   optionally with a boot delay before they accept work) and retired
   through a drain protocol ([retire_server]: the server stops
   receiving dispatches, its buffer is either redistributed through
   the dispatcher or drained in place, and it leaves the pool once its
   last query completes). Server ids are never reused.

   Non-graceful transitions (lib/fault drives these): [crash_server]
   kills the machine outright — the running query and the buffer are
   orphaned and returned to the caller, who decides between
   re-injection ([reinject], the retry path) and loss; [set_speed] /
   [degrade_server] change the service rate mid-run (brownout), with
   the running query's completion rescheduled for the remaining work;
   [restore_server] undoes either. A crash or reschedule invalidates
   the server's pending entry in the completion heap; entries carry a
   per-start token and stale ones are skipped on pop (lazy deletion —
   the heap never needs decrease-key).

   Hot-path notes: buffers are array-backed FIFO deques (O(1) append,
   O(1) length) and each server carries [est_backlog], the sum of
   buffered estimated sizes, maintained incrementally on
   enqueue/start/drop. [est_work_left] — asked once per server per
   arrival by LWL and the SLA-tree dispatcher — is therefore O(1)
   instead of a fold over the buffer. *)

type running = {
  rquery : Query.t;
  started : float;
  act_finish : float;  (** real completion; drives the event loop *)
  est_finish : float;  (** what decision makers believe *)
}

(* Pool-membership life cycle. [Booting until] servers count as pool
   members (they cost money) but accept no work before [until];
   [Draining] servers accept no new work and leave the pool
   ([Retired]) once their running query and any un-redistributed
   buffer are gone. [Down] servers crashed: they hold no work, accept
   none, and still occupy (and cost) a machine until repaired
   ([restore_server]) or given up on ([retire_server]). *)
type server_state = Booting of float | Active | Draining | Down | Retired

type server = {
  sid : int;
  mutable speed : float;
      (** current processing rate; execution takes size/speed *)
  nominal : float;  (** the rate the server was provisioned with *)
  mutable running : running option;
  buffer : Query.t Deque.t;  (** arrival order, oldest first *)
  mutable est_backlog : float;
      (** sum of [est_size] over the buffer (raw, not speed-scaled) *)
  mutable state : server_state;
  mutable run_token : int;
      (** token of the server's live completion-heap entry; entries
          whose token no longer matches are stale and skipped *)
  mutable gen : int;
      (** event generation: bumped on every emitted server event, i.e.
          whenever the buffer, running query, speed or life-cycle state
          changes. Probe caches key on it to reuse per-server SLA-trees
          across arrivals. *)
}

(* Per-server life-cycle notifications, consumed by controllers, fault
   injectors and the serving daemon. Within one
   completion the order is: Finished, Dropped*, [pick_next], Started;
   an arrival emits Enqueued (busy server) or Started (idle server).
   Pool membership changes emit Scaled_up (server added), Draining
   (retirement initiated; a redistributed buffer re-enters through the
   dispatcher, emitting fresh Enqueued/Started events on the targets)
   and Retired (the server left the pool for good). Fault transitions
   emit Crashed (all per-server scheduler state is garbage — the
   orphans leave through [crash_server]'s return value, not through
   Dropped events), Degraded (service rate changed mid-run) and
   Restored (rate back to nominal, or a Down server repaired). *)
type server_event =
  | Started of Query.t
  | Enqueued of Query.t
  | Finished of { query : Query.t; actual : float }
  | Dropped of Query.t
  | Scaled_up
  | Draining
  | Retired
  | Crashed
  | Degraded of float  (** the new service rate *)
  | Restored

type t = {
  mutable servers : server array;
  mutable now : float;
  completions : (float * int * int) Heap.t;  (** (time, server, token) *)
  mutable token_counter : int;  (** completion-entry tokens, unique per start *)
  mutable on_event : (sid:int -> now:float -> server_event -> unit) option;
  mutable arrive : (Query.t -> unit) option;
      (** the full arrival path (dispatch + metrics + observers), set
          by [session]; re-entered when a drain redistributes a buffer
          or a crash handler re-injects a retry *)
}

(* [pick_next ~now buffer] returns the index (into the arrival-ordered
   [buffer]) of the query to execute next. *)
type pick_next = now:float -> Query.t array -> int

type decision = { target : int option; est_delta : float option }

type dispatch = t -> Query.t -> decision

(* An admission controller's verdict on an arriving query, delivered
   before the dispatcher sees it. [Degrade] swaps in a cheaper copy of
   the same query (down-tiered SLA); it must keep the id. *)
type verdict =
  | Admit
  | Degrade of Query.t
  | Reject

type admit = t -> Query.t -> verdict

let n_servers t = Array.length t.servers
let server t i = t.servers.(i)
let now t = t.now

let buffer_array s = Deque.to_array s.buffer

let buffer_length s = Deque.length s.buffer

(* Every state change a probe cache could care about funnels through
   here, so the generation bump happens whether or not an observer is
   installed. *)
let emit t s ev =
  s.gen <- s.gen + 1;
  match t.on_event with None -> () | Some f -> f ~sid:s.sid ~now:t.now ev

(* Whether the server currently accepts dispatches. Booting servers
   whose boot delay has elapsed are promoted to [Active] lazily. *)
let dispatchable_server t s =
  match s.state with
  | Active -> true
  | Booting ready when ready <= t.now ->
    s.state <- Active;
    true
  | Booting _ | Draining | Down | Retired -> false

let dispatchable t sid = dispatchable_server t t.servers.(sid)

let server_state t sid = t.servers.(sid).state

(* Pool members: everything not yet retired (booting and draining
   servers still occupy — and cost — a machine). *)
let live_servers t =
  Array.fold_left
    (fun n s -> if s.state = Retired then n else n + 1)
    0 t.servers

let dispatchable_count t =
  let n = ref 0 in
  Array.iter (fun s -> if dispatchable_server t s then incr n) t.servers;
  !n

(* Estimated time at which the server finishes its current query (now
   when idle; never in the past, even if the estimate undershot). *)
let est_free_at t s =
  match s.running with
  | None -> t.now
  | Some r -> Float.max t.now r.est_finish

(* Estimated time the server still owes: remaining current query plus
   everything buffered, in wall-clock terms (i.e. divided by the
   server's speed). This is LWL's metric (Sec 2.3), naturally
   speed-aware on heterogeneous farms. O(1) via [est_backlog]. *)
let est_work_left t s =
  let cur = est_free_at t s -. t.now in
  cur +. (s.est_backlog /. s.speed)

let backlog_add s q = s.est_backlog <- s.est_backlog +. q.Query.est_size

let backlog_remove s q =
  s.est_backlog <- s.est_backlog -. q.Query.est_size;
  (* Snap accumulated float residue back to exactly zero whenever the
     buffer drains, so idle servers compare equal under LWL. *)
  if Deque.is_empty s.buffer then s.est_backlog <- 0.0

(* The canonical drop policy (footnote 2): give up on queries whose
   last deadline has already passed — their penalty is sunk and
   executing them only delays everyone else. *)
let drop_past_last_deadline ~now q =
  now > Query.deadline q ~bound:(Sla.last_deadline q.Query.sla)

(* Register [s]'s pending completion at [act_finish]. The fresh token
   makes any entry the server pushed earlier stale (lazy deletion). *)
let push_completion t s ~act_finish =
  t.token_counter <- t.token_counter + 1;
  s.run_token <- t.token_counter;
  Heap.push t.completions (act_finish, s.sid, s.run_token)

let start_query t s q =
  assert (s.running = None);
  let r =
    {
      rquery = q;
      started = t.now;
      act_finish = t.now +. (q.Query.size /. s.speed);
      est_finish = t.now +. (q.Query.est_size /. s.speed);
    }
  in
  s.running <- Some r;
  push_completion t s ~act_finish:r.act_finish;
  emit t s (Started q)

let dispatch_to t s q =
  if not (dispatchable_server t s) then
    invalid_arg "Sim.dispatch_to: server is not accepting work";
  match s.running with
  | None ->
    assert (Deque.is_empty s.buffer);
    start_query t s q
  | Some _ ->
    Deque.push_back s.buffer q;
    backlog_add s q;
    emit t s (Enqueued q)

let make_server ~sid ~speed ~state =
  {
    sid;
    speed;
    nominal = speed;
    running = None;
    buffer = Deque.create ();
    est_backlog = 0.0;
    state;
    run_token = 0;
    gen = 0;
  }

(* Grow the pool by one server. With [boot_delay], the newcomer joins
   the pool immediately (Scaled_up) but accepts no dispatches before
   [now + boot_delay]. Rare operation — the O(pool) array copy is
   irrelevant next to the event loop. *)
let add_server ?(speed = 1.0) ?(boot_delay = 0.0) t =
  if speed <= 0.0 then invalid_arg "Sim.add_server: speed must be positive";
  if boot_delay < 0.0 then
    invalid_arg "Sim.add_server: boot_delay must be non-negative";
  let sid = Array.length t.servers in
  let state =
    if boot_delay > 0.0 then Booting (t.now +. boot_delay) else Active
  in
  let s = make_server ~sid ~speed ~state in
  t.servers <- Array.append t.servers [| s |];
  emit t s Scaled_up;
  sid

(* Initiate the drain protocol. The server immediately stops receiving
   dispatches; with [redistribute] (default) its buffered queries
   re-enter the dispatcher and land on the remaining pool, otherwise
   the server works its own buffer off. It becomes [Retired] — and
   emits the event — as soon as it holds no work. Idempotent on
   already-draining/retired servers.

   A redistributed query goes through the full arrival path, so a
   dispatcher that answers [target = None] REJECTS it: the query is
   recorded as a rejection (metrics + observers fire exactly as for a
   fresh arrival) — it is never silently lost. Crash re-injection
   ([reinject]) rides the same path and inherits the same guarantee. *)
let retire_server ?(redistribute = true) t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.retire_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Retired | Draining -> ()
  | Booting _ | Down ->
    (* Never accepted work / crashed empty; nothing to drain. *)
    s.state <- Retired;
    emit t s Retired
  | Active ->
    let others_accept =
      Array.exists
        (fun o -> o.sid <> sid && dispatchable_server t o)
        t.servers
    in
    if not others_accept then
      invalid_arg "Sim.retire_server: retiring would empty the pool";
    s.state <- Draining;
    emit t s Draining;
    if redistribute && not (Deque.is_empty s.buffer) then begin
      let orphans = Deque.to_array s.buffer in
      Deque.clear s.buffer;
      s.est_backlog <- 0.0;
      match t.arrive with
      | Some arrive -> Array.iter arrive orphans
      | None ->
        invalid_arg "Sim.retire_server: redistribution requires a running loop"
    end;
    if s.running = None && Deque.is_empty s.buffer then begin
      s.state <- Retired;
      emit t s Retired
    end

(* ------------------------------------------------------------------ *)
(* Non-graceful transitions (the fault-injection surface). *)

(* Kill server [sid] outright. The running query (first) and the
   buffered queries (arrival order) are returned to the caller — the
   retry policy, not the simulator, decides between [reinject] and
   loss. The server becomes [Down] ([Retired] if it was draining: a
   crashed drain has nothing left to wait for) and its pending
   completion entry is invalidated. No-op on servers already down or
   retired. *)
let crash_server t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.crash_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Down | Retired -> []
  | Booting _ | Active | Draining ->
    let orphans =
      let buffered = Array.to_list (Deque.to_array s.buffer) in
      match s.running with None -> buffered | Some r -> r.rquery :: buffered
    in
    s.running <- None;
    s.run_token <- 0;
    Deque.clear s.buffer;
    s.est_backlog <- 0.0;
    emit t s Crashed;
    (match s.state with
    | Draining ->
      s.state <- Retired;
      emit t s Retired
    | _ ->
      (* Repair brings the machine back at its provisioned rate. *)
      s.speed <- s.nominal;
      s.state <- Down);
    orphans

(* Change server [sid]'s service rate mid-run (brownout / recovery).
   [est_backlog] holds raw sizes, so only the running query needs
   care: its remaining actual and estimated work are carried over to
   the new rate and the completion is rescheduled (the old heap entry
   goes stale). Emits [Degraded speed], or [Restored] when the rate
   returns to the provisioned nominal. No-op when the speed is
   unchanged or the server is down/retired. *)
let set_speed t sid ~speed =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.set_speed: no such server";
  if speed <= 0.0 then invalid_arg "Sim.set_speed: speed must be positive";
  let s = t.servers.(sid) in
  match s.state with
  | Down | Retired -> ()
  | Booting _ | Active | Draining ->
    if speed <> s.speed then begin
      (match s.running with
      | None -> ()
      | Some r ->
        let rem_act = Float.max 0.0 (r.act_finish -. t.now) *. s.speed in
        let rem_est = Float.max 0.0 (r.est_finish -. t.now) *. s.speed in
        let r' =
          {
            r with
            act_finish = t.now +. (rem_act /. speed);
            est_finish = t.now +. (rem_est /. speed);
          }
        in
        s.running <- Some r';
        push_completion t s ~act_finish:r'.act_finish);
      s.speed <- speed;
      emit t s (if speed = s.nominal then Restored else Degraded speed)
    end

let degrade_server t sid ~factor =
  if factor <= 0.0 then
    invalid_arg "Sim.degrade_server: factor must be positive";
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.degrade_server: no such server";
  set_speed t sid ~speed:(t.servers.(sid).nominal *. factor)

(* Undo a fault: a [Down] server rejoins the pool idle at its nominal
   rate (repair time is the caller's MTTR model — the server comes
   back the instant this is called); a degraded server returns to
   nominal via [set_speed]. No-op otherwise. *)
let restore_server t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.restore_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Down ->
    s.speed <- s.nominal;
    s.state <- Active;
    emit t s Restored
  | Active | Draining -> if s.speed <> s.nominal then set_speed t sid ~speed:s.nominal
  | Booting _ | Retired -> ()

(* Re-enter a query through the full arrival path (dispatch, metrics,
   observers) — the crash-retry channel. The query keeps whatever
   [arrival] it carries: the SLA clock keeps running across the crash.
   Only callable while [run] is live. *)
let reinject t q =
  match t.arrive with
  | Some arrive -> arrive q
  | None -> invalid_arg "Sim.reinject: requires a running loop"

let create ?speeds ~n_servers () =
  if n_servers <= 0 then invalid_arg "Sim.create: n_servers must be positive";
  let speed_of =
    match speeds with
    | None -> fun _ -> 1.0
    | Some a ->
      if Array.length a <> n_servers then
        invalid_arg "Sim.create: speeds array must have one entry per server";
      Array.iter
        (fun v -> if v <= 0.0 then invalid_arg "Sim.create: speeds must be positive")
        a;
      fun sid -> a.(sid)
  in
  {
    servers =
      Array.init n_servers (fun sid ->
          make_server ~sid ~speed:(speed_of sid) ~state:Active);
    now = 0.0;
    completions =
      Heap.create (fun (ta, sa, ka) (tb, sb, kb) ->
          let c = Float.compare ta tb in
          if c <> 0 then c
          else
            let c = Int.compare sa sb in
            if c <> 0 then c else Int.compare ka kb);
    token_counter = 0;
    on_event = None;
    arrive = None;
  }

(* ------------------------------------------------------------------ *)
(* Live session: the event loop behind [run], exposed as a stepping
   API so a long-running process (lib/serve's daemon) can drive the
   identical state machine from externally arriving queries. [run] is
   a thin driver over it — advance to each arrival, inject, drain —
   which is what makes served decisions bit-identical to simulated
   ones by construction. *)

type session = {
  st : t;
  s_timers : (float * (t -> unit)) array;
  mutable s_timer_idx : int;
  s_tick : (float ref * float * (t -> unit)) option;
  s_arrive : Query.t -> unit;
  s_pop_completion : unit -> unit;
  s_fire_tick : (t -> unit) -> unit;
}

let session ?(obs = Obs.noop) ?admit ?on_dispatch ?on_complete
    ?on_server_event ?speeds ?drop_policy ?ticker ?timers ~n_servers ~pick_next
    ~dispatch ~metrics () =
  let t = create ?speeds ~n_servers () in
  (* One-shot timed callbacks (fault injection plugs in here), fired at
     exactly their scheduled instants, in array order. Like the ticker,
     a timer only fires while an arrival or completion remains — the
     clock never outlives the workload. The empty/absent case costs
     one integer compare per loop step. *)
  let timers =
    match timers with
    | None -> [||]
    | Some a ->
      let last = ref 0.0 in
      Array.iter
        (fun (at, _) ->
          if at < !last then
            invalid_arg "Sim.run: timers must be sorted by time, non-negative";
          last := at)
        a;
      a
  in
  t.on_event <- on_server_event;
  (* Observability handles, resolved once per run; every hot-path hit
     below is guarded by the single [obs_on] branch (the unused names
     registered on the shared noop registry stay at zero forever). *)
  let obs_on = Obs.enabled obs in
  let tr = Obs.trace obs in
  let reg = Obs.registry obs in
  let c_arrivals = Obs.Registry.counter reg "sim.arrivals"
  and c_completions = Obs.Registry.counter reg "sim.completions"
  and c_dropped = Obs.Registry.counter reg "sim.dropped"
  and c_rejected = Obs.Registry.counter reg "sim.rejected"
  and c_degraded = Obs.Registry.counter reg "sim.degraded" in
  (* Footnote-2 alternative: at each scheduling point, abandon buffered
     queries the policy gives up on (typically those past their last
     deadline, whose penalty is already incurred). *)
  let apply_drop_policy s =
    match drop_policy with
    | None -> ()
    | Some keep_or_drop ->
      let dropped =
        Deque.filter_in_place s.buffer ~f:(fun q -> not (keep_or_drop ~now:t.now q))
      in
      List.iter
        (fun q ->
          s.est_backlog <- s.est_backlog -. q.Query.est_size;
          Metrics.record_dropped metrics q;
          if obs_on then Obs.Registry.incr c_dropped;
          emit t s (Dropped q))
        dropped;
      if Deque.is_empty s.buffer then s.est_backlog <- 0.0
  in
  let finish_one s =
    match s.running with
    | None -> assert false
    | Some r ->
      if obs_on then begin
        Obs.Registry.incr c_completions;
        Obs.Trace.begin_span tr ~cat:"sim"
          ~args:[ ("sim_t", Obs.Trace.F t.now); ("sid", Obs.Trace.I s.sid) ]
          "complete"
      end;
      s.running <- None;
      Metrics.record metrics r.rquery ~completion:t.now;
      emit t s (Finished { query = r.rquery; actual = t.now -. r.started });
      (match on_complete with
      | Some f -> f r.rquery ~completion:t.now
      | None -> ());
      apply_drop_policy s;
      let n = Deque.length s.buffer in
      if n > 0 then begin
        (* A draining server without redistribution keeps scheduling
           its own leftover buffer until it is empty. *)
        let arr = Deque.to_array s.buffer in
        let idx = pick_next ~now:t.now arr in
        if idx < 0 || idx >= n then
          invalid_arg "Sim.run: scheduler returned an out-of-bounds index";
        let q = Deque.remove s.buffer idx in
        backlog_remove s q;
        start_query t s q
      end
      else if s.state = Draining then begin
        s.state <- Retired;
        emit t s Retired
      end;
      if obs_on then Obs.Trace.end_span tr ()
  in
  let arrive q =
    if obs_on then begin
      Obs.Registry.incr c_arrivals;
      Obs.Trace.begin_span tr ~cat:"sim"
        ~args:[ ("sim_t", Obs.Trace.F t.now); ("qid", Obs.Trace.I q.Query.id) ]
        "arrive"
    end;
    Metrics.record_offered metrics;
    (* Refusals — by the admission controller or by an admission-mode
       dispatcher returning no target — share one account, so
       [offered = admitted + rejected] holds however a query is turned
       away. *)
    let refuse q =
      if obs_on then Obs.Registry.incr c_rejected;
      Metrics.record_rejected metrics q
    in
    (* The admission controller sees the query before the dispatcher:
       it can wave it through, swap in a down-tiered copy (same id —
       completion bookkeeping is keyed on it), or refuse outright. *)
    (let verdict = match admit with None -> Admit | Some f -> f t q in
     match verdict with
     | Reject ->
       (match on_dispatch with
       | Some f -> f ~now:t.now q { target = None; est_delta = None }
       | None -> ());
       refuse q
     | Admit | Degrade _ ->
       let q =
         match verdict with
         | Degrade q' ->
           if q'.Query.id <> q.Query.id then
             invalid_arg "Sim.run: Degrade must keep the query id";
           if obs_on then Obs.Registry.incr c_degraded;
           q'
         | _ -> q
       in
       let d = dispatch t q in
       (match on_dispatch with Some f -> f ~now:t.now q d | None -> ());
       (match d.target with
       | None -> refuse q
       | Some sid ->
         if sid < 0 || sid >= Array.length t.servers then
           invalid_arg "Sim.run: dispatcher returned an invalid server";
         Metrics.record_admitted metrics;
         dispatch_to t t.servers.(sid) q));
    if obs_on then Obs.Trace.end_span tr ()
  in
  t.arrive <- Some arrive;
  (* Optional periodic hook (elastic controllers plug in here): fires
     at every multiple of the interval that precedes a remaining
     arrival or completion, so the clock never outlives the workload. *)
  let tick =
    match ticker with
    | None -> None
    | Some (interval, f) ->
      if interval <= 0.0 then
        invalid_arg "Sim.run: ticker interval must be positive";
      Some (ref interval, interval, f)
  in
  (* Pop the next completion entry; stale entries (their server
     started something newer, was crashed, or had its rate changed —
     the token no longer matches) are discarded without advancing the
     clock. *)
  let pop_completion () =
    let tc, sid, token = Heap.pop_exn t.completions in
    let s = t.servers.(sid) in
    if s.run_token = token then begin
      t.now <- tc;
      finish_one s
    end
  in
  let fire_tick f =
    if obs_on then begin
      Obs.Trace.begin_span tr ~cat:"sim"
        ~args:[ ("sim_t", Obs.Trace.F t.now) ]
        "tick";
      f t;
      Obs.Trace.end_span tr ()
    end
    else f t
  in
  {
    st = t;
    s_timers = timers;
    s_timer_idx = 0;
    s_tick = tick;
    s_arrive = arrive;
    s_pop_completion = pop_completion;
    s_fire_tick = fire_tick;
  }

let sim sess = sess.st

(* Process every timer, tick and completion due before the next
   arrival. [limit] is the pending arrival's time ([None] while
   draining: only the completion heap bounds the clock then). The
   precedence is [run]'s historical one: a timed callback preempts
   everything at or after its instant, then a due tick, then the
   earliest completion; stale completion entries are discarded without
   advancing the clock. *)
let rec pump sess ~limit =
  let t = sess.st in
  let next_completion = Heap.peek t.completions in
  let next_event =
    match (next_completion, limit) with
    | None, None -> None
    | Some (tc, _, _), None -> Some tc
    | None, Some l -> Some l
    | Some (tc, _, _), Some l -> Some (Float.min tc l)
  in
  match next_event with
  | None -> ()
  | Some te ->
    let timer_due =
      sess.s_timer_idx < Array.length sess.s_timers
      && fst sess.s_timers.(sess.s_timer_idx) <= te
      &&
      match sess.s_tick with
      | Some (next_tick, _, _) ->
        fst sess.s_timers.(sess.s_timer_idx) <= !next_tick
      | None -> true
    in
    if timer_due then begin
      let at, f = sess.s_timers.(sess.s_timer_idx) in
      sess.s_timer_idx <- sess.s_timer_idx + 1;
      (* A timer scheduled in the past fires now (time is monotone). *)
      t.now <- Float.max t.now at;
      f t;
      pump sess ~limit
    end
    else begin
      match sess.s_tick with
      | Some (next_tick, interval, f) when !next_tick <= te ->
        t.now <- !next_tick;
        next_tick := !next_tick +. interval;
        sess.s_fire_tick f;
        pump sess ~limit
      | _ -> begin
        match (next_completion, limit) with
        | Some (tc, _, _), Some l when tc <= l ->
          sess.s_pop_completion ();
          pump sess ~limit
        | Some _, None ->
          sess.s_pop_completion ();
          pump sess ~limit
        | Some _, Some _ | None, Some _ | None, None -> ()
      end
    end

let advance sess ~until = pump sess ~limit:(Some (Float.max until sess.st.now))

let drain sess = pump sess ~limit:None

let inject sess q =
  pump sess ~limit:(Some (Float.max q.Query.arrival sess.st.now));
  (* A query whose stamped arrival the clock already passed (a lagging
     live client) arrives now; its SLA clock still runs from the
     stamped arrival. *)
  sess.st.now <- Float.max sess.st.now q.Query.arrival;
  sess.s_arrive q

let next_event_time sess =
  let t = sess.st in
  let best = ref infinity in
  (match Heap.peek t.completions with
  | Some (tc, _, _) -> best := tc
  | None -> ());
  if sess.s_timer_idx < Array.length sess.s_timers then
    best := Float.min !best (fst sess.s_timers.(sess.s_timer_idx));
  (match sess.s_tick with
  | Some (next_tick, _, _) -> best := Float.min !best !next_tick
  | None -> ());
  if Float.is_finite !best then Some !best else None

let run ?obs ?admit ?on_dispatch ?on_complete ?on_server_event ?speeds
    ?drop_policy ?ticker ?timers ~queries ~n_servers ~pick_next ~dispatch
    ~metrics () =
  let sess =
    session ?obs ?admit ?on_dispatch ?on_complete ?on_server_event ?speeds
      ?drop_policy ?ticker ?timers ~n_servers ~pick_next ~dispatch ~metrics ()
  in
  Array.iter (fun q -> inject sess q) queries;
  drain sess
