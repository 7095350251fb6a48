(* Dispatchers: concrete [Sim.dispatch] values (paper Secs 2.3, 6.2).

   Round-Robin and LWL are the profit-unaware baselines; the SLA-tree
   dispatcher asks every server the what-if question "what is your
   profit delta if this query joins your buffer?" and picks the
   argmax. *)

type t = { name : string; make : unit -> Sim.dispatch }

let name t = t.name

(* Decision-latency wrapper, mirroring [Schedulers.timed]: handles
   resolved once per instantiation, raw dispatch returned when the
   sink is disabled. A dispatch that raises (e.g. [no_server] during
   pool churn) still took a decision and still spent the time, so the
   latency observation and the decision count are recorded on both
   exits — otherwise [dispatch.decision_ns] silently under-reports
   exactly the churny intervals it should be illuminating. *)
let timed obs dispatch =
  if not (Obs.enabled obs) then dispatch
  else begin
    let reg = Obs.registry obs in
    let lat = Obs.Registry.histogram reg "dispatch.decision_ns" in
    let n = Obs.Registry.counter reg "dispatch.decisions" in
    let rejected = Obs.Registry.counter reg "dispatch.rejected" in
    let record t0 =
      Obs.Registry.observe lat (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
      Obs.Registry.incr n
    in
    fun sim q ->
      let t0 = Obs.now_ns () in
      match dispatch sim q with
      | d ->
        record t0;
        if d.Sim.target = None then Obs.Registry.incr rejected;
        d
      | exception e ->
        record t0;
        raise e
  end

(* Each run gets a fresh closure so stateful dispatchers (Round-Robin's
   counter) do not leak state across repeats. *)
let instantiate ?(obs = Obs.noop) t = timed obs (t.make ())

(* Constructor for dispatchers defined outside this module (SITA and
   friends). *)
let v ~name make = { name; make }

(* All dispatchers consider only servers currently accepting work
   (booting and draining servers are skipped — see Sim's pool life
   cycle); on a static pool every server qualifies and behavior is
   unchanged. *)

let no_server () = invalid_arg "Dispatchers: no server accepts work"

(* Uniformly random dispatchable server — the weakest sensible
   baseline. Draw order matches the static-pool stream: index k among
   the dispatchable servers in sid order. *)
let random ~seed =
  {
    name = "Random";
    make =
      (fun () ->
        let rng = Prng.create seed in
        fun sim _q ->
          let m = Sim.n_servers sim in
          let avail = ref 0 in
          for sid = 0 to m - 1 do
            if Sim.dispatchable sim sid then incr avail
          done;
          if !avail = 0 then no_server ();
          let k = ref (Prng.int rng !avail) and chosen = ref (-1) in
          for sid = 0 to m - 1 do
            if Sim.dispatchable sim sid then begin
              if !k = 0 && !chosen < 0 then chosen := sid;
              decr k
            end
          done;
          { Sim.target = Some !chosen; est_delta = None });
  }

let round_robin =
  {
    name = "RR";
    make =
      (fun () ->
        let next = ref 0 in
        fun sim _q ->
          let m = Sim.n_servers sim in
          let rec find tries sid =
            if tries >= m then no_server ()
            else if Sim.dispatchable sim sid then sid
            else find (tries + 1) ((sid + 1) mod m)
          in
          let sid = find 0 (!next mod m) in
          next := (sid + 1) mod m;
          { Sim.target = Some sid; est_delta = None });
  }

(* Least-work-left: the server with the smallest estimated backlog. *)
let lwl =
  {
    name = "LWL";
    make =
      (fun () sim _q ->
        let m = Sim.n_servers sim in
        let best = ref (-1) and best_work = ref infinity in
        for sid = 0 to m - 1 do
          if Sim.dispatchable sim sid then begin
            let w = Sim.est_work_left sim (Sim.server sim sid) in
            if w < !best_work then begin
              best := sid;
              best_work := w
            end
          end
        done;
        if !best < 0 then no_server ();
        { Sim.target = Some !best; est_delta = None });
  }

(* Profit delta of adding [q] to server [sid], whose scheduler plans
   with [planner]: build the SLA-tree over the server's planned buffer
   (anchored at its estimated free time) and evaluate the insertion
   at the rank the planner would give the newcomer (Sec 6.2).

   Heterogeneous farms (the paper's explicit claim: "the potential
   impact ... is computed based on the execution time of q on Si"):
   each server sees execution times scaled by its own speed, so the
   what-if is evaluated on speed-adjusted copies of the queries. *)
let scale_query speed query =
  if speed = 1.0 then query
  else
    Query.make ~id:query.Query.id ~arrival:query.Query.arrival
      ~size:query.Query.size
      ~est_size:(query.Query.est_size /. speed)
      ~sla:query.Query.sla ~retries:query.Query.retries
      ~tenant:query.Query.tenant ()

let insertion_profit ?impl ?arena planner sim sid q =
  let srv = Sim.server sim sid in
  let speed = srv.Sim.speed in
  let free_at = Sim.est_free_at sim srv in
  let buffer = Sim.buffer_array srv in
  let planned =
    Array.map (scale_query speed)
      (Planner.planned_queries planner ~now:(Sim.now sim) buffer)
  in
  let tree =
    Sla_tree.of_entries ?impl ?arena ~now:free_at
      (Schedule.of_queries ~now:free_at planned)
  in
  let q' = scale_query speed q in
  let pos = Planner.insertion_rank planner ~now:(Sim.now sim) planned q' in
  What_if.insertion_delta tree ~query:q' ~pos

(* Memoized what-if probes: one cached SLA-tree per server, rebuilt
   only when the server's event generation or anchor time moved.

   Validity argument. The tree's contents are a pure function of
   (planned buffer, speed, free_at): [Sim.gen] bumps on every event
   that can change the buffer, the running query or the speed, and
   [free_at] covers the one remaining input (an idle or overrun
   server's anchor is [now] itself, which moves between arrivals with
   no event). The planned order is reused too, which is only sound for
   time-invariant planners — the caller gates on
   [Planner.time_invariant]. Each cache entry owns its arena (an arena
   holds one live tree), so steady-state rebuilds allocate nothing.

   An empty buffer short-circuits: inserting into an empty schedule
   postpones nobody, and the tree path reduces to exactly
   [profit_at q' ~completion:(free_at + est)] — same floats, no tree. *)
type probe_cache = {
  mutable gen : int;
  mutable free_at : float;
  mutable planned : Query.t array;
  mutable tree : Sla_tree.t;
  arena : Sla_tree.arena;
}

let cached_insertion_profit ?impl planner =
  let caches : probe_cache option array ref = ref [||] in
  let entry_of sid =
    let n = Array.length !caches in
    if sid >= n then begin
      let grown = Array.make (max (sid + 1) (max 8 (2 * n))) None in
      Array.blit !caches 0 grown 0 n;
      caches := grown
    end;
    match !caches.(sid) with
    | Some e -> e
    | None ->
      let e =
        {
          gen = -1;
          free_at = nan;
          planned = [||];
          tree = Sla_tree.of_entries ?impl ~now:0.0 [||];
          arena = Sla_tree.create_arena ();
        }
      in
      !caches.(sid) <- Some e;
      e
  in
  fun sim sid q ->
    let srv = Sim.server sim sid in
    let speed = srv.Sim.speed in
    let q' = scale_query speed q in
    let free_at = Sim.est_free_at sim srv in
    if Sim.buffer_length srv = 0 then
      Query.profit_at q' ~completion:(free_at +. q'.Query.est_size)
    else begin
      let e = entry_of sid in
      if e.gen <> srv.Sim.gen || e.free_at <> free_at then begin
        let buffer = Sim.buffer_array srv in
        let planned =
          Array.map (scale_query speed)
            (Planner.planned_queries planner ~now:(Sim.now sim) buffer)
        in
        e.planned <- planned;
        e.tree <-
          Sla_tree.of_entries ?impl ~arena:e.arena ~now:free_at
            (Schedule.of_queries ~now:free_at planned);
        e.gen <- srv.Sim.gen;
        e.free_at <- free_at
      end;
      let pos =
        Planner.insertion_rank_sorted planner ~now:(Sim.now sim) e.planned q'
      in
      What_if.insertion_delta e.tree ~query:q' ~pos
    end

(* SLA-tree dispatching. Profit decides; exact profit ties (common
   when every candidate server meets the query's deadline anyway) fall
   back to least work left, so indifference does not pile queries onto
   server 0. With [admission] set, a query whose best profit delta is
   negative is rejected outright. *)
let argmax_profit ~admission profit_of sim q =
  let m = Sim.n_servers sim in
  let best = ref (-1)
  and best_delta = ref neg_infinity
  and best_work = ref infinity in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then begin
      let d = profit_of sim sid q in
      let w = Sim.est_work_left sim (Sim.server sim sid) in
      if !best < 0 || d > !best_delta || (d = !best_delta && w < !best_work)
      then begin
        best := sid;
        best_delta := d;
        best_work := w
      end
    end
  done;
  if !best < 0 then no_server ();
  if admission && !best_delta < 0.0 then
    { Sim.target = None; est_delta = Some !best_delta }
  else { Sim.target = Some !best; est_delta = Some !best_delta }

(* Under FCFS the newcomer always ranks last, so
   [What_if.insertion_delta] postpones nobody: the what-if collapses to
   the newcomer's own profit at the end of the server's estimated
   schedule. That tail is exactly [now + est_work_left], the
   accumulator the simulator already maintains per server, so each
   server's answer is O(1) and needs no tree. Heterogeneous farms are
   covered: the schedule tail and the newcomer's execution time are
   both speed-scaled, like [insertion_profit]'s scaled copies. *)
let insertion_profit_fcfs sim sid q =
  let srv = Sim.server sim sid in
  Query.profit_at q
    ~completion:
      (Sim.now sim
      +. Sim.est_work_left sim srv
      +. (q.Query.est_size /. srv.Sim.speed))

(* The candidate loop takes the cheapest route the planner allows: the
   closed form above when the newcomer ranks last, per-server memoized
   trees when the planned order cannot depend on the decision time,
   and a rebuild per candidate otherwise (CBS). [?memo:false] forces
   the rebuild-per-candidate path, the test oracle. *)
let sla_tree ?(admission = false) ?(memo = true) ?impl planner =
  let name = if admission then "SLA-tree+AC" else "SLA-tree" in
  let make () =
    let profit_of =
      if memo && Planner.ranks_newcomer_last planner then insertion_profit_fcfs
      else if memo && Planner.time_invariant planner then
        cached_insertion_profit ?impl planner
      else insertion_profit ?impl planner
    in
    argmax_profit ~admission profit_of
  in
  { name; make }
