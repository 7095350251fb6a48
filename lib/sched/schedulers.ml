(* Schedulers: concrete [Sim.pick_next] values.

   A baseline scheduler simply runs the head of its planner's order.
   The SLA-tree enhancement (paper Sec 6.1) builds an SLA-tree over the
   planned order and rushes the query with the best net profit gain:
     argmax_i  own_gain(q_i) - postpone(0, i-1, est_size_i). *)

type t = { name : string; pick : Sim.pick_next }

let name t = t.name

(* Decision-latency wrapper. Handles are resolved here, once per
   instantiation; the disabled path returns the raw pick so runs over
   [Obs.noop] pay nothing at all on this layer. *)
let timed obs pick =
  if not (Obs.enabled obs) then pick
  else begin
    let reg = Obs.registry obs in
    let lat = Obs.Registry.histogram reg "sched.decision_ns" in
    let n = Obs.Registry.counter reg "sched.decisions" in
    fun ~now buffer ->
      let t0 = Obs.now_ns () in
      let i = pick ~now buffer in
      Obs.Registry.observe lat (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
      Obs.Registry.incr n;
      i
  end

let instantiate ?(obs = Obs.noop) t = timed obs t.pick

let pick t = t.pick

let of_planner planner =
  {
    name = Planner.name planner;
    pick =
      (fun ~now buffer ->
        let perm = Planner.plan planner ~now buffer in
        perm.(0));
  }

let with_sla_tree ?impl planner =
  {
    name = Planner.name planner ^ "+SLA-tree";
    pick =
      (fun ~now buffer ->
        let perm = Planner.plan planner ~now buffer in
        let planned = Array.map (fun i -> buffer.(i)) perm in
        let tree = Sla_tree.build ?impl ~now planned in
        match What_if.best_rush tree with
        | None -> invalid_arg "Schedulers.with_sla_tree: empty buffer"
        | Some (i, _gain) -> perm.(i));
  }

let fcfs = of_planner Planner.fcfs
let sjf = of_planner Planner.sjf
let edf = of_planner Planner.edf
let value_edf = of_planner Planner.value_edf
let cbs ~rate = of_planner (Planner.cbs ~rate)
let fcfs_sla_tree = with_sla_tree Planner.fcfs
let sjf_sla_tree = with_sla_tree Planner.sjf
let edf_sla_tree = with_sla_tree Planner.edf
let value_edf_sla_tree = with_sla_tree Planner.value_edf
let cbs_sla_tree ~rate = with_sla_tree (Planner.cbs ~rate)
