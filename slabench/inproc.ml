(* The in-process runner behind [deep-buffer] and [elastic-farm]: one
   caller injects the fixed query stream into a [Sim.session] and
   drives it to quiescence (a closed loop: the next arrival is injected
   once the previous one has its decision). A pass is set-up (workload
   generation, stack construction, the warm-up arrivals) followed by
   the timed phase (every measured arrival, then the drain). *)

(* What a workload's stack reports once drained. *)
type closing = {
  rent : float;  (** $ paid for servers over the pass *)
  reoffers : int;
      (** queries offered to the dispatcher again: crash orphans retried
          and buffers redistributed by a draining server *)
  layer : (string * float) list;  (** per-layer extras, by catalogue name *)
}

type stack = { session : Sim.session; metrics : Metrics.t; close : unit -> closing }

type workload = {
  name : string;
  n_queries : int;
  warmup_id : int;
  gen : seed:int -> Query.t array;
  build : seed:int -> Tracer.t option -> Query.t array -> stack;
  planner : Planner.t;  (** the scheduler's planner, for the core replay *)
  dispatch_core : bool;  (** replay dispatch tree builds (no probe memo) *)
  spans_per_query : int;  (** traced-run span storage per query *)
  nominal_pass_s : float;  (** the share of [--seconds] one pass stands for *)
}

type pass = {
  setup_s : float;
  gen_s : float;
  timed_s : float;
  p50_ns : int;  (** per measured [Sim.inject] *)
  p90_ns : int;
  loss_per_query : float;
  alloc_per_query : float;
  gc : Gcw.phase;
  closing : closing;
  identities_ok : bool;
}

let measured w = w.n_queries - w.warmup_id

let run_pass ?tracer w ~seed =
  (* Every pass starts from a collected heap, so the previous pass's
     garbage is not charged to this one. *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let qs = w.gen ~seed in
  let t_gen = Clock.now_ns () in
  let st = w.build ~seed tracer qs in
  let sess = st.session in
  for i = 0 to w.warmup_id - 1 do
    Sim.inject sess qs.(i)
  done;
  let lat = Lat.create (measured w) in
  let t1 = Clock.now_ns () in
  let g0 = Gcw.snap () in
  (match tracer with
  | None ->
    for i = w.warmup_id to w.n_queries - 1 do
      let a = Clock.now_ns () in
      Sim.inject sess qs.(i);
      Lat.add lat (Clock.now_ns () - a)
    done;
    Sim.drain sess
  | Some (tr : Tracer.t) ->
    Tracer.reset tr;
    for i = w.warmup_id to w.n_queries - 1 do
      let q = qs.(i) in
      Spans.set_rid tr.sp q.Query.id;
      tr.events <- tr.events + 1;
      let a = Clock.now_ns () in
      Spans.enter tr.sp tr.inject;
      Sim.inject sess q;
      Spans.leave tr.sp;
      Lat.add lat (Clock.now_ns () - a)
    done;
    Spans.set_rid tr.sp (-1);
    Spans.enter tr.sp tr.drain;
    Sim.drain sess;
    Spans.leave tr.sp);
  let g1 = Gcw.snap () in
  let t2 = Clock.now_ns () in
  let closing = st.close () in
  let m = st.metrics in
  let n_measured = Float.of_int (measured w) in
  let loss_total =
    (Metrics.avg_loss m *. Float.of_int (Metrics.measured_count m))
    +. Metrics.rejected_loss m +. closing.rent
  in
  let gc = Gcw.phase g0 g1 in
  let sorted = Lat.sorted lat in
  let identities_ok =
    Metrics.offered_count m
    = Metrics.admitted_count m + Metrics.rejected_count m
    && Metrics.completed_count m + Metrics.dropped_count m
       + Metrics.lost_count m + Metrics.rejected_count m
       = w.n_queries
    && Metrics.offered_count m = w.n_queries + closing.reoffers
  in
  if not identities_ok then
    Printf.eprintf
      "slabench: %s identities: offered=%d admitted=%d rejected=%d completed=%d \
       dropped=%d lost=%d reoffers=%d n=%d\n%!"
      w.name (Metrics.offered_count m) (Metrics.admitted_count m)
      (Metrics.rejected_count m) (Metrics.completed_count m)
      (Metrics.dropped_count m) (Metrics.lost_count m) closing.reoffers
      w.n_queries;
  {
    setup_s = Clock.s_of_ns (t1 - t0);
    gen_s = Clock.s_of_ns (t_gen - t0);
    timed_s = Clock.s_of_ns (t2 - t1);
    p50_ns = Lat.percentile_of_sorted sorted 50.;
    p90_ns = Lat.percentile_of_sorted sorted 90.;
    loss_per_query = loss_total /. n_measured;
    alloc_per_query = Gcw.allocated gc /. n_measured;
    gc;
    closing;
    identities_ok;
  }
