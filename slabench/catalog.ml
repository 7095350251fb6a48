(* The per-layer metric catalogue. Every traced run prints every name,
   in this order; a layer a workload does not exercise reads 0. *)

let per_layer =
  [
    ("sim.inject_us_p50", "us"); ("sim.inject_us_p99", "us");
    ("sim.self_frac", "fraction"); ("sim.events_per_query", "events/query");
    ("sched.pick_us_p50", "us"); ("sched.pick_us_p99", "us");
    ("sched.picks_per_query", "picks/query"); ("sched.depth_p50", "queries");
    ("sched.depth_p99", "queries"); ("sched.busy_frac", "fraction");
    ("sched.words_per_pick", "words/pick"); ("sched.self_frac", "fraction");
    ("core.build_us_p50", "us"); ("core.best_rush_us_p50", "us");
    ("core.postpone_ns_p50", "ns"); ("core.words_per_build", "words/build");
    ("core.self_frac", "fraction");
    ("dispatch.decide_us_p50", "us"); ("dispatch.decide_us_p99", "us");
    ("dispatch.candidates_mean", "servers"); ("dispatch.busy_frac", "fraction");
    ("dispatch.words_per_decision", "words/decision");
    ("dispatch.self_frac", "fraction");
    ("tenancy.admit_us_p50", "us"); ("tenancy.admit_us_p99", "us");
    ("tenancy.rejected_frac", "fraction"); ("tenancy.degraded_frac", "fraction");
    ("tenancy.self_frac", "fraction");
    ("elastic.tick_us_p50", "us"); ("elastic.tick_us_p99", "us");
    ("elastic.ticks", "count"); ("elastic.scale_actions", "count");
    ("elastic.pool_mean", "servers"); ("elastic.rent_per_query", "USD/query");
    ("elastic.self_frac", "fraction");
    ("fault.timer_us_total", "us"); ("fault.hook_us_total", "us");
    ("fault.crashes", "count"); ("fault.reinjected", "count");
    ("fault.lost", "count"); ("fault.self_frac", "fraction");
    ("serve.encode_ns", "ns"); ("serve.decode_ns", "ns");
    ("serve.engine_us_p50", "us"); ("serve.engine_us_p99", "us");
    ("serve.rtt_us_p50", "us"); ("serve.socket_us_p50", "us");
    ("serve.gen_lag_us_p99", "us"); ("serve.frames_per_query", "frames/query");
    ("serve.self_frac", "fraction");
    ("workload.gen_s", "s"); ("workload.swf_mb_per_s", "MB/s");
    ("workload.synth_jobs_per_s", "jobs/s");
    ("gc.minor_words_per_query", "words/query");
    ("gc.major_words_per_query", "words/query");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("trace.overhead_frac", "fraction");
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("queries_per_s", "queries/s");
    ("decision_p50_us", "us"); ("decision_p90_us", "us");
    ("loss_per_query", "USD/query");
    ("alloc_words_per_query", "words/query"); ("peak_heap_mb", "MB");
  ]

(* Print [values] (name -> value) in catalogue order; missing names
   read 0, unknown or repeated names are a programming error. *)
let emit out catalogue values =
  List.iteri
    (fun i (n, _) ->
      if not (List.mem_assoc n catalogue) then
        invalid_arg ("Catalog.emit: unknown metric " ^ n);
      if List.exists (fun (m, _) -> m = n) (List.filteri (fun j _ -> j > i) values)
      then invalid_arg ("Catalog.emit: metric given twice " ^ n))
    values;
  List.iter
    (fun (n, u) ->
      let v = Option.value (List.assoc_opt n values) ~default:0. in
      Out.metric out n u v)
    catalogue
