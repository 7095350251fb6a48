(* Runs an in-process workload: untraced passes for the end-to-end
   metrics, or an untraced/traced/untraced triple for the per-layer
   metrics. *)

(* A run is a fixed number of fixed-size passes, derived from
   [--seconds] and the workload's share per pass, never from how long
   passes happen to take. *)
let n_passes ~nominal_pass_s ~seconds =
  max 3 (int_of_float (Float.round (seconds /. nominal_pass_s)))
let mb_of_words w = Float.of_int w *. Float.of_int (Sys.word_size / 8) /. 1e6
let us ns = Float.of_int ns /. 1e3
let bits = Int64.bits_of_float
let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* Checks every pass of a run answers for. *)
let check_pass out (w : Inproc.workload) (p : Inproc.pass) =
  Out.attempt out w.n_queries;
  Out.check out ~ops:w.n_queries
    (w.name ^ ": offered = admitted + rejected = completed + dropped + lost + rejected")
    p.identities_ok

let check_repeat out (w : Inproc.workload) what (a : Inproc.pass)
    (b : Inproc.pass) =
  Out.check out ~ops:w.n_queries
    (w.name ^ ": " ^ what ^ " repeats bit-exactly (loss_per_query)")
    (bits a.loss_per_query = bits b.loss_per_query);
  Out.check out ~ops:w.n_queries
    (w.name ^ ": " ^ what ^ " repeats exactly (alloc_words_per_query)")
    (bits a.alloc_per_query = bits b.alloc_per_query)

let fingerprint out (w : Inproc.workload) ~seed ~loss ~alloc =
  Out.check out ~ops:w.n_queries
    (w.name ^ ": loss and allocation match earlier runs of this binary and seed")
    (State.fingerprint ~workload:w.name ~seed
       [ ("loss", loss); ("alloc", alloc) ])

(* Pass [k] of a run draws its inputs from its own seed, so a run
   averages over several independent stretches of the workload. *)
let pass_seed seed k = (seed * 64) + k

let mean l = List.fold_left ( +. ) 0. l /. Float.of_int (List.length l)

let end_to_end out (w : Inproc.workload) ~seed ~seconds =
  let passes =
    List.init (n_passes ~nominal_pass_s:w.nominal_pass_s ~seconds) (fun k ->
        let p = Inproc.run_pass w ~seed:(pass_seed seed k) in
        check_pass out w p;
        p)
  in
  let loss = mean (List.map (fun (p : Inproc.pass) -> p.loss_per_query) passes)
  and alloc = mean (List.map (fun (p : Inproc.pass) -> p.alloc_per_query) passes) in
  fingerprint out w ~seed ~loss ~alloc;
  let measured = Float.of_int (Inproc.measured w) in
  let med f = Lat.median_f (List.map f passes) in
  Printf.eprintf
    "slabench: %s seed %d: %d passes of %d decision samples (%d beyond p90)\n%!"
    w.name seed (List.length passes) (Inproc.measured w)
    (Inproc.measured w / 10);
  Catalog.emit out Catalog.end_to_end
    [
      ("setup_s", med (fun p -> p.setup_s));
      ("queries_per_s", med (fun p -> measured /. p.timed_s));
      ("decision_p50_us", med (fun p -> us p.p50_ns));
      ("decision_p90_us", med (fun p -> us p.p90_ns));
      ("loss_per_query", loss);
      ("alloc_words_per_query", alloc);
      ("peak_heap_mb", peak_heap_mb ());
    ]

(* Self time per layer as a share of the per-arrival time. Tree work
   inside picks and dispatches is estimated from the core replay and
   moved from those layers to [core]. *)
let self_fracs (tr : Tracer.t) (core : Core_replay.t) =
  let sp = tr.sp in
  let id = Spans.id sp in
  let self n = Float.of_int (Spans.self_ns sp (id n)) in
  let total n = Float.of_int (Spans.total_ns sp (id n)) in
  let arrival = total "sim.inject" +. total "sim.drain" in
  let per_call l = Lat.mean l in
  let pick_core =
    Float.min (self "sched.pick")
      (Float.of_int tr.picks *. (per_call core.build +. per_call core.rush))
  in
  let dispatch_core =
    Float.min (self "dispatch.decide")
      (Float.of_int tr.dispatches *. core.insert_per_dispatch)
  in
  let frac x = x /. arrival in
  [
    ("sim.self_frac", frac (self "sim.inject" +. self "sim.drain"));
    ("sched.self_frac", frac (self "sched.pick" -. pick_core));
    ("core.self_frac", frac (pick_core +. dispatch_core));
    ("dispatch.self_frac", frac (self "dispatch.decide" -. dispatch_core));
    ("tenancy.self_frac", frac (self "tenancy.admit"));
    ("elastic.self_frac", frac (self "elastic.tick" +. self "elastic.observe"));
    ("fault.self_frac", frac (self "fault.timer" +. self "fault.hook"));
  ]

let write_self_table ~name rows =
  let path = State.path (Printf.sprintf "selftime-%s.tsv" name) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "layer\tself_frac\n";
      List.iter (fun (n, v) -> Printf.fprintf oc "%s\t%.4f\n" n v) rows);
  List.iter (fun (n, v) -> Printf.eprintf "slabench: %-22s %6.1f%%\n" n (100. *. v)) rows

(* The untraced/traced/untraced triple behind every per-layer report:
   the traced pass must decide exactly as the untraced ones. Returns
   the first untraced pass, the span-derived metrics and the self-time
   shares. *)
let traced_triple out (w : Inproc.workload) ~seed =
  let u1 = Inproc.run_pass w ~seed in
  check_pass out w u1;
  let n = Inproc.measured w in
  let tr =
    Tracer.create ~capture_dispatch:w.dispatch_core
      ~cap:(n * w.spans_per_query) ()
  in
  let t = Inproc.run_pass ~tracer:tr w ~seed in
  check_pass out w t;
  let u2 = Inproc.run_pass w ~seed in
  check_pass out w u2;
  check_repeat out w "untraced run" u1 u2;
  Out.check out ~ops:w.n_queries
    (w.name ^ ": tracing changes no decision (loss_per_query)")
    (bits t.loss_per_query = bits u1.loss_per_query);
  let core = Core_replay.run tr ~planner:w.planner in
  let sp = tr.sp in
  let id = Spans.id sp in
  let dur name = Spans.durations sp (id name) in
  let p name q = us (Lat.percentile (dur name) q) in
  let count name = Spans.count sp (id name) in
  let total_us name = us (Spans.total_ns sp (id name)) in
  let fn = Float.of_int n in
  let per x c = if c = 0 then 0. else x /. Float.of_int c in
  let picks = count "sched.pick" and decides = count "dispatch.decide" in
  let depth = Spans.args sp (id "sched.pick") in
  let admits = Spans.args sp (id "tenancy.admit") in
  let verdicts v =
    let k = ref 0 in
    for i = 0 to admits.n - 1 do
      if admits.a.(i) = v then incr k
    done;
    per (Float.of_int !k) admits.n
  in
  Spans.write_chrome sp
    ~path:(State.path (Printf.sprintf "trace-%s.json" w.name))
    ~limit:100_000;
  Printf.eprintf "slabench: %s: %d spans stored, %d past capacity\n%!" w.name
    sp.n sp.dropped;
  let gc = u2.gc in
  let metrics =
    [
      ("sim.inject_us_p50", p "sim.inject" 50.);
      ("sim.inject_us_p99", p "sim.inject" 99.);
      ("sim.events_per_query", Float.of_int tr.events /. fn);
      ("sched.pick_us_p50", p "sched.pick" 50.);
      ("sched.pick_us_p99", p "sched.pick" 99.);
      ("sched.picks_per_query", Float.of_int picks /. fn);
      ("sched.depth_p50", Float.of_int (Lat.percentile depth 50.));
      ("sched.depth_p99", Float.of_int (Lat.percentile depth 99.));
      ("sched.busy_frac", total_us "sched.pick" /. (t.timed_s *. 1e6));
      ("sched.words_per_pick", per tr.words.(0) picks);
      ("core.build_us_p50", us (Lat.percentile core.build 50.));
      ("core.best_rush_us_p50", us (Lat.percentile core.rush 50.));
      ("core.postpone_ns_p50", Float.of_int (Lat.percentile core.postpone 50.));
      ("core.words_per_build", core.words_per_build);
      ("dispatch.decide_us_p50", p "dispatch.decide" 50.);
      ("dispatch.decide_us_p99", p "dispatch.decide" 99.);
      ( "dispatch.candidates_mean",
        Lat.mean (Spans.args sp (id "dispatch.decide")) );
      ("dispatch.busy_frac", total_us "dispatch.decide" /. (t.timed_s *. 1e6));
      ("dispatch.words_per_decision", per tr.words.(1) decides);
      ("tenancy.admit_us_p50", p "tenancy.admit" 50.);
      ("tenancy.admit_us_p99", p "tenancy.admit" 99.);
      ("tenancy.degraded_frac", verdicts 1);
      ("tenancy.rejected_frac", verdicts 2);
      ("elastic.tick_us_p50", p "elastic.tick" 50.);
      ("elastic.tick_us_p99", p "elastic.tick" 99.);
      ("fault.timer_us_total", total_us "fault.timer");
      ("fault.hook_us_total", total_us "fault.hook");
      ("workload.gen_s", u2.gen_s);
      ("gc.minor_words_per_query", gc.minor /. fn);
      ("gc.major_words_per_query", gc.major /. fn);
      ("gc.minor_collections", Float.of_int gc.minor_gcs);
      ("gc.major_collections", Float.of_int gc.major_gcs);
      ( "trace.overhead_frac",
        (t.timed_s /. Float.min u1.timed_s u2.timed_s) -. 1. );
    ]
    @ t.closing.layer
  in
  (u1, metrics, self_fracs tr core)

let per_layer out w ~seed =
  let _, metrics, fracs = traced_triple out w ~seed:(pass_seed seed 0) in
  write_self_table ~name:w.name fracs;
  Catalog.emit out Catalog.per_layer (metrics @ fracs)

let run out w ~seed ~seconds ~trace =
  if trace then per_layer out w ~seed else end_to_end out w ~seed ~seconds
