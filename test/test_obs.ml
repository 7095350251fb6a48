(* Tests for the observability subsystem (lib/obs): registry handle
   semantics, the bounded trace ring and its balanced Chrome export,
   the per-tick time series, the noop sink's contract, and the
   end-to-end wiring — scheduler decision latency lands in the
   registry, and every elastic scale action in a traced diurnal replay
   carries its probe evidence as a trace instant. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let count_occurrences s needle =
  let n = String.length needle and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub s i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counter () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "a" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  check_int "count" 5 (Obs.Registry.count c);
  check_string "name" "a" (Obs.Registry.counter_name c);
  (* Same name returns the same instrument: increments through a second
     handle are visible through the first. *)
  let c' = Obs.Registry.counter reg "a" in
  Obs.Registry.incr c';
  check_int "shared" 6 (Obs.Registry.count c);
  check_int "snapshot" 6 (List.assoc "a" (Obs.Registry.counters reg))

let test_registry_gauge () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "pool" in
  check_bool "initial is a float" true (Obs.Registry.value g = 0.0);
  Obs.Registry.set g 7.5;
  check_bool "set" true (Obs.Registry.value g = 7.5);
  let g' = Obs.Registry.gauge reg "pool" in
  check_bool "shared" true (Obs.Registry.value g' = 7.5)

let test_registry_histogram () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "lat" in
  List.iter (Obs.Registry.observe h) [ 10.0; 100.0; 1000.0 ];
  check_int "observations" 3 (Obs.Registry.observations h);
  let p50 = Obs.Registry.histogram_percentile h 50.0 in
  check_bool "p50 finite" true (Float.is_finite p50);
  check_bool "p50 in range" true (p50 >= 10.0 && p50 <= 1000.0);
  (* Shape args are ignored on re-registration: same instrument back. *)
  let h' = Obs.Registry.histogram ~bins:3 reg "lat" in
  Obs.Registry.observe h' 50.0;
  check_int "shared" 4 (Obs.Registry.observations h)

let test_registry_reset () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "a" in
  let g = Obs.Registry.gauge reg "g" in
  let h = Obs.Registry.histogram reg "h" in
  Obs.Registry.incr c;
  Obs.Registry.set g 3.0;
  Obs.Registry.observe h 5.0;
  Obs.Registry.reset reg;
  check_int "counter zero" 0 (Obs.Registry.count c);
  check_bool "gauge zero" true (Obs.Registry.value g = 0.0);
  check_int "histogram empty" 0 (Obs.Registry.observations h);
  (* Handles stay live after reset. *)
  Obs.Registry.incr c;
  check_int "counter live" 1 (Obs.Registry.count c)

let test_registry_to_json () =
  let reg = Obs.Registry.create () in
  Obs.Registry.incr (Obs.Registry.counter reg "sim.arrivals");
  Obs.Registry.set (Obs.Registry.gauge reg "pool") 4.0;
  Obs.Registry.observe (Obs.Registry.histogram reg "sched.decision_ns") 123.0;
  let j = Obs.Registry.to_json reg in
  check_bool "schema" true (contains j "\"slatree-obs/1\"");
  check_bool "counter" true (contains j "\"sim.arrivals\": 1");
  check_bool "gauge" true (contains j "\"pool\"");
  check_bool "histogram keys" true
    (contains j "\"sched.decision_ns\"" && contains j "\"count\""
    && contains j "\"p50\"" && contains j "\"p99\"")

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records_events () =
  let tr = Obs.Trace.create () in
  Obs.Trace.begin_span tr ~cat:"sim" ~args:[ ("id", Obs.Trace.I 7) ] "arrive";
  Obs.Trace.instant tr ~cat:"elastic" "elastic.scale_up";
  Obs.Trace.end_span tr ();
  check_int "length" 3 (Obs.Trace.length tr);
  check_int "dropped" 0 (Obs.Trace.dropped tr);
  match Obs.Trace.events tr with
  | [ b; i; e ] ->
    check_bool "begin" true (b.Obs.Trace.phase = Obs.Trace.Begin);
    check_string "begin name" "arrive" b.Obs.Trace.name;
    check_string "begin cat" "sim" b.Obs.Trace.cat;
    check_bool "begin args" true (b.Obs.Trace.args = [ ("id", Obs.Trace.I 7) ]);
    check_bool "instant" true (i.Obs.Trace.phase = Obs.Trace.Instant);
    check_bool "end" true (e.Obs.Trace.phase = Obs.Trace.End);
    check_bool "monotone ts" true
      (b.Obs.Trace.ts <= i.Obs.Trace.ts && i.Obs.Trace.ts <= e.Obs.Trace.ts)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_trace_ring_eviction () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Trace.instant tr (Fmt.str "e%d" i)
  done;
  check_int "length capped" 4 (Obs.Trace.length tr);
  check_int "dropped" 6 (Obs.Trace.dropped tr);
  (* The survivors are the newest four, oldest first. *)
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events tr) in
  check_bool "newest kept" true (names = [ "e6"; "e7"; "e8"; "e9" ])

let test_trace_zero_capacity () =
  let tr = Obs.Trace.create ~capacity:0 () in
  Obs.Trace.instant tr "x";
  Obs.Trace.begin_span tr "y";
  check_int "length" 0 (Obs.Trace.length tr);
  check_int "dropped" 2 (Obs.Trace.dropped tr)

let test_trace_chrome_json_balanced () =
  (* Evict the Begin halves of early spans; the export must still emit
     a well-nested B/E stream. *)
  let tr = Obs.Trace.create ~capacity:6 () in
  for i = 0 to 7 do
    Obs.Trace.begin_span tr (Fmt.str "span%d" i);
    Obs.Trace.instant tr "mark";
    Obs.Trace.end_span tr ()
  done;
  (* And one span left open at export time. *)
  Obs.Trace.begin_span tr "open";
  let j = Obs.Trace.to_chrome_json tr in
  check_bool "wrapper" true (contains j "\"traceEvents\"");
  let b = count_occurrences j "\"ph\": \"B\"" in
  let e = count_occurrences j "\"ph\": \"E\"" in
  check_bool "has events" true (b + e > 0);
  check_int "balanced" b e

let test_trace_jsonl () =
  let tr = Obs.Trace.create () in
  Obs.Trace.begin_span tr "a";
  Obs.Trace.end_span tr ();
  let l = Obs.Trace.to_jsonl tr in
  let lines = String.split_on_char '\n' (String.trim l) in
  check_int "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      check_bool "line is an object" true
        (String.length line > 2 && line.[0] = '{'))
    lines

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let test_timeseries_basics () =
  let ts = Obs.Timeseries.create ~columns:[| "pool"; "backlog" |] in
  check_int "empty" 0 (Obs.Timeseries.length ts);
  Obs.Timeseries.sample ts ~now:1.0 [| 4.0; 10.0 |];
  Obs.Timeseries.sample ts ~now:2.0 [| 5.0; 7.0 |];
  check_int "length" 2 (Obs.Timeseries.length ts);
  check_bool "time" true (Obs.Timeseries.time ts 1 = 2.0);
  check_bool "row" true (Obs.Timeseries.row ts 0 = [| 4.0; 10.0 |]);
  check_bool "bad width raises" true
    (raises_invalid (fun () -> Obs.Timeseries.sample ts ~now:3.0 [| 1.0 |]))

let test_timeseries_value_at () =
  let ts = Obs.Timeseries.create ~columns:[| "pool" |] in
  check_bool "NaN before first" true
    (Float.is_nan (Obs.Timeseries.value_at ts ~column:"pool" ~now:0.0));
  Obs.Timeseries.sample ts ~now:10.0 [| 4.0 |];
  Obs.Timeseries.sample ts ~now:20.0 [| 6.0 |];
  check_bool "NaN before first sample time" true
    (Float.is_nan (Obs.Timeseries.value_at ts ~column:"pool" ~now:9.9));
  check_bool "at first" true (Obs.Timeseries.value_at ts ~column:"pool" ~now:10.0 = 4.0);
  check_bool "between holds last" true
    (Obs.Timeseries.value_at ts ~column:"pool" ~now:15.0 = 4.0);
  check_bool "after last" true
    (Obs.Timeseries.value_at ts ~column:"pool" ~now:99.0 = 6.0);
  check_bool "unknown column raises" true
    (raises_invalid (fun () -> Obs.Timeseries.value_at ts ~column:"nope" ~now:15.0))

let test_timeseries_export () =
  let ts = Obs.Timeseries.create ~columns:[| "pool"; "backlog" |] in
  Obs.Timeseries.sample ts ~now:1.0 [| 4.0; 10.0 |];
  let csv = Obs.Timeseries.to_csv ts in
  check_bool "csv header" true (contains csv "t,pool,backlog");
  check_bool "csv row" true (contains csv "\n1,4,10");
  let j = Obs.Timeseries.to_json ts in
  check_bool "json columns" true (contains j "\"columns\"" && contains j "\"pool\"");
  check_bool "json rows" true (contains j "\"rows\"")

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_noop_sink () =
  check_bool "disabled" true (not (Obs.enabled Obs.noop));
  (* span still runs the thunk and returns its value... *)
  check_int "span runs f" 41 (Obs.span Obs.noop "x" (fun () -> 41));
  Obs.instant Obs.noop ~args:[ ("k", Obs.Trace.I 1) ] "e";
  (* ...but records nothing. *)
  check_int "no events" 0 (Obs.Trace.length (Obs.trace Obs.noop))

let test_enabled_sink_span () =
  let obs = Obs.create () in
  check_bool "enabled" true (Obs.enabled obs);
  let r = Obs.span obs ~cat:"test" "work" (fun () -> 7) in
  check_int "span value" 7 r;
  (* The span closes even when the body raises. *)
  (try Obs.span obs "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let evs = Obs.Trace.events (Obs.trace obs) in
  let phases = List.map (fun e -> e.Obs.Trace.phase) evs in
  check_bool "B E B E" true
    (phases = Obs.Trace.[ Begin; End; Begin; End ])

(* ------------------------------------------------------------------ *)
(* End-to-end wiring *)

let small_queries ?(n = 400) ?(seed = 1234) () =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.0
      ~servers:2 ~n_queries:n ~seed ()
  in
  Trace.generate cfg

let test_sched_decision_latency_recorded () =
  let obs = Obs.create () in
  let queries = small_queries () in
  let pick_next = Schedulers.instantiate ~obs Schedulers.fcfs_sla_tree in
  let dispatch = Dispatchers.instantiate ~obs (Dispatchers.sla_tree Planner.fcfs) in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~obs ~queries ~n_servers:2 ~pick_next ~dispatch ~metrics ();
  let reg = Obs.registry obs in
  let counters = Obs.Registry.counters reg in
  let count name = try List.assoc name counters with Not_found -> 0 in
  check_int "arrivals" 400 (count "sim.arrivals");
  check_int "completions" 400 (count "sim.completions");
  check_bool "sched decisions" true (count "sched.decisions" > 0);
  check_bool "dispatch decisions" true (count "dispatch.decisions" > 0);
  let lat = Obs.Registry.histogram reg "sched.decision_ns" in
  check_bool "latency observed" true (Obs.Registry.observations lat > 0);
  let p50 = Obs.Registry.histogram_percentile lat 50.0 in
  check_bool "p50 positive ns" true (Float.is_finite p50 && p50 > 0.0);
  (* Arrive/complete spans made it into the trace. *)
  let tr = Obs.trace obs in
  check_bool "trace non-empty" true (Obs.Trace.length tr > 0)

(* Diurnal replay: every controller scale action shows up as exactly one
   instant trace event carrying the probe evidence it rested on. *)
let test_elastic_decision_events () =
  let obs = Obs.create () in
  let n = 2_000 in
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.0
      ~servers:3 ~n_queries:n ~seed:271828 ()
  in
  let span = Float.of_int n *. 20.0 /. (1.05 *. 3.0) in
  let queries =
    Bursty.generate cfg
      (Bursty.diurnal ~period:(span /. 2.0) ~low:0.2 ~high:2.0 ())
  in
  let interval = span /. 60.0 in
  let config =
    Elastic.config ~interval ~cost_per_interval:(0.02 *. interval)
      ~boot_delay:(interval /. 2.0) ~cooldown:(2.0 *. interval) ~min_servers:2
      ~max_servers:8 ()
  in
  let _metrics, s =
    Elastic.run ~obs ~policy:Elastic.sla_tree_policy ~config ~queries
      ~n_servers:3 ~warmup_id:0 ()
  in
  check_bool "controller acted" true (s.Elastic.scale_ups > 0);
  let instants name =
    List.filter
      (fun e ->
        e.Obs.Trace.phase = Obs.Trace.Instant && e.Obs.Trace.name = name)
      (Obs.Trace.events (Obs.trace obs))
  in
  let ups = instants "elastic.scale_up" in
  let downs = instants "elastic.scale_down" in
  (* One instant per applied controller action ([summary.events] has one
     entry per action; [summary.scale_ups] sums servers, i.e. k). *)
  let actions p = List.length (List.filter (fun (_, a) -> p a) s.Elastic.events) in
  check_int "one event per scale-up action"
    (actions (function Elastic.Scale_up _ -> true | _ -> false))
    (List.length ups);
  check_int "one event per scale-down action"
    (actions (function Elastic.Scale_down _ -> true | _ -> false))
    (List.length downs);
  let sum_k evs =
    List.fold_left
      (fun acc e ->
        match List.assoc "k" e.Obs.Trace.args with
        | Obs.Trace.I k -> acc + k
        | _ -> acc)
      0 evs
  in
  check_int "up events' k sums to servers added" s.Elastic.scale_ups (sum_k ups);
  check_int "down events' k sums to servers drained" s.Elastic.scale_downs
    (sum_k downs);
  (* Each decision event carries the evidence the policy weighed. *)
  let has_arg e k = List.mem_assoc k e.Obs.Trace.args in
  List.iter
    (fun e ->
      check_string "category" "elastic" e.Obs.Trace.cat;
      List.iter
        (fun k -> check_bool (Fmt.str "arg %s" k) true (has_arg e k))
        [ "k"; "sim_t"; "pool"; "arrivals"; "margin_per_query"; "rent" ])
    (ups @ downs);
  List.iter
    (fun e ->
      check_bool "down carries removal cost" true (has_arg e "removal_cost"))
    downs;
  (* The counters agree with the summary. *)
  let counters = Obs.Registry.counters (Obs.registry obs) in
  let count name = try List.assoc name counters with Not_found -> 0 in
  check_int "elastic.scale_ups" s.Elastic.scale_ups (count "elastic.scale_ups");
  check_int "elastic.scale_downs" s.Elastic.scale_downs
    (count "elastic.scale_downs");
  check_int "decisions = ticks" s.Elastic.decisions (count "elastic.decisions")

(* ------------------------------------------------------------------ *)
(* Teardown: on_close / flush / close *)

let test_close_runs_flushers_in_order () =
  let obs = Obs.create () in
  let log = ref [] in
  Obs.on_close obs (fun () -> log := "a" :: !log);
  Obs.on_close obs (fun () -> log := "b" :: !log);
  check_bool "not closed before" false (Obs.closed obs);
  Obs.close obs;
  check_bool "closed after" true (Obs.closed obs);
  (* Registration order. *)
  check_bool "flushers ran in order" true (List.rev !log = [ "a"; "b" ])

let test_close_idempotent () =
  let obs = Obs.create () in
  let runs = ref 0 in
  Obs.on_close obs (fun () -> incr runs);
  Obs.close obs;
  Obs.close obs;
  check_int "flusher ran once" 1 !runs;
  (* Registrations after close are dropped. *)
  Obs.on_close obs (fun () -> runs := 100);
  Obs.close obs;
  check_int "post-close registration ignored" 1 !runs

let test_flush_without_close () =
  let obs = Obs.create () in
  let runs = ref 0 in
  Obs.on_close obs (fun () -> incr runs);
  Obs.flush obs;
  Obs.flush obs;
  check_int "flush reruns (periodic checkpointing)" 2 !runs;
  check_bool "flush does not close" false (Obs.closed obs);
  Obs.close obs;
  check_int "close flushes once more" 3 !runs

let test_noop_sink_drops_registrations () =
  let obs = Obs.noop in
  let runs = ref 0 in
  Obs.on_close obs (fun () -> incr runs);
  Obs.flush obs;
  Obs.close obs;
  check_int "noop never runs flushers" 0 !runs

let test_flusher_exception_runs_all () =
  let obs = Obs.create () in
  let log = ref [] in
  Obs.on_close obs (fun () -> log := "a" :: !log);
  Obs.on_close obs (fun () -> failwith "first");
  Obs.on_close obs (fun () -> failwith "second");
  Obs.on_close obs (fun () -> log := "d" :: !log);
  (match Obs.close obs with
  | exception Failure m -> check_string "first exception wins" "first" m
  | () -> Alcotest.fail "close should re-raise the flusher exception");
  (* Every flusher still ran, and the obs still ended up closed. *)
  check_bool "non-raising flushers all ran" true (List.rev !log = [ "a"; "d" ]);
  check_bool "closed despite exception" true (Obs.closed obs);
  Obs.close obs

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_registry_counter;
          Alcotest.test_case "gauge" `Quick test_registry_gauge;
          Alcotest.test_case "histogram" `Quick test_registry_histogram;
          Alcotest.test_case "reset" `Quick test_registry_reset;
          Alcotest.test_case "to_json" `Quick test_registry_to_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records events" `Quick test_trace_records_events;
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "zero capacity" `Quick test_trace_zero_capacity;
          Alcotest.test_case "chrome json balanced" `Quick
            test_trace_chrome_json_balanced;
          Alcotest.test_case "jsonl" `Quick test_trace_jsonl;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basics" `Quick test_timeseries_basics;
          Alcotest.test_case "value_at" `Quick test_timeseries_value_at;
          Alcotest.test_case "export" `Quick test_timeseries_export;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop" `Quick test_noop_sink;
          Alcotest.test_case "enabled span" `Quick test_enabled_sink_span;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "sched latency recorded" `Quick
            test_sched_decision_latency_recorded;
          Alcotest.test_case "elastic decision events" `Slow
            test_elastic_decision_events;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "close runs flushers in order" `Quick
            test_close_runs_flushers_in_order;
          Alcotest.test_case "close idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "flush without close" `Quick
            test_flush_without_close;
          Alcotest.test_case "noop drops registrations" `Quick
            test_noop_sink_drops_registrations;
          Alcotest.test_case "flusher exception runs all" `Quick
            test_flusher_exception_runs_all;
        ] );
    ]
