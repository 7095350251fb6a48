(* The serving daemon: serial-vs-served equivalence (the deterministic
   engine must be bit-identical to [Sim.run] on the same trace), the
   virtual clock, address parsing, and a socket end-to-end run with a
   live scrape. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let feq a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let trace ?(n = 2000) ?(load = 0.9) ?(seed = 3) ~servers () =
  Trace.generate
    (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load ~servers
       ~n_queries:n ~seed ())

(* ------------------------------------------------------------------ *)
(* Serial vs served equivalence *)

type dec = { d_qid : int; d_now : float; d_target : int option; d_delta : float option }

let run_serial ?drop_policy ~warmup ~dispatcher ~queries ~servers () =
  let decisions = ref [] in
  let metrics = Metrics.create ~warmup_id:warmup () in
  Sim.run
    ~on_dispatch:(fun ~now q (d : Sim.decision) ->
      decisions :=
        { d_qid = q.Query.id; d_now = now; d_target = d.target;
          d_delta = d.est_delta }
        :: !decisions)
    ?drop_policy ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  (List.rev !decisions, metrics)

let run_served ?drop_policy ~warmup ~dispatcher ~queries ~servers () =
  let engine =
    Daemon.Engine.create ~warmup ?drop_policy ~clock:(Vclock.manual ())
      ~scheduler:Schedulers.fcfs_sla_tree ~dispatcher ~n_servers:servers
      ()
  in
  let decisions = ref [] in
  let completions = ref 0 in
  let dropped = ref 0 in
  let summary = ref None in
  Daemon.Engine.on_emit engine (fun ~client:_ msg ->
      match msg with
      | Wire.Decision { qid; vnow; target; est_delta } ->
        decisions :=
          { d_qid = qid; d_now = vnow; d_target = target; d_delta = est_delta }
          :: !decisions
      | Wire.Completion _ -> incr completions
      | Wire.Dropped _ -> incr dropped
      | Wire.Summary s -> summary := Some s
      | _ -> ());
  Array.iter (fun q -> Daemon.Engine.handle engine ~client:7 (Wire.Submit q)) queries;
  Daemon.Engine.handle engine ~client:7 Wire.Eof;
  ( List.rev !decisions,
    Daemon.Engine.metrics engine,
    !completions,
    !dropped,
    Option.get !summary )

let dec_equal a b =
  a.d_qid = b.d_qid && feq a.d_now b.d_now && a.d_target = b.d_target
  && (match (a.d_delta, b.d_delta) with
     | None, None -> true
     | Some x, Some y -> feq x y
     | _ -> false)

let assert_equivalent ?drop_policy ~warmup ~mk_dispatcher ~queries ~servers ()
    =
  let serial_decs, serial_m =
    run_serial ?drop_policy ~warmup ~dispatcher:(mk_dispatcher ()) ~queries
      ~servers ()
  in
  let served_decs, served_m, completions, dropped, summary =
    run_served ?drop_policy ~warmup ~dispatcher:(mk_dispatcher ()) ~queries
      ~servers ()
  in
  check_int "decision count" (List.length serial_decs)
    (List.length served_decs);
  List.iteri
    (fun i (a, b) ->
      if not (dec_equal a b) then
        Alcotest.failf
          "decision %d differs: serial q%d@%h->%s vs served q%d@%h->%s" i
          a.d_qid a.d_now
          (match a.d_target with Some t -> string_of_int t | None -> "reject")
          b.d_qid b.d_now
          (match b.d_target with Some t -> string_of_int t | None -> "reject"))
    (List.combine serial_decs served_decs);
  check_int "completed" (Metrics.completed_count serial_m)
    (Metrics.completed_count served_m);
  check_int "rejected" (Metrics.rejected_count serial_m)
    (Metrics.rejected_count served_m);
  check_int "dropped" (Metrics.dropped_count serial_m)
    (Metrics.dropped_count served_m);
  check_int "measured" (Metrics.measured_count serial_m)
    (Metrics.measured_count served_m);
  check_int "late" (Metrics.late_count serial_m) (Metrics.late_count served_m);
  check_bool "total profit bit-equal" true
    (feq (Metrics.total_profit serial_m) (Metrics.total_profit served_m));
  check_bool "avg loss bit-equal" true
    (feq (Metrics.avg_loss serial_m) (Metrics.avg_loss served_m));
  check_bool "avg response bit-equal" true
    (feq (Metrics.avg_response serial_m) (Metrics.avg_response served_m));
  (* The wire-visible accounting agrees with the internal one. *)
  check_int "wire completions" (Metrics.completed_count serial_m) completions;
  check_int "wire drops" (Metrics.dropped_count serial_m) dropped;
  check_bool "summary profit bit-equal" true
    (feq summary.Wire.total_profit (Metrics.total_profit serial_m))

let test_equivalence_plain () =
  let queries = trace ~servers:4 () in
  assert_equivalent ~warmup:0
    ~mk_dispatcher:(fun () -> Dispatchers.sla_tree Planner.fcfs)
    ~queries ~servers:4 ()

let test_equivalence_admission_drop () =
  (* Overload + admission control + drop policy: the rejected and
     dropped paths must serve identically too. *)
  let queries = trace ~n:1500 ~load:1.5 ~seed:11 ~servers:3 () in
  assert_equivalent ~warmup:100
    ~drop_policy:Sim.drop_past_last_deadline
    ~mk_dispatcher:(fun () -> Dispatchers.sla_tree ~admission:true Planner.fcfs)
    ~queries ~servers:3 ()

(* ------------------------------------------------------------------ *)
(* Vclock *)

let test_vclock_manual () =
  let c = Vclock.manual () in
  check_bool "starts at 0" true (Vclock.now c = 0.0);
  Vclock.advance_to c 100.0;
  check_bool "advances" true (Vclock.now c = 100.0);
  Vclock.advance_to c 50.0;
  check_bool "monotone" true (Vclock.now c = 100.0);
  check_bool "manual is immediately due" true
    (Vclock.wall_delay_s c ~until:1e9 = 0.0);
  check_bool "not realtime" true (not (Vclock.is_realtime c))

let test_vclock_realtime () =
  let c = Vclock.realtime ~speed:1000.0 () in
  check_bool "realtime" true (Vclock.is_realtime c);
  let a = Vclock.now c in
  Unix.sleepf 0.01;
  let b = Vclock.now c in
  check_bool "advances with wall time" true (b > a);
  (* 10ms wall at 1000x is ~10_000 virtual ms. *)
  check_bool "speed factor applies" true (b -. a > 1000.0);
  check_bool "delay scales down" true
    (Vclock.wall_delay_s c ~until:(Vclock.now c +. 10_000.0) < 1.0);
  (match Vclock.advance_to c 5.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "advance_to on a realtime clock should raise");
  match Vclock.realtime ~speed:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "speed 0 should raise"

let test_addr_of_string () =
  check_bool "unix" true
    (Daemon.addr_of_string "unix:/tmp/x.sock" = Ok (Daemon.Unix_sock "/tmp/x.sock"));
  check_bool "host:port" true
    (Daemon.addr_of_string "0.0.0.0:9000" = Ok (Daemon.Tcp ("0.0.0.0", 9000)));
  check_bool "bare port" true
    (Daemon.addr_of_string "9000" = Ok (Daemon.Tcp ("127.0.0.1", 9000)));
  check_bool ":port" true
    (Daemon.addr_of_string ":9000" = Ok (Daemon.Tcp ("127.0.0.1", 9000)));
  check_bool "garbage" true
    (match Daemon.addr_of_string "not an address" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "empty unix path" true
    (match Daemon.addr_of_string "unix:" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Socket end-to-end: daemon in a second domain, replay over a unix
   socket in deterministic mode, live scrape, then equivalence of the
   final accounting against Sim.run. *)

let http_get ~addr ~path =
  let fd = Replay.connect addr in
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nConnection: close\r\n\r\n" path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Unix.close fd;
  let resp = Buffer.contents buf in
  (* Split the response at the header/body blank line. *)
  let rec find i =
    if i + 3 >= String.length resp then None
    else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub resp i (String.length resp - i)
  | None -> Alcotest.failf "no body in response: %S" resp

let test_socket_end_to_end () =
  let dir = Filename.temp_file "slatree-serve" "" in
  Sys.remove dir;
  let sock = dir ^ ".sock" in
  let msock = dir ^ "-metrics.sock" in
  let queries = trace ~n:1200 ~servers:4 ~seed:5 () in
  let obs = Obs.create ~trace_capacity:0 () in
  let engine =
    Daemon.Engine.create ~obs ~clock:(Vclock.manual ())
      ~scheduler:Schedulers.fcfs_sla_tree
      ~dispatcher:(Dispatchers.sla_tree Planner.fcfs)
      ~n_servers:4 ()
  in
  let stop = ref false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.serve ~stop ~exit_on_idle:true ~engine
          ~listen:(Daemon.Unix_sock sock)
          ~metrics_listen:(Daemon.Unix_sock msock)
          ())
  in
  (* Wait for the listeners. *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon did not come up";
    if not (Sys.file_exists sock && Sys.file_exists msock) then begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  (* A holder connection keeps the daemon alive after the replay
     client disconnects, so the scrape below hits a live server. *)
  let holder = Replay.connect (Daemon.Unix_sock sock) in
  let r =
    Replay.run ~speed:0.0 ~client:"test" ~fd:(Replay.connect (Daemon.Unix_sock sock))
      ~queries ()
  in
  check_int "all sent" (Array.length queries) r.Replay.sent;
  check_bool "no daemon errors" true (r.Replay.errors = []);
  check_int "every query decided" (Array.length queries) r.Replay.decisions;
  check_int "every query completed" (Array.length queries) r.Replay.completions;
  let summary =
    match r.Replay.summary with
    | Some s -> s
    | None -> Alcotest.fail "no summary"
  in
  (* Scrape while the daemon is still up, and validate the snapshot. *)
  let body = http_get ~addr:(Daemon.Unix_sock msock) ~path:"/metrics" in
  (match Jsonx.parse body with
  | j ->
    check_bool "schema" true
      (Jsonx.member "schema" j |> Option.get |> Jsonx.to_str
      = Some "slatree-obs/1");
    let counter name =
      Jsonx.member "counters" j
      |> Option.get |> Jsonx.member name
      |> Option.map (fun v -> Option.get (Jsonx.to_int v))
    in
    check_bool "sim.arrivals scraped" true
      (counter "sim.arrivals" = Some (Array.length queries));
    check_bool "dispatch decisions scraped" true
      (counter "dispatch.decisions" = Some (Array.length queries))
  | exception Jsonx.Parse_error e -> Alcotest.failf "bad scrape json: %s" e);
  let health = http_get ~addr:(Daemon.Unix_sock msock) ~path:"/healthz" in
  check_bool "healthz" true (health = "ok\n");
  (* Served accounting equals Sim.run on the identical trace. *)
  let _, serial_m =
    run_serial ~warmup:0 ~dispatcher:(Dispatchers.sla_tree Planner.fcfs)
      ~queries ~servers:4 ()
  in
  check_bool "profit equals Sim.run bit-for-bit" true
    (feq summary.Wire.total_profit (Metrics.total_profit serial_m));
  check_bool "client profit sum matches" true
    (Float.abs (r.Replay.profit -. Metrics.total_profit serial_m) < 1e-6);
  check_int "completed equals Sim.run" (Metrics.completed_count serial_m)
    summary.Wire.completed;
  (* Let the daemon exit via exit-on-idle and join it. *)
  Unix.close holder;
  ignore !stop;
  Domain.join daemon;
  check_bool "socket cleaned up" true (not (Sys.file_exists sock))

let () =
  Alcotest.run "serve"
    [
      ( "equivalence",
        [
          Alcotest.test_case "serial = served (plain)" `Quick
            test_equivalence_plain;
          Alcotest.test_case "serial = served (admission + drop)" `Quick
            test_equivalence_admission_drop;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "manual" `Quick test_vclock_manual;
          Alcotest.test_case "realtime" `Quick test_vclock_realtime;
        ] );
      ( "addr",
        [ Alcotest.test_case "parsing" `Quick test_addr_of_string ] );
      ( "socket",
        [
          Alcotest.test_case "end-to-end with scrape" `Quick
            test_socket_end_to_end;
        ] );
    ]
