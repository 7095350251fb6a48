(* served-tenants: the daemon in its own process (a fresh exec of this
   binary in [--daemon] mode) with a manual clock, so its decisions are
   deterministic and equal to [Sim.run] on the same stack. One
   unix-socket connection with binary framing; this process is the
   only client. Traffic is the vendored SWF excerpt tiled
   through [Swf]/[Sla_synth], with tenants from [Tenancy.assign],
   tenancy admission on, eight servers, FCFS+SLA-tree.

   A pass: set-up (daemon start, workload synthesis, connect, warm-up
   arrivals), then three timed phases over consecutive slices of the
   one query stream:
   - unpaced: submissions as fast as the socket takes them, at most
     [window] awaiting a decision, reads interleaved ([queries_per_s]);
   - one request in flight: each submission waits for the previous
     decision, so each sample is one round trip (the decision
     latency);
   - paced at [paced_rate]: each frame written when it falls due, for
     the generator's lag behind its schedule. *)

let servers = 8
let swf_path = "slabench/data/pwa_excerpt.swf"
let warmup = 10_000
let unpaced = 60_000
let in_flight_one = 100_000
let paced_rate = 5_000.
let paced = 5_000
let n_queries = warmup + unpaced + in_flight_one + paced
let measured = n_queries - warmup

(* About a third of the eight servers' capacity: the trace's bursts
   still queue work, so admission prices real contention, while a
   decision stays a few microseconds and the socket path dominates. *)
let synth ~seed = Sla_synth.config ~load_factor:0.15 ~seed ()

let registry ~seed =
  Tenancy.registry ~seed ~synth:(synth ~seed)
    (Tenancy.default_registry ()).Tenancy.profiles

let tiles = (n_queries / 2_000) + 1

let gen ~seed =
  let qs =
    Sla_synth.to_queries (synth ~seed) ~tiles ~max_jobs:n_queries
      ~path:swf_path ()
  in
  if Array.length qs <> n_queries then failwith "served-tenants: trace too short";
  Tenancy.assign (registry ~seed) qs

(* The decision stack, shared by the daemon and the in-process
   reference runs. *)
let admission ~seed =
  let reg = registry ~seed in
  let acct = Tenancy.Acct.create reg ~warmup_id:warmup in
  Tenancy.admit (Tenancy.admission reg ~acct ())

let scheduler = Schedulers.fcfs_sla_tree
let dispatcher = Dispatchers.sla_tree Planner.fcfs

(* ---- the daemon process ---------------------------------------- *)

(* Serves one replay, then prints its own allocation over the timed
   phase (from the first measured arrival to exit) and heap peak. *)
let daemon ~sock ~seed =
  let admit = admission ~seed in
  let w0 = ref Float.nan in
  let admit sim q =
    if q.Query.id = warmup then w0 := Gcw.words ();
    admit sim q
  in
  let engine =
    Daemon.Engine.create ~warmup ~admit ~clock:(Vclock.manual ()) ~scheduler
      ~dispatcher ~n_servers:servers ()
  in
  Daemon.serve ~exit_on_idle:true ~engine ~listen:(Daemon.Unix_sock sock) ();
  let words = Gcw.between !w0 (Gcw.words ()) in
  Printf.printf "%h %d\n%!" words (Gc.quick_stat ()).Gc.top_heap_words

type daemon_proc = { pid : int; report : Unix.file_descr; sock : string }

let spawn ~seed =
  let sock = State.path (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; sock; "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  { pid; report = rd; sock }

(* Waits for the daemon to exit; its report, if it made one. *)
let reap d =
  let ic = Unix.in_channel_of_descr d.report in
  let line = In_channel.input_line ic in
  close_in ic;
  let _, status = Unix.waitpid [] d.pid in
  match (line, status) with
  | Some l, Unix.WEXITED 0 -> (
    try Scanf.sscanf l "%h %d" (fun w h -> Some (w, h)) with _ -> None)
  | _ -> None

(* ---- the client ------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  rbuf : Bytes.t;
  obuf : Bytes.t;
  mutable o_lo : int;
  mutable o_hi : int;
  mutable closed : bool;
  dec_at : int array;  (* per query id: ns its decision was decoded *)
  mutable decisions : int;
  mutable duplicates : int;
  mutable rejected : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable errors : int;
  mutable summary : Wire.summary option;
  spans : Tracer.t option;
}

let connect sock ~spans =
  let deadline = Clock.now_ns () + 10_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now_ns () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  let fd = go () in
  Unix.set_nonblock fd;
  {
    fd;
    dec = Wire.Decoder.create ~framing:Wire.Binary ();
    rbuf = Bytes.create 65536;
    obuf = Bytes.create (1 lsl 20);
    o_lo = 0;
    o_hi = 0;
    closed = false;
    dec_at = Array.make n_queries 0;
    decisions = 0;
    duplicates = 0;
    rejected = 0;
    frames_in = 0;
    frames_out = 0;
    errors = 0;
    summary = None;
    spans;
  }

let on_msg c (m : Wire.msg) =
  c.frames_in <- c.frames_in + 1;
  match m with
  | Decision { qid; target; _ } ->
    if qid < 0 || qid >= n_queries then c.errors <- c.errors + 1
    else if c.dec_at.(qid) <> 0 then c.duplicates <- c.duplicates + 1
    else begin
      c.dec_at.(qid) <- Clock.now_ns ();
      c.decisions <- c.decisions + 1;
      if target = None then c.rejected <- c.rejected + 1
    end
  | Summary s -> c.summary <- Some s
  | Error_msg e ->
    Printf.eprintf "slabench: daemon error: %s\n%!" e;
    c.errors <- c.errors + 1
  | Completion _ | Dropped _ | Hello _ | Eof -> ()
  | Submit _ -> c.errors <- c.errors + 1

let next_msg c =
  match c.spans with
  | None -> Wire.Decoder.next c.dec
  | Some tr ->
    Spans.enter tr.sp (Spans.id tr.sp "serve.decode");
    let r = Wire.Decoder.next c.dec in
    Spans.leave tr.sp;
    r

let pump_reads c =
  let again = ref true in
  while !again && not c.closed do
    (match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
    | 0 -> c.closed <- true
    | n -> Wire.Decoder.feed c.dec (Bytes.sub_string c.rbuf 0 n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      again := false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.closed <- true);
    let more = ref true in
    while !more do
      match next_msg c with
      | Ok (Some m) -> on_msg c m
      | Ok None -> more := false
      | Error e ->
        Printf.eprintf "slabench: decode: %s\n%!" e;
        c.errors <- c.errors + 1;
        c.closed <- true;
        more := false
    done
  done

let flush c =
  if c.o_hi > c.o_lo && not c.closed then
    match Unix.write c.fd c.obuf c.o_lo (c.o_hi - c.o_lo) with
    | n ->
      c.o_lo <- c.o_lo + n;
      if c.o_lo = c.o_hi then begin
        c.o_lo <- 0;
        c.o_hi <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      c.closed <- true

let encode c m =
  match c.spans with
  | None -> Wire.encode Wire.Binary m
  | Some tr ->
    Spans.enter tr.sp (Spans.id tr.sp "serve.encode");
    let s = Wire.encode Wire.Binary m in
    Spans.leave tr.sp;
    s

(* Queue one frame, making room first if the buffer is full. *)
let send c m =
  let s = encode c m in
  let len = String.length s in
  if c.o_hi + len > Bytes.length c.obuf then begin
    if c.o_lo > 0 then begin
      Bytes.blit c.obuf c.o_lo c.obuf 0 (c.o_hi - c.o_lo);
      c.o_hi <- c.o_hi - c.o_lo;
      c.o_lo <- 0
    end;
    while c.o_hi + len > Bytes.length c.obuf && not c.closed do
      flush c;
      pump_reads c
    done
  end;
  Bytes.blit_string s 0 c.obuf c.o_hi len;
  c.o_hi <- c.o_hi + len;
  c.frames_out <- c.frames_out + 1

exception Stalled

(* Spin until every query in [a, b) has its decision. *)
let await c ~a ~b =
  let deadline = Clock.now_ns () + 20_000_000_000 in
  let lo = ref a in
  while
    while !lo < b && c.dec_at.(!lo) <> 0 do
      incr lo
    done;
    !lo < b
  do
    if c.closed || Clock.now_ns () > deadline then raise Stalled;
    flush c;
    pump_reads c
  done

(* At most this many submissions await their decision in the unpaced
   phases, so a stalled reader cannot grow the daemon's output queue
   (and its heap) without bound. *)
let window = 2_048

let unpaced_phase c (qs : Query.t array) ~a ~b =
  for i = a to b - 1 do
    while i - c.decisions >= window && not c.closed do
      flush c;
      pump_reads c
    done;
    send c (Wire.Submit qs.(i));
    if c.o_hi - c.o_lo >= 16384 then begin
      flush c;
      pump_reads c
    end
  done;
  await c ~a ~b

(* Submit [a, b) at [rate]/s, each frame written when it falls due: ns
   the generator ran behind its schedule. *)
let paced_phase c (qs : Query.t array) ~a ~b ~rate =
  let n = b - a in
  let gap = 1e9 /. rate in
  let due = Array.make n 0 and lag = Lat.create n in
  let t0 = Clock.now_ns () + 200_000 in
  for k = 0 to n - 1 do
    due.(k) <- t0 + int_of_float (Float.of_int k *. gap)
  done;
  let next = ref 0 in
  while !next < n do
    if c.closed then raise Stalled;
    let now = Clock.now_ns () in
    if due.(!next) <= now then begin
      send c (Wire.Submit qs.(a + !next));
      flush c;
      Lat.add lag (now - due.(!next));
      incr next
    end;
    pump_reads c
  done;
  await c ~a ~b;
  lag

(* One request in flight: ns from each send to its decision. *)
let round_trips c (qs : Query.t array) ~a ~b =
  let lat = Lat.create (b - a) in
  for i = a to b - 1 do
    let t = Clock.now_ns () in
    send c (Wire.Submit qs.(i));
    await c ~a:i ~b:(i + 1);
    Lat.add lat (c.dec_at.(i) - t)
  done;
  lat

(* ---- passes ------------------------------------------------------ *)

type pass = {
  setup_s : float;
  unpaced_s : float;
  lat : Lat.t;
  lag : Lat.t;
  ok : bool;  (** every check of the pass held *)
  daemon : (float * int) option;  (** words over the timed phase, top heap *)
  frames : int;
}

(* The reference: the same stack run in process by [Sim.run]. *)
let reference ~seed qs =
  let metrics = Metrics.create ~warmup_id:warmup () in
  Sim.run ~admit:(admission ~seed) ~queries:qs ~n_servers:servers
    ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  metrics

let check_fail name =
  Printf.eprintf "slabench: served-tenants: CHECK FAILED: %s\n%!" name;
  false

let run_pass ?spans ~seed ~ref_profit () =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let d = spawn ~seed in
  let qs = gen ~seed in
  let c = connect d.sock ~spans in
  let result =
    try
      unpaced_phase c qs ~a:0 ~b:warmup;
      let t1 = Clock.now_ns () in
      let a = warmup and b = warmup + unpaced in
      unpaced_phase c qs ~a ~b;
      let t2 = Clock.now_ns () in
      let lat = round_trips c qs ~a:b ~b:(b + in_flight_one) in
      let a = b + in_flight_one in
      let lag = paced_phase c qs ~a ~b:n_queries ~rate:paced_rate in
      send c Wire.Eof;
      let deadline = Clock.now_ns () + 20_000_000_000 in
      while c.summary = None && (not c.closed) && Clock.now_ns () < deadline do
        flush c;
        pump_reads c
      done;
      Some (t1, t2, lat, lag)
    with Stalled -> None
  in
  Unix.close c.fd;
  let daemon = reap d in
  match result with
  | None ->
    ignore (check_fail "the daemon answered every submission");
    None
  | Some (t1, t2, lat, lag) ->
    let checks =
      [
        c.decisions = n_queries && c.duplicates = 0
        || check_fail "exactly one Decision per Submit";
        c.errors = 0 || check_fail "no error frames, no undecodable bytes";
        (match c.summary with
        | None -> check_fail "the daemon sent its Summary"
        | Some s ->
          (s.rejected = c.rejected
          || check_fail "offered = admitted + rejected (client vs daemon)")
          && (s.completed + s.dropped + s.rejected = n_queries
             || check_fail "completed + dropped + rejected = offered")
          && (Int64.equal
                (Int64.bits_of_float s.total_profit)
                (Int64.bits_of_float ref_profit)
             || check_fail "daemon profit is bit-equal to in-process Sim.run"));
        daemon <> None || check_fail "the daemon exited cleanly with its report";
      ]
    in
    Some
      {
        setup_s = Clock.s_of_ns (t1 - t0);
        unpaced_s = Clock.s_of_ns (t2 - t1);
        lat;
        lag;
        ok = List.for_all Fun.id checks;
        daemon;
        frames = c.frames_in + c.frames_out;
      }

let nominal_pass_s = 7.5
let us = Bench_inproc.us

let loss_per_query m =
  ((Metrics.avg_loss m *. Float.of_int (Metrics.measured_count m))
  +. Metrics.rejected_loss m)
  /. Float.of_int measured

let account out p =
  Out.attempt out n_queries;
  match p with
  | Some p -> Out.check out ~ops:n_queries "served-tenants pass checks" p.ok
  | None -> Out.check out ~ops:n_queries "served-tenants pass completed" false

let end_to_end out ~seed ~seconds =
  let qs = gen ~seed in
  let m = reference ~seed qs in
  let ref_profit = Metrics.total_profit m in
  let n = Bench_inproc.n_passes ~nominal_pass_s ~seconds in
  let passes =
    List.init n (fun _ ->
        let p = run_pass ~seed ~ref_profit () in
        account out p;
        p)
    |> List.filter_map Fun.id
  in
  if passes = [] then exit 1;
  let med f = Lat.median_f (List.map f passes) in
  Printf.eprintf
    "slabench: served-tenants seed %d: %d passes of %d decision samples (%d \
     beyond p90)\n%!"
    seed (List.length passes) in_flight_one (in_flight_one / 10);
  let daemon f =
    med (fun p -> match p.daemon with Some d -> f d | None -> Float.nan)
  in
  Catalog.emit out Catalog.end_to_end
    [
      ("setup_s", med (fun p -> p.setup_s));
      ("queries_per_s", med (fun p -> Float.of_int unpaced /. p.unpaced_s));
      ("decision_p50_us", med (fun p -> us (Lat.percentile p.lat 50.)));
      ("decision_p90_us", med (fun p -> us (Lat.percentile p.lat 90.)));
      ("loss_per_query", loss_per_query m);
      ("alloc_words_per_query", daemon (fun (w, _) -> w /. Float.of_int measured));
      ("peak_heap_mb", daemon (fun (_, h) -> Bench_inproc.mb_of_words h));
    ]

(* ---- per-layer run ---------------------------------------------- *)

(* The stack in process over [Sim.session], traced like the other
   workloads: admission, dispatch and pick spans. *)
let inproc ~seed =
  let build ~seed:_ tracer _qs =
    let opt w f = Tracer.opt w tracer f in
    let metrics = Metrics.create ~warmup_id:warmup () in
    let on_server_event =
      match tracer with
      | Some tr -> Tracer.count_event tr
      | None -> fun ~sid:_ ~now:_ _ -> ()
    in
    let session =
      Sim.session ~n_servers:servers ~on_server_event
        ~admit:(opt Tracer.admit (admission ~seed))
        ~pick_next:(opt Tracer.pick (Schedulers.pick scheduler))
        ~dispatch:(opt Tracer.dispatch (Dispatchers.instantiate dispatcher))
        ~metrics ()
    in
    {
      Inproc.session;
      metrics;
      close = (fun () -> { Inproc.rent = 0.; reoffers = 0; layer = [] });
    }
  in
  {
    Inproc.name = "served-tenants";
    n_queries;
    warmup_id = warmup;
    gen;
    build;
    planner = Planner.fcfs;
    dispatch_core = false;
    spans_per_query = 6;
    nominal_pass_s = 1.;
  }

(* [Daemon.Engine.handle] in process on the decoded Submit frames of the
   stream: ns per measured frame. *)
let engine_times ~seed qs =
  let e =
    Daemon.Engine.create ~warmup ~admit:(admission ~seed)
      ~clock:(Vclock.manual ()) ~scheduler ~dispatcher ~n_servers:servers ()
  in
  Daemon.Engine.on_emit e (fun ~client:_ _ -> ());
  let frames =
    Array.map
      (fun q ->
        match Wire.decode Wire.Binary (Wire.encode Wire.Binary (Wire.Submit q)) with
        | Ok (m, _) -> m
        | Error _ -> failwith "served-tenants: a Submit frame does not decode")
      qs
  in
  let lat = Lat.create measured in
  Array.iteri
    (fun i m ->
      if i < warmup then Daemon.Engine.handle e ~client:0 m
      else begin
        let a = Clock.now_ns () in
        Daemon.Engine.handle e ~client:0 m;
        Lat.add lat (Clock.now_ns () - a)
      end)
    frames;
  Daemon.Engine.handle e ~client:0 Wire.Eof;
  lat

(* SWF parsing and synthesis rates over the tiled stream. *)
let workload_rates ~seed =
  let bytes = Float.of_int ((Unix.stat swf_path).Unix.st_size * tiles) in
  let a = Clock.now_ns () in
  let jobs = ref 0 in
  for _ = 1 to tiles do
    jobs := Swf.fold swf_path ~init:!jobs ~f:(fun k _ -> k + 1)
  done;
  let b = Clock.now_ns () in
  let qs =
    Sla_synth.to_queries (synth ~seed) ~tiles ~max_jobs:n_queries
      ~path:swf_path ()
  in
  let c = Clock.now_ns () in
  [
    ("workload.swf_mb_per_s", bytes /. 1e6 /. Clock.s_of_ns (b - a));
    ( "workload.synth_jobs_per_s",
      Float.of_int (Array.length qs) /. Clock.s_of_ns (c - b) );
  ]

let per_layer out ~seed =
  let w = inproc ~seed in
  let u, metrics, fracs = Bench_inproc.traced_triple out w ~seed in
  (* the socket run's tracing overhead replaces the in-process one *)
  let metrics = List.remove_assoc "trace.overhead_frac" metrics in
  let qs = gen ~seed in
  let m = reference ~seed qs in
  let ref_profit = Metrics.total_profit m in
  Out.check out ~ops:n_queries
    "served-tenants: Sim.session run equals Sim.run (loss_per_query)"
    (Int64.equal
       (Int64.bits_of_float u.Inproc.loss_per_query)
       (Int64.bits_of_float (loss_per_query m)));
  let socket ?spans () =
    let p =
      run_pass ?spans ~seed ~ref_profit ()
    in
    account out p;
    match p with Some p -> p | None -> exit 1
  in
  let s1 = socket () in
  let tr = Tracer.create ~cap:(n_queries * 6) () in
  let st = socket ~spans:tr () in
  let s2 = socket () in
  let engine = engine_times ~seed qs in
  let sp = tr.sp in
  Spans.write_chrome sp
    ~path:(State.path "trace-served-tenants-socket.json")
    ~limit:100_000;
  let per_frame name =
    let i = Spans.id sp name in
    Float.of_int (Spans.total_ns sp i) /. Float.of_int (max 1 (Spans.count sp i))
  in
  let encode_ns = per_frame "serve.encode" in
  let frames_per_query = Float.of_int s1.frames /. Float.of_int n_queries in
  let decode_ns =
    Float.of_int (Spans.total_ns sp (Spans.id sp "serve.decode"))
    /. Float.of_int (max 1 st.frames)
  in
  let codec_ns = (encode_ns +. decode_ns) *. frames_per_query in
  let rtt = s1.lat and rtt_mean = Lat.mean s1.lat in
  let engine_mean = Lat.mean engine in
  let engine_share = engine_mean /. rtt_mean in
  let fracs =
    ("serve.self_frac", 1. -. engine_share)
    :: List.map (fun (n, v) -> (n, v *. engine_share)) fracs
  in
  Bench_inproc.write_self_table ~name:w.name fracs;
  Catalog.emit out Catalog.per_layer
    (metrics @ fracs @ workload_rates ~seed
    @ [
        ("serve.encode_ns", encode_ns);
        ("serve.decode_ns", decode_ns);
        ("serve.engine_us_p50", us (Lat.percentile engine 50.));
        ("serve.engine_us_p99", us (Lat.percentile engine 99.));
        ("serve.rtt_us_p50", us (Lat.percentile rtt 50.));
        ( "serve.socket_us_p50",
          us (Lat.percentile rtt 50. - Lat.percentile engine 50.)
          -. (codec_ns /. 1e3) );
        ("serve.gen_lag_us_p99", us (Lat.percentile s1.lag 99.));
        ("serve.frames_per_query", frames_per_query);
        ( "trace.overhead_frac",
          (st.unpaced_s /. Float.min s1.unpaced_s s2.unpaced_s) -. 1. );
      ])

let run out ~seed ~seconds ~trace =
  if trace then per_layer out ~seed else end_to_end out ~seed ~seconds
