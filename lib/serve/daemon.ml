(* The serving daemon. [Engine] is the sockets-free decision core —
   wire messages in, wire messages out, a live [Sim.session] in the
   middle — and [serve] is the single-threaded [Unix.select] loop
   that feeds it. Keeping the core free of file descriptors is what
   lets the serial-vs-served equivalence suite drive it directly. *)

(* ------------------------------------------------------------------ *)
(* Addresses *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | Some 4 when String.length s > 5 && String.sub s 0 5 = "unix:" ->
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "empty unix socket path" else Ok (Unix_sock path)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port %S" port))
  | None -> (
    match int_of_string_opt s with
    | Some p when p > 0 && p < 65536 -> Ok (Tcp ("127.0.0.1", p))
    | _ -> Error (Printf.sprintf "bad address %S (want unix:PATH, HOST:PORT or PORT)" s))

let pp_addr ppf = function
  | Unix_sock p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "%s:%d" h p

(* ------------------------------------------------------------------ *)
(* Engine *)

module Engine = struct
  type t = {
    clock : Vclock.t;
    sess : Sim.session;
    metrics : Metrics.t;
    o : Obs.t;
    owners : (int, int) Hashtbl.t;  (** qid -> client *)
    tally : (int, int * int * float) Hashtbl.t;
        (** tenant -> (completed, rejected, profit); tenant 0
            (untagged) is not tallied *)
    pending : Query.t Heap.t;
        (** realtime mode: submissions stamped in the future, held
            until due *)
    mutable emit : client:int -> Wire.msg -> unit;
    mutable submitted : int;
    mutable completed : int;
    mutable base : float;
        (** realtime mode: offset added to submitted arrival stamps so
            a trace stamped from 0 lines up with the running virtual
            clock *)
    mutable rebase : bool;
        (** realign [base] at the next submission (daemon start, and
            after every Eof drain — each replay session gets a fresh
            timebase) *)
    (* obs handles, resolved once *)
    c_submitted : Obs.Registry.counter;
    c_eofs : Obs.Registry.counter;
    c_proto_errors : Obs.Registry.counter;
  }

  let obs t = t.o
  let metrics t = t.metrics
  let sim t = Sim.sim t.sess
  let submitted t = t.submitted
  let completed t = t.completed
  let on_emit t f = t.emit <- f

  let create ?(obs = Obs.noop) ?(warmup = 0) ?admit ?speeds ?drop_policy
      ?ticker ~clock ~scheduler ~dispatcher ~n_servers () =
    let pick_next = Schedulers.instantiate ~obs scheduler in
    let dispatch = Dispatchers.instantiate ~obs dispatcher in
    let metrics = Metrics.create ~warmup_id:warmup () in
    let owners = Hashtbl.create 1024 in
    (* The engine record is needed inside the session callbacks;
       tie the knot through a forward ref. *)
    let self = ref None in
    let the () = Option.get !self in
    let tally_on t q ~rejected ~profit =
      let tn = q.Query.tenant in
      if tn > 0 then begin
        let c, r, p =
          Option.value (Hashtbl.find_opt t.tally tn) ~default:(0, 0, 0.0)
        in
        if rejected then Hashtbl.replace t.tally tn (c, r + 1, p)
        else Hashtbl.replace t.tally tn (c + 1, r, p +. profit)
      end
    in
    let on_dispatch ~now q (d : Sim.decision) =
      let t = the () in
      if d.target = None then tally_on t q ~rejected:true ~profit:0.0;
      match Hashtbl.find_opt t.owners q.Query.id with
      | None -> ()
      | Some client ->
        if d.target = None then Hashtbl.remove t.owners q.Query.id;
        t.emit ~client
          (Wire.Decision
             { qid = q.Query.id; vnow = now; target = d.target;
               est_delta = d.est_delta })
    in
    let on_complete q ~completion =
      let t = the () in
      t.completed <- t.completed + 1;
      tally_on t q ~rejected:false ~profit:(Query.profit_at q ~completion);
      match Hashtbl.find_opt t.owners q.Query.id with
      | None -> ()
      | Some client ->
        Hashtbl.remove t.owners q.Query.id;
        t.emit ~client
          (Wire.Completion
             { qid = q.Query.id; vnow = completion;
               profit = Query.profit_at q ~completion })
    in
    let on_server_event ~sid:_ ~now = function
      | Sim.Dropped q -> (
        let t = the () in
        match Hashtbl.find_opt t.owners q.Query.id with
        | None -> ()
        | Some client ->
          Hashtbl.remove t.owners q.Query.id;
          t.emit ~client (Wire.Dropped { qid = q.Query.id; vnow = now }))
      | _ -> ()
    in
    let sess =
      Sim.session ~obs ?admit ~on_dispatch ~on_complete ~on_server_event
        ?speeds ?drop_policy ?ticker ~n_servers ~pick_next ~dispatch ~metrics
        ()
    in
    let reg = Obs.registry obs in
    let t =
      {
        clock;
        sess;
        metrics;
        o = obs;
        owners;
        tally = Hashtbl.create 16;
        pending =
          Heap.create (fun a b ->
              Float.compare a.Query.arrival b.Query.arrival);
        emit = (fun ~client:_ _ -> ());
        submitted = 0;
        completed = 0;
        base = 0.0;
        rebase = true;
        c_submitted = Obs.Registry.counter reg "serve.submitted";
        c_eofs = Obs.Registry.counter reg "serve.eofs";
        c_proto_errors = Obs.Registry.counter reg "serve.protocol_errors";
      }
    in
    self := Some t;
    t

  let summary t =
    let m = t.metrics in
    {
      Wire.completed = Metrics.completed_count m;
      rejected = Metrics.rejected_count m;
      dropped = Metrics.dropped_count m;
      measured = Metrics.measured_count m;
      late = Metrics.late_count m;
      total_profit = Metrics.total_profit m;
      avg_loss = Metrics.avg_loss m;
      avg_response = Metrics.avg_response m;
      vnow = Sim.now (Sim.sim t.sess);
      tenants =
        Hashtbl.fold
          (fun tn (c, r, p) acc ->
            { Wire.tr_tenant = tn; tr_completed = c; tr_rejected = r;
              tr_profit = p }
            :: acc)
          t.tally []
        |> List.sort (fun a b ->
               Int.compare a.Wire.tr_tenant b.Wire.tr_tenant);
    }

  let inject_due t ~vnow =
    let rec go () =
      match Heap.peek t.pending with
      | Some q when q.Query.arrival <= vnow ->
        Sim.inject t.sess (Heap.pop_exn t.pending);
        go ()
      | _ -> ()
    in
    go ()

  let flush_pending t =
    while not (Heap.is_empty t.pending) do
      Sim.inject t.sess (Heap.pop_exn t.pending)
    done

  let drain t =
    flush_pending t;
    Sim.drain t.sess

  let poll t =
    if Vclock.is_realtime t.clock then begin
      let vnow = Vclock.now t.clock in
      inject_due t ~vnow;
      Sim.advance t.sess ~until:vnow
    end

  let next_wakeup_s t =
    if not (Vclock.is_realtime t.clock) then None
    else
      let cand =
        match (Heap.peek t.pending, Sim.next_event_time t.sess) with
        | None, None -> None
        | Some q, None -> Some q.Query.arrival
        | None, Some e -> Some e
        | Some q, Some e -> Some (Float.min q.Query.arrival e)
      in
      Option.map (fun until -> Vclock.wall_delay_s t.clock ~until) cand

  let handle t ~client msg =
    match msg with
    | Wire.Hello _ ->
      t.emit ~client
        (Wire.Hello { version = Wire.protocol_version; client = "slatree-serve" })
    | Wire.Submit q ->
      t.submitted <- t.submitted + 1;
      if Obs.enabled t.o then Obs.Registry.incr t.c_submitted;
      Hashtbl.replace t.owners q.Query.id client;
      if Vclock.is_realtime t.clock then begin
        let vnow = Vclock.now t.clock in
        (* Traces stamp arrivals from 0 but the virtual clock has
           been running since daemon start: align the session's
           timebase on its first submission so the first query
           arrives "now" and the rest keep their relative spacing
           (and their SLA clocks start at the shifted arrival, not in
           the deep past). *)
        if t.rebase then begin
          t.base <- vnow -. q.Query.arrival;
          t.rebase <- false
        end;
        let q =
          if t.base = 0.0 then q
          else
            Query.make ~est_size:q.Query.est_size ~retries:q.Query.retries
              ~tenant:q.Query.tenant ~id:q.Query.id
              ~arrival:(Float.max 0.0 (q.Query.arrival +. t.base))
              ~size:q.Query.size ~sla:q.Query.sla ()
        in
        if q.Query.arrival <= vnow then Sim.inject t.sess q
        else Heap.push t.pending q
      end
      else Sim.inject t.sess q
    | Wire.Eof ->
      if Obs.enabled t.o then Obs.Registry.incr t.c_eofs;
      drain t;
      t.rebase <- true;
      t.emit ~client (Wire.Summary (summary t))
    | Wire.Decision _ | Wire.Completion _ | Wire.Dropped _ | Wire.Summary _
    | Wire.Error_msg _ ->
      if Obs.enabled t.o then Obs.Registry.incr t.c_proto_errors;
      t.emit ~client (Wire.Error_msg "unexpected daemon-to-client message")

  let client_gone t ~client =
    let stale =
      Hashtbl.fold
        (fun qid c acc -> if c = client then qid :: acc else acc)
        t.owners []
    in
    List.iter (Hashtbl.remove t.owners) stale
end

(* ------------------------------------------------------------------ *)
(* The select loop *)

type conn = {
  fd : Unix.file_descr;
  id : int;
  dec : Wire.Decoder.t;
  outq : string Queue.t;
  mutable out_off : int;  (** bytes of the queue head already written *)
  mutable saw_eof : bool;
  mutable closing : bool;  (** close once the out queue flushes *)
}

type scrape_conn = {
  sfd : Unix.file_descr;
  req : Buffer.t;
  mutable resp : string;  (** "" until the request is parsed *)
  mutable resp_off : int;
}

let conn_framing c =
  Option.value ~default:Wire.Binary (Wire.Decoder.framing c.dec)

let enqueue c s =
  if not c.closing then Queue.push s c.outq

let has_output c = not (Queue.is_empty c.outq)

let listen_on addr =
  match addr with
  | Unix_sock path ->
    (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let scrape_response ~engine ~timeseries path =
  let reg = Obs.registry (Engine.obs engine) in
  match path with
  | "/metrics" ->
    http_response ~status:"200 OK" ~content_type:"application/json"
      (Obs.Registry.to_json reg)
  | "/metrics.txt" ->
    http_response ~status:"200 OK" ~content_type:"text/plain"
      (Fmt.str "%a" Obs.Registry.pp reg)
  | "/timeseries" -> (
    match timeseries with
    | Some ts ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (Obs.Timeseries.to_json ts)
    | None ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "no timeseries configured\n")
  | "/healthz" ->
    http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
  | _ ->
    http_response ~status:"404 Not Found" ~content_type:"text/plain"
      "unknown path\n"

let serve ?(stop = ref false) ?(exit_on_idle = false) ?on_ready
    ?metrics_listen ?timeseries ~engine ~listen () =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let lsock = listen_on listen in
  let msock = Option.map listen_on metrics_listen in
  let clients : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let scrapes : scrape_conn list ref = ref [] in
  let next_id = ref 0 in
  let served_eof = ref false in
  let rbuf = Bytes.create 65536 in
  Engine.on_emit engine (fun ~client msg ->
      match Hashtbl.find_opt clients client with
      | None -> ()
      | Some c -> enqueue c (Wire.encode (conn_framing c) msg));
  let close_conn c =
    Hashtbl.remove clients c.id;
    Engine.client_gone engine ~client:c.id;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  in
  let close_scrape sc =
    scrapes := List.filter (fun s -> s != sc) !scrapes;
    try Unix.close sc.sfd with Unix.Unix_error _ -> ()
  in
  (* Returns [false] when the connection died. *)
  let write_some_conn c =
    try
      let progressed = ref true in
      while !progressed && not (Queue.is_empty c.outq) do
        let head = Queue.peek c.outq in
        let len = String.length head - c.out_off in
        let n = Unix.write_substring c.fd head c.out_off len in
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0
        end
        else begin
          c.out_off <- c.out_off + n;
          progressed := false
        end
      done;
      true
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      close_conn c;
      false
  in
  let read_conn c =
    let died = ref false in
    (try
       let n = Unix.read c.fd rbuf 0 (Bytes.length rbuf) in
       if n = 0 then died := true
       else Wire.Decoder.feed c.dec (Bytes.sub_string rbuf 0 n)
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error (Unix.ECONNRESET, _, _) -> died := true);
    if !died then close_conn c
    else begin
      let continue = ref (not c.closing) in
      while !continue do
        match Wire.Decoder.next c.dec with
        | Ok None -> continue := false
        | Ok (Some m) ->
          if m = Wire.Eof then c.saw_eof <- true;
          Engine.handle engine ~client:c.id m
        | Error e ->
          enqueue c (Wire.encode (conn_framing c) (Wire.Error_msg e));
          c.closing <- true;
          continue := false
      done
    end
  in
  let read_scrape sc =
    let died = ref false in
    (try
       let n = Unix.read sc.sfd rbuf 0 (Bytes.length rbuf) in
       if n = 0 then died := true
       else Buffer.add_subbytes sc.req rbuf 0 n
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error (Unix.ECONNRESET, _, _) -> died := true);
    if !died then close_scrape sc
    else if sc.resp = "" then begin
      let req = Buffer.contents sc.req in
      let complete =
        (* Headers are irrelevant; the request line is enough. *)
        String.length req > 4
        && (Option.is_some (String.index_opt req '\n'))
      in
      if complete then
        let line =
          match String.index_opt req '\r' with
          | Some i -> String.sub req 0 i
          | None -> String.sub req 0 (String.index req '\n')
        in
        match String.split_on_char ' ' line with
        | "GET" :: path :: _ ->
          sc.resp <- scrape_response ~engine ~timeseries path
        | _ ->
          sc.resp <-
            http_response ~status:"400 Bad Request" ~content_type:"text/plain"
              "only GET is supported\n"
      else if Buffer.length sc.req > 8192 then close_scrape sc
    end
  in
  let write_scrape sc =
    try
      let len = String.length sc.resp - sc.resp_off in
      let n = Unix.write_substring sc.sfd sc.resp sc.resp_off len in
      sc.resp_off <- sc.resp_off + n;
      if sc.resp_off = String.length sc.resp then close_scrape sc
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      close_scrape sc
  in
  let accept_client () =
    match Unix.accept lsock with
    | fd, _ ->
      Unix.set_nonblock fd;
      incr next_id;
      Hashtbl.replace clients !next_id
        {
          fd;
          id = !next_id;
          dec = Wire.Decoder.create ();
          outq = Queue.create ();
          out_off = 0;
          saw_eof = false;
          closing = false;
        }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let accept_scrape sock =
    match Unix.accept sock with
    | fd, _ ->
      Unix.set_nonblock fd;
      scrapes :=
        { sfd = fd; req = Buffer.create 256; resp = ""; resp_off = 0 }
        :: !scrapes
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  Option.iter (fun f -> f ()) on_ready;
  let running = ref true in
  while !running do
    let timeout =
      match Engine.next_wakeup_s engine with
      | Some s -> Float.min 0.25 (Float.max 0.0 s)
      | None -> 0.25
    in
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
    let rfds =
      lsock
      :: (match msock with Some s -> [ s ] | None -> [])
      @ List.map (fun c -> c.fd) (List.filter (fun c -> not c.closing) conns)
      @ List.filter_map
          (fun sc -> if sc.resp = "" then Some sc.sfd else None)
          !scrapes
    in
    let wfds =
      List.map (fun c -> c.fd) (List.filter has_output conns)
      @ List.filter_map
          (fun sc -> if sc.resp <> "" then Some sc.sfd else None)
          !scrapes
    in
    (match Unix.select rfds wfds [] timeout with
    | r, w, _ ->
      Engine.poll engine;
      if List.mem lsock r then accept_client ();
      (match msock with
      | Some s when List.mem s r -> accept_scrape s
      | _ -> ());
      List.iter
        (fun c ->
          if Hashtbl.mem clients c.id && List.mem c.fd r then read_conn c)
        conns;
      List.iter
        (fun sc ->
          if List.memq sc !scrapes && List.mem sc.sfd r then read_scrape sc)
        !scrapes;
      List.iter
        (fun sc ->
          if List.memq sc !scrapes && List.mem sc.sfd w then write_scrape sc)
        !scrapes;
      List.iter
        (fun c ->
          if Hashtbl.mem clients c.id && (List.mem c.fd w || has_output c)
          then
            if write_some_conn c then begin
              if c.closing && not (has_output c) then close_conn c
            end)
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Engine.poll engine);
    (* A client that announced Eof and hung up means the replay is
       over; with [exit_on_idle] an empty house then shuts the daemon
       down (CI smoke uses this). *)
    Hashtbl.iter (fun _ c -> if c.saw_eof then served_eof := true) clients;
    if exit_on_idle && !served_eof && Hashtbl.length clients = 0 then
      running := false;
    if !stop then running := false
  done;
  (* Graceful shutdown: no new connections, drain the engine (held
     and buffered queries run to completion, emitting through the
     normal path), tell every client, flush, close. *)
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  Option.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) msock;
  (match listen with
  | Unix_sock path ->
    (try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  (match metrics_listen with
  | Some (Unix_sock path) -> (try Sys.remove path with Sys_error _ -> ())
  | _ -> ());
  Engine.drain engine;
  Hashtbl.iter
    (fun _ c ->
      enqueue c (Wire.encode (conn_framing c) (Wire.Summary (Engine.summary engine)));
      enqueue c (Wire.encode (conn_framing c) Wire.Eof))
    clients;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let flush_pending () =
    Hashtbl.fold (fun _ c acc -> acc || has_output c) clients false
  in
  while flush_pending () && Unix.gettimeofday () < deadline do
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
    let wfds = List.map (fun c -> c.fd) (List.filter has_output conns) in
    match Unix.select [] wfds [] 0.1 with
    | _, w, _ ->
      List.iter
        (fun c ->
          if Hashtbl.mem clients c.id && List.mem c.fd w then
            ignore (write_some_conn c))
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
  List.iter close_conn remaining;
  List.iter close_scrape !scrapes
