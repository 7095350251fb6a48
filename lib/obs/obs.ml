(* Zero-cost observability for the simulator stack.

   One [Obs.t] sink is threaded through a run and carries three
   instruments:

   - [Registry]: named counters, gauges and latency histograms
     (reusing [Util.Histogram]), snapshot as JSON or pretty-printed;
   - [Trace]: a bounded ring buffer of structured begin/end spans and
     instant events on the host's monotonic clock, exported as Chrome
     trace-event JSON (loadable in Perfetto / chrome://tracing) or
     JSONL;
   - [Timeseries] (standalone): a per-tick sampler of pool-level
     state, written as CSV or JSON.

   The cost discipline: every instrumentation site resolves its
   handles once at instantiation and guards the hot path with a single
   [Obs.enabled] branch; the shared [noop] sink is permanently
   disabled, so a run without observability pays one predictable
   branch per event and allocates nothing. *)

let now_ns () = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* File output; JSON strings and numbers go through [Jsonx]'s printers. *)

let write_file ~path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* ------------------------------------------------------------------ *)
(* Registry *)

module Registry = struct
  type counter = { c_name : string; mutable c : int }
  type gauge = { g_name : string; mutable g : float }

  type histogram = {
    h_name : string;
    h : Histogram.t;  (** shared, reset in place *)
  }

  type t = {
    counters : (string, counter) Hashtbl.t;
    gauges : (string, gauge) Hashtbl.t;
    hists : (string, histogram) Hashtbl.t;
    (* Guards name resolution only: handle *resolution* can happen
       concurrently when parallel experiment workers instantiate
       schedulers against the shared [noop] registry, and unguarded
       [Hashtbl.add] from two domains corrupts the table. Handle
       *operations* (incr/set/observe) stay lock-free — enabled sinks
       are only ever used single-domain. *)
    m : Mutex.t;
  }

  let create () =
    {
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      hists = Hashtbl.create 8;
      m = Mutex.create ();
    }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let counter t name =
    locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c = 0 } in
        Hashtbl.add t.counters name c;
        c)

  let gauge t name =
    locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g = 0.0 } in
        Hashtbl.add t.gauges name g;
        g)

  (* Default binning covers 1 ns .. 10 s logarithmically, 10 bins per
     decade — wide enough for any host-side latency this repo times.
     Re-requesting an existing name returns the registered histogram
     and ignores the shape arguments. *)
  let histogram ?(scale = Histogram.Log10) ?(lo = 1.0) ?(hi = 1e10)
      ?(bins = 100) t name =
    locked t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
        let h = { h_name = name; h = Histogram.create ~scale ~lo ~hi ~bins } in
        Hashtbl.add t.hists name h;
        h)

  let incr c = c.c <- c.c + 1
  let add c n = c.c <- c.c + n
  let count c = c.c
  let counter_name c = c.c_name
  let set g v = g.g <- v
  let value g = g.g
  let gauge_name g = g.g_name
  let observe h v = Histogram.add h.h v
  let observations h = Histogram.total h.h
  let histogram_percentile h p = Histogram.percentile h.h p
  let histogram_name h = h.h_name

  let reset t =
    Hashtbl.iter (fun _ c -> c.c <- 0) t.counters;
    Hashtbl.iter (fun _ g -> g.g <- 0.0) t.gauges;
    Hashtbl.iter (fun _ h -> Histogram.reset h.h) t.hists

  let sorted_fold tbl f =
    Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters t = sorted_fold t.counters (fun c -> c.c)
  let gauges t = sorted_fold t.gauges (fun g -> g.g)
  let histograms t = sorted_fold t.hists (fun h -> h.h)

  let pp ppf t =
    List.iter (fun (n, v) -> Fmt.pf ppf "%-32s %12d@." n v) (counters t);
    List.iter (fun (n, v) -> Fmt.pf ppf "%-32s %12.4g@." n v) (gauges t);
    List.iter
      (fun (n, h) ->
        Fmt.pf ppf "%-32s n=%d p50=%.4g p90=%.4g p99=%.4g@." n
          (Histogram.total h) (Histogram.percentile h 50.0)
          (Histogram.percentile h 90.0)
          (Histogram.percentile h 99.0))
      (histograms t)

  let to_json t =
    let b = Buffer.create 1024 in
    let add = Buffer.add_string b in
    let entries sep xs render =
      List.iteri
        (fun i (name, v) ->
          add (Printf.sprintf "    \"%s\": %s%s\n" (Jsonx.escape name) (render v)
                 (if i = List.length xs - 1 then "" else sep)))
        xs
    in
    add "{\n  \"schema\": \"slatree-obs/1\",\n";
    add "  \"counters\": {\n";
    entries "," (counters t) string_of_int;
    add "  },\n  \"gauges\": {\n";
    entries "," (gauges t) Jsonx.short_float;
    add "  },\n  \"histograms\": {\n";
    entries "," (histograms t) (fun h ->
        Printf.sprintf
          "{\"count\": %d, \"underflow\": %d, \"overflow\": %d, \"p50\": %s, \
           \"p90\": %s, \"p99\": %s}"
          (Histogram.total h) (Histogram.underflow h) (Histogram.overflow h)
          (Jsonx.short_float (Histogram.percentile h 50.0))
          (Jsonx.short_float (Histogram.percentile h 90.0))
          (Jsonx.short_float (Histogram.percentile h 99.0)));
    add "  }\n}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Trace *)

module Trace = struct
  type value = F of float | I of int | S of string

  type phase = Begin | End | Instant

  type event = {
    phase : phase;
    name : string;
    cat : string;
    ts : int64;  (** ns since trace creation *)
    tid : int;
    args : (string * value) list;
  }

  (* Bounded ring: when full, the oldest event is overwritten and
     counted as dropped. The export pass repairs the span nesting a
     partial eviction can break. *)
  type t = {
    buf : event array;
    capacity : int;
    mutable start : int;  (** index of the oldest event *)
    mutable len : int;
    mutable dropped : int;
    t0 : int64;
  }

  let dummy =
    { phase = Instant; name = ""; cat = ""; ts = 0L; tid = 0; args = [] }

  let create ?(capacity = 65536) () =
    if capacity < 0 then invalid_arg "Trace.create: negative capacity";
    {
      buf = Array.make (max 1 capacity) dummy;
      capacity;
      start = 0;
      len = 0;
      dropped = 0;
      t0 = now_ns ();
    }

  let push t ev =
    if t.capacity = 0 then t.dropped <- t.dropped + 1
    else if t.len < t.capacity then begin
      t.buf.((t.start + t.len) mod t.capacity) <- ev;
      t.len <- t.len + 1
    end
    else begin
      t.buf.(t.start) <- ev;
      t.start <- (t.start + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
    end

  let stamp t = Int64.sub (now_ns ()) t.t0

  let begin_span t ?(tid = 0) ?(cat = "app") ?(args = []) name =
    push t { phase = Begin; name; cat; ts = stamp t; tid; args }

  let end_span t ?(tid = 0) () =
    push t { phase = End; name = ""; cat = ""; ts = stamp t; tid; args = [] }

  let instant t ?(tid = 0) ?(cat = "app") ?(args = []) name =
    push t { phase = Instant; name; cat; ts = stamp t; tid; args }

  let length t = t.len
  let dropped t = t.dropped

  let iter t f =
    for i = 0 to t.len - 1 do
      f t.buf.((t.start + i) mod t.capacity)
    done

  let events t =
    let acc = ref [] in
    iter t (fun e -> acc := e :: !acc);
    List.rev !acc

  (* Export: chronological scan that drops orphan End events (their
     Begin was evicted from the ring) and closes still-open spans at
     the last seen timestamp, so the emitted B/E stream is well nested
     per tid whatever the ring evicted. *)
  let balanced t =
    let depth = Hashtbl.create 4 in
    let get tid = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
    let out = ref [] in
    let last_ts = ref 0L in
    iter t (fun e ->
        if e.ts > !last_ts then last_ts := e.ts;
        match e.phase with
        | Begin ->
          Hashtbl.replace depth e.tid (get e.tid + 1);
          out := e :: !out
        | End ->
          let d = get e.tid in
          if d > 0 then begin
            Hashtbl.replace depth e.tid (d - 1);
            out := e :: !out
          end
        | Instant -> out := e :: !out);
    Hashtbl.iter
      (fun tid d ->
        for _ = 1 to d do
          out :=
            { phase = End; name = ""; cat = ""; ts = !last_ts; tid; args = [] }
            :: !out
        done)
      depth;
    List.rev !out

  let value_json = function
    | F f -> Jsonx.short_float f
    | I i -> string_of_int i
    | S s -> Printf.sprintf "\"%s\"" (Jsonx.escape s)

  let args_json args =
    if args = [] then ""
    else
      Printf.sprintf ", \"args\": {%s}"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\": %s" (Jsonx.escape k) (value_json v))
              args))

  let event_json e =
    let ts_us = Int64.to_float e.ts /. 1e3 in
    match e.phase with
    | Begin ->
      Printf.sprintf
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", \"ts\": %.3f, \
         \"pid\": 1, \"tid\": %d%s}"
        (Jsonx.escape e.name) (Jsonx.escape e.cat) ts_us e.tid (args_json e.args)
    | End ->
      Printf.sprintf "{\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d}"
        ts_us e.tid
    | Instant ->
      Printf.sprintf
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \
         \"ts\": %.3f, \"pid\": 1, \"tid\": %d%s}"
        (Jsonx.escape e.name) (Jsonx.escape e.cat) ts_us e.tid (args_json e.args)

  let to_chrome_json t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\": [\n";
    let evs = balanced t in
    List.iteri
      (fun i e ->
        Buffer.add_string b "  ";
        Buffer.add_string b (event_json e);
        Buffer.add_string b (if i = List.length evs - 1 then "\n" else ",\n"))
      evs;
    Buffer.add_string b
      (Printf.sprintf "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": \
                       {\"dropped_events\": \"%d\"}}\n" t.dropped);
    Buffer.contents b

  let to_jsonl t =
    let b = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string b (event_json e);
        Buffer.add_char b '\n')
      (balanced t);
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Timeseries *)

module Timeseries = struct
  type t = {
    columns : string array;
    mutable times : float array;
    mutable values : float array;  (** row-major, [columns] per row *)
    mutable n : int;
  }

  let create ~columns =
    if Array.length columns = 0 then
      invalid_arg "Timeseries.create: no columns";
    { columns; times = [||]; values = [||]; n = 0 }

  let columns t = Array.copy t.columns
  let length t = t.n

  let ensure_capacity t =
    let cap = Array.length t.times in
    if t.n = cap then begin
      let ncap = max 64 (cap * 2) in
      let times = Array.make ncap 0.0 in
      let values = Array.make (ncap * Array.length t.columns) 0.0 in
      Array.blit t.times 0 times 0 t.n;
      Array.blit t.values 0 values 0 (t.n * Array.length t.columns);
      t.times <- times;
      t.values <- values
    end

  let sample t ~now row =
    let k = Array.length t.columns in
    if Array.length row <> k then
      invalid_arg "Timeseries.sample: row width does not match columns";
    ensure_capacity t;
    t.times.(t.n) <- now;
    Array.blit row 0 t.values (t.n * k) k;
    t.n <- t.n + 1

  let time t i =
    if i < 0 || i >= t.n then invalid_arg "Timeseries.time: index";
    t.times.(i)

  let row t i =
    if i < 0 || i >= t.n then invalid_arg "Timeseries.row: index";
    let k = Array.length t.columns in
    Array.sub t.values (i * k) k

  (* Value of [column] at the last sample taken at or before [now]
     (NaN before the first sample) — the pool-size sparkline in
     examples/autoscale.ml reads the series this way. *)
  let value_at t ~column ~now =
    let k = Array.length t.columns in
    let ci =
      let rec find i =
        if i >= k then invalid_arg "Timeseries.value_at: unknown column"
        else if t.columns.(i) = column then i
        else find (i + 1)
      in
      find 0
    in
    let rec last i acc =
      if i >= t.n || t.times.(i) > now then acc
      else last (i + 1) t.values.((i * k) + ci)
    in
    last 0 Float.nan

  let to_csv t =
    let b = Buffer.create 1024 in
    Buffer.add_string b "t";
    Array.iter
      (fun c ->
        Buffer.add_char b ',';
        Buffer.add_string b c)
      t.columns;
    Buffer.add_char b '\n';
    let k = Array.length t.columns in
    for i = 0 to t.n - 1 do
      Buffer.add_string b (Printf.sprintf "%.6g" t.times.(i));
      for j = 0 to k - 1 do
        Buffer.add_string b
          (Printf.sprintf ",%.6g" t.values.((i * k) + j))
      done;
      Buffer.add_char b '\n'
    done;
    Buffer.contents b

  let to_json t =
    let b = Buffer.create 1024 in
    let add = Buffer.add_string b in
    add "{\n  \"schema\": \"slatree-timeseries/1\",\n  \"columns\": [\"t\"";
    Array.iter (fun c -> add (Printf.sprintf ", \"%s\"" (Jsonx.escape c))) t.columns;
    add "],\n  \"rows\": [\n";
    let k = Array.length t.columns in
    for i = 0 to t.n - 1 do
      add (Printf.sprintf "    [%s" (Jsonx.short_float t.times.(i)));
      for j = 0 to k - 1 do
        add (Printf.sprintf ", %s" (Jsonx.short_float t.values.((i * k) + j)))
      done;
      add (if i = t.n - 1 then "]\n" else "],\n")
    done;
    add "  ]\n}\n";
    Buffer.contents b

  let write t ~path =
    write_file ~path
      (if Filename.check_suffix path ".json" then to_json t else to_csv t)
end

(* ------------------------------------------------------------------ *)
(* The sink *)

type t = {
  on : bool;
  reg : Registry.t;
  tr : Trace.t;
  mutable flushers : (unit -> unit) list;  (** registration order *)
  mutable closed : bool;
}

let noop =
  {
    on = false;
    reg = Registry.create ();
    tr = Trace.create ~capacity:0 ();
    flushers = [];
    closed = false;
  }

let create ?trace_capacity () =
  {
    on = true;
    reg = Registry.create ();
    tr = Trace.create ?capacity:trace_capacity ();
    flushers = [];
    closed = false;
  }

let enabled t = t.on
let registry t = t.reg
let trace t = t.tr

let span t ?cat name f =
  if not t.on then f ()
  else begin
    Trace.begin_span t.tr ?cat name;
    Fun.protect ~finally:(fun () -> Trace.end_span t.tr ()) f
  end

let instant t ?cat ?args name =
  if t.on then Trace.instant t.tr ?cat ?args name

let write_metrics t ~path = write_file ~path (Registry.to_json t.reg)

let write_trace t ~path =
  write_file ~path
    (if Filename.check_suffix path ".jsonl" then Trace.to_jsonl t.tr
     else Trace.to_chrome_json t.tr)

(* Teardown: exporters register themselves so a single [close] (or a
   SIGINT handler calling it) flushes every output exactly once,
   whatever the exit path. The noop sink accepts registrations and
   drops them — disabled runs must not grow a flusher list. *)

let on_close t f = if t.on && not t.closed then t.flushers <- f :: t.flushers

let flush t =
  if t.on then begin
    (* Registration order; run them all even if one raises, then
       re-raise the first failure. *)
    let fs = List.rev t.flushers in
    let first_exn = ref None in
    List.iter
      (fun f ->
        try f ()
        with e -> if !first_exn = None then first_exn := Some e)
      fs;
    match !first_exn with Some e -> raise e | None -> ()
  end

let close t =
  if t.on && not t.closed then begin
    (* Mark closed before flushing so a flusher that raises cannot be
       double-run by a second [close] on the error path. *)
    t.closed <- true;
    Fun.protect ~finally:(fun () -> t.flushers <- []) (fun () -> flush t)
  end

let closed t = t.closed
