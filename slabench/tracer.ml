(* The traced run's probes: wrappers the benchmark puts around the
   closures it hands to [Sim] (pick, dispatch, admit, ticker, timers,
   server-event hooks) and around its own calls into the library. An
   untraced run passes the closures through untouched. *)

let names =
  [|
    "sim.inject"; "sim.drain"; "sched.pick"; "dispatch.decide";
    "tenancy.admit"; "elastic.tick"; "elastic.observe"; "fault.timer";
    "fault.hook"; "core.build"; "core.best_rush"; "core.postpone";
    "core.insert"; "serve.encode"; "serve.decode";
  |]

(* Every [capture_every]-th pick (and dispatch) keeps its input for the
   core replay, up to [max_captures]. *)
let capture_every = 16
let max_captures = 400

type dispatch_capture = {
  d_now : float;
  d_servers : (float * float * Query.t array) list;
      (* per dispatchable server: anchor (est. free time), speed,
         arrival-ordered buffer *)
  d_query : Query.t;
}

type t = {
  sp : Spans.t;
  inject : int;
  drain : int;
  pick_ : int;
  decide : int;
  admit_ : int;
  tick_ : int;
  observe : int;
  timer_ : int;
  hook_ : int;
  mutable events : int;
  words : float array;  (* 0: picks, 1: dispatches *)
  mutable picks : int;
  mutable dispatches : int;
  mutable pick_caps : (float * Query.t array) list;
  mutable n_pick_caps : int;
  mutable disp_caps : dispatch_capture list;
  mutable n_disp_caps : int;
  capture_dispatch : bool;
}

let create ?(capture_dispatch = false) ~cap () =
  let sp = Spans.create ~names ~cap in
  let id = Spans.id sp in
  {
    sp;
    inject = id "sim.inject";
    drain = id "sim.drain";
    pick_ = id "sched.pick";
    decide = id "dispatch.decide";
    admit_ = id "tenancy.admit";
    tick_ = id "elastic.tick";
    observe = id "elastic.observe";
    timer_ = id "fault.timer";
    hook_ = id "fault.hook";
    events = 0;
    words = [| 0.; 0. |];
    picks = 0;
    dispatches = 0;
    pick_caps = [];
    n_pick_caps = 0;
    disp_caps = [];
    n_disp_caps = 0;
    capture_dispatch;
  }

let pick tr (f : Sim.pick_next) : Sim.pick_next =
 fun ~now buf ->
  Spans.enter tr.sp tr.pick_;
  let w0 = Gcw.words () in
  let r = f ~now buf in
  tr.words.(0) <- tr.words.(0) +. Gcw.between w0 (Gcw.words ());
  Spans.leave ~arg:(Array.length buf) tr.sp;
  tr.picks <- tr.picks + 1;
  if tr.picks mod capture_every = 0 && tr.n_pick_caps < max_captures then begin
    tr.pick_caps <- (now, buf) :: tr.pick_caps;
    tr.n_pick_caps <- tr.n_pick_caps + 1
  end;
  r

let capture_dispatch tr sim q =
  let servers = ref [] in
  for sid = Sim.n_servers sim - 1 downto 0 do
    if Sim.dispatchable sim sid then begin
      let s = Sim.server sim sid in
      servers :=
        (Sim.est_free_at sim s, s.Sim.speed, Sim.buffer_array s) :: !servers
    end
  done;
  tr.disp_caps <-
    { d_now = Sim.now sim; d_servers = !servers; d_query = q } :: tr.disp_caps;
  tr.n_disp_caps <- tr.n_disp_caps + 1

let dispatch tr (f : Sim.dispatch) : Sim.dispatch =
 fun sim q ->
  tr.dispatches <- tr.dispatches + 1;
  if
    tr.capture_dispatch
    && tr.dispatches mod capture_every = 0
    && tr.n_disp_caps < max_captures
  then capture_dispatch tr sim q;
  Spans.enter tr.sp tr.decide;
  let w0 = Gcw.words () in
  let r = f sim q in
  tr.words.(1) <- tr.words.(1) +. Gcw.between w0 (Gcw.words ());
  Spans.leave ~arg:(Sim.dispatchable_count sim) tr.sp;
  r

let admit tr (f : Sim.admit) : Sim.admit =
 fun sim q ->
  Spans.enter tr.sp tr.admit_;
  let v = f sim q in
  Spans.leave
    ~arg:(match v with Sim.Admit -> 0 | Sim.Degrade _ -> 1 | Sim.Reject -> 2)
    tr.sp;
  v

let ticker tr f sim =
  tr.events <- tr.events + 1;
  Spans.enter tr.sp tr.tick_;
  f sim;
  Spans.leave ~arg:(Sim.live_servers sim) tr.sp

let observe tr f ~now q d =
  Spans.enter tr.sp tr.observe;
  f ~now q d;
  Spans.leave tr.sp

let timers tr a =
  Array.map
    (fun (at, f) ->
      ( at,
        fun sim ->
          tr.events <- tr.events + 1;
          Spans.enter tr.sp tr.timer_;
          f sim;
          Spans.leave tr.sp ))
    a

let fault_hook tr f ~sid ~now ev =
  Spans.enter tr.sp tr.hook_;
  f ~sid ~now ev;
  Spans.leave tr.sp

(* Counts the simulator's events: arrivals are counted by the pass loop,
   ticks and timers by their wrappers. *)
let count_event tr ~sid:_ ~now:_ (ev : Sim.server_event) =
  match ev with
  | Started _ | Enqueued _ -> ()
  | Finished _ | Dropped _ | Scaled_up | Draining | Retired | Crashed
  | Degraded _ | Restored ->
    tr.events <- tr.events + 1

(* Optional-wrapper helpers: identity when untraced. *)
let opt w tr f = match tr with None -> f | Some tr -> w tr f

(* Start of the timed phase: warm-up calls are not part of it. *)
let reset tr =
  Spans.reset tr.sp;
  tr.events <- 0;
  tr.words.(0) <- 0.;
  tr.words.(1) <- 0.;
  tr.picks <- 0;
  tr.dispatches <- 0;
  tr.pick_caps <- [];
  tr.n_pick_caps <- 0;
  tr.disp_caps <- [];
  tr.n_disp_caps <- 0
