(* The core layer, replayed: the buffers the pick wrapper (and, for a
   time-dependent planner, the dispatch wrapper) captured are run
   again through [Sla_tree.build] with a reused arena, [What_if]'s
   best-rush and postpone probes, and the insertion probe, each timed
   as a span. Replaying real captures gives the core layer the depth
   distribution the workload produced. *)

type t = {
  build : Lat.t;  (** ns per [Sla_tree.build] *)
  rush : Lat.t;  (** ns per [What_if.best_rush] *)
  postpone : Lat.t;  (** ns per [Sla_tree.postpone] (batches of 64) *)
  insert_per_dispatch : float;
      (** mean ns of tree work per captured dispatch, all servers *)
  words_per_build : float;
}

let postpone_batch = 64

let scale speed (q : Query.t) =
  if speed = 1.0 then q
  else
    Query.make ~id:q.id ~arrival:q.arrival ~size:q.size
      ~est_size:(q.est_size /. speed) ~sla:q.sla ~retries:q.retries
      ~tenant:q.tenant ()

let run (tr : Tracer.t) ~planner =
  let sp = tr.sp in
  let id = Spans.id sp in
  let i_build = id "core.build"
  and i_rush = id "core.best_rush"
  and i_post = id "core.postpone"
  and i_insert = id "core.insert" in
  Spans.set_rid sp (-1);
  let arena = Sla_tree.create_arena () in
  let caps = List.rev tr.pick_caps in
  let n = List.length caps in
  let build = Lat.create n and rush = Lat.create n in
  let postpone = Lat.create n in
  let words = ref 0. in
  List.iter
    (fun (now, buf) ->
      let planned = Planner.planned_queries planner ~now buf in
      let len = Array.length planned in
      let a = Clock.now_ns () in
      Spans.enter sp i_build;
      let w0 = Gcw.words () in
      let tree = Sla_tree.build ~arena ~now planned in
      words := !words +. Gcw.between w0 (Gcw.words ());
      Spans.leave ~arg:len sp;
      let b = Clock.now_ns () in
      Spans.enter sp i_rush;
      ignore (What_if.best_rush tree : (int * float) option);
      Spans.leave ~arg:len sp;
      let c = Clock.now_ns () in
      Lat.add build (b - a);
      Lat.add rush (c - b);
      if len >= 2 then begin
        let a = Clock.now_ns () in
        Spans.enter sp i_post;
        for j = 0 to postpone_batch - 1 do
          let i = 1 + (j * (len - 1) / postpone_batch) in
          ignore
            (Sla_tree.postpone tree ~m:0 ~n:(i - 1)
               ~tau:planned.(i).Query.est_size
              : float)
        done;
        Spans.leave ~arg:postpone_batch sp;
        Lat.add postpone ((Clock.now_ns () - a) / postpone_batch)
      end)
    caps;
  let insert_total = ref 0 in
  List.iter
    (fun (c : Tracer.dispatch_capture) ->
      List.iter
        (fun (free_at, speed, buf) ->
          let planned =
            Array.map (scale speed)
              (Planner.planned_queries planner ~now:c.d_now buf)
          in
          let q = scale speed c.d_query in
          let pos = Planner.insertion_rank planner ~now:c.d_now planned q in
          let a = Clock.now_ns () in
          Spans.enter sp i_insert;
          let tree =
            Sla_tree.of_entries ~arena ~now:free_at
              (Schedule.of_queries ~now:free_at planned)
          in
          ignore (What_if.insertion_delta tree ~query:q ~pos : float);
          Spans.leave ~arg:(Array.length planned) sp;
          insert_total := !insert_total + (Clock.now_ns () - a))
        c.d_servers)
    tr.disp_caps;
  {
    build;
    rush;
    postpone;
    insert_per_dispatch =
      (if tr.n_disp_caps = 0 then 0.
       else Float.of_int !insert_total /. Float.of_int tr.n_disp_caps);
    words_per_build = (if n = 0 then 0. else !words /. Float.of_int n);
  }
