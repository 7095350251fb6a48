(* In-memory span recorder for the traced run. Every span keeps its
   name, start, end, parent span, request id (the query id) and one
   integer argument (buffer depth, candidate count, words). Storage is
   preallocated; spans past capacity still feed the per-name totals
   but are not stored. Totals keep self time: a span's duration minus
   the part of it its child spans cover. *)

type t = {
  names : string array;
  cap : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  rid : int array;
  arg : int array;
  mutable n : int;
  mutable dropped : int;
  (* open spans *)
  st_idx : int array;  (* stored index, -1 when not stored *)
  st_name : int array;
  st_start : int array;
  st_child : int array;  (* ns covered by finished children *)
  mutable depth : int;
  (* per-name totals *)
  count : int array;
  total : int array;
  self : int array;
  mutable rid_cur : int;
}

let max_depth = 64

let create ~names ~cap =
  let k = Array.length names in
  {
    names;
    cap;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap (-1);
    arg = Array.make cap 0;
    n = 0;
    dropped = 0;
    st_idx = Array.make max_depth (-1);
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    count = Array.make k 0;
    total = Array.make k 0;
    self = Array.make k 0;
    rid_cur = -1;
  }

let id t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Spans.id: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let set_rid t r = t.rid_cur <- r

let enter t nm =
  let d = t.depth in
  let now = Clock.now_ns () in
  let idx =
    if t.n < t.cap then begin
      let i = t.n in
      t.n <- i + 1;
      t.name.(i) <- nm;
      t.start.(i) <- now;
      t.parent.(i) <- (if d > 0 then t.st_idx.(d - 1) else -1);
      t.rid.(i) <- t.rid_cur;
      i
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_idx.(d) <- idx;
  t.st_name.(d) <- nm;
  t.st_start.(d) <- now;
  t.st_child.(d) <- 0;
  t.depth <- d + 1

let leave ?(arg = 0) t =
  let now = Clock.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = now - t.st_start.(d) in
  let nm = t.st_name.(d) in
  let idx = t.st_idx.(d) in
  if idx >= 0 then begin
    t.stop.(idx) <- now;
    t.arg.(idx) <- arg
  end;
  t.count.(nm) <- t.count.(nm) + 1;
  t.total.(nm) <- t.total.(nm) + dur;
  t.self.(nm) <- t.self.(nm) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur

let count t nm = t.count.(nm)
let total_ns t nm = t.total.(nm)
let self_ns t nm = t.self.(nm)

(* Durations (and arguments) of the stored spans named [nm]. *)
let durations t nm =
  let l = Lat.create t.n in
  for i = 0 to t.n - 1 do
    if t.name.(i) = nm then Lat.add l (t.stop.(i) - t.start.(i))
  done;
  l

let args t nm =
  let l = Lat.create t.n in
  for i = 0 to t.n - 1 do
    if t.name.(i) = nm then Lat.add l t.arg.(i)
  done;
  l

(* Chrome trace-event JSON ("X" complete events, microseconds), the
   first [limit] stored spans. *)
let write_chrome t ~path ~limit =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  let n = min t.n limit in
  for i = 0 to n - 1 do
    let nm = t.names.(t.name.(i)) in
    let cat =
      match String.index_opt nm '.' with
      | Some k -> String.sub nm 0 k
      | None -> nm
    in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"rid\":%d,\"arg\":%d}}\n"
      (if i = 0 then "" else ",")
      nm cat
      (Float.of_int (t.start.(i) - t0) /. 1e3)
      (Float.of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      i t.parent.(i) t.rid.(i) t.arg.(i)
  done;
  Printf.fprintf oc "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"stored\":%d,\"written\":%d,\"dropped\":%d}}\n"
    t.n n t.dropped;
  close_out oc

(* Forget everything recorded so far (call between spans, at depth 0). *)
let reset t =
  t.n <- 0;
  t.dropped <- 0;
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.total 0 (Array.length t.total) 0;
  Array.fill t.self 0 (Array.length t.self) 0
