(* Planners: the "existing execution order" the SLA-tree framework
   requires (paper Sec 8.1). A planner maps the arrival-ordered buffer
   to a permutation giving the planned execution order.

   All planners are stable: queries that compare equal keep their
   arrival order. Stability also guarantees the "very minor condition"
   of Sec 6.2 — inserting a query never reorders the others — which the
   SLA-tree dispatcher relies on. *)

type t = {
  name : string;
  permutation : now:float -> Query.t array -> int array;
  time_invariant : bool;
      (* whether the permutation is independent of [now]; probe caches
         may only reuse a planned order across arrivals when true *)
  ranks_newcomer_last : bool;
      (* whether a newcomer always ranks after the whole buffer, so its
         insertion postpones nobody and the what-if needs no tree *)
  keys : (now:float -> Query.t -> float * float) option;
      (* for planners that are a stable sort on a lexicographic float
         pair: the sort key. Enables O(log n) insertion ranking over an
         already-planned buffer. *)
}

let name t = t.name
let time_invariant t = t.time_invariant
let ranks_newcomer_last t = t.ranks_newcomer_last

let plan t ~now buffer =
  let perm = t.permutation ~now buffer in
  assert (Array.length perm = Array.length buffer);
  perm

let planned_queries t ~now buffer =
  let perm = plan t ~now buffer in
  Array.map (fun i -> buffer.(i)) perm

(* Stable sort of indices by a key function; ties keep arrival order. *)
let by_key key =
 fun ~now buffer ->
  let n = Array.length buffer in
  let idx = Array.init n (fun i -> i) in
  let keys = Array.map (key ~now) buffer in
  Array.sort
    (fun a b ->
      let c = Float.compare keys.(a) keys.(b) in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

let fcfs =
  {
    name = "FCFS";
    permutation = (fun ~now:_ b -> Array.init (Array.length b) Fun.id);
    time_invariant = true;
    ranks_newcomer_last = true;
    (* identity order = a stable sort on a constant key: everything
       ties, and the newcomer (latest arrival) loses every tie, so the
       sorted insertion rank correctly lands at the end. *)
    keys = Some (fun ~now:_ _ -> (0.0, 0.0));
  }

let sjf =
  {
    name = "SJF";
    permutation = by_key (fun ~now:_ q -> q.Query.est_size);
    time_invariant = true;
    ranks_newcomer_last = false;
    keys = Some (fun ~now:_ q -> (q.Query.est_size, 0.0));
  }

let edf =
  {
    name = "EDF";
    permutation = by_key (fun ~now:_ q -> Query.first_deadline q);
    time_invariant = true;
    ranks_newcomer_last = false;
    keys = Some (fun ~now:_ q -> (Query.first_deadline q, 0.0));
  }

(* Stable sort on a lexicographic pair of keys. *)
let by_key_pair key =
 fun ~now buffer ->
  let n = Array.length buffer in
  let idx = Array.init n (fun i -> i) in
  let keys = Array.map (key ~now) buffer in
  Array.sort
    (fun a b ->
      let ka1, ka2 = keys.(a) and kb1, kb2 = keys.(b) in
      let c = Float.compare ka1 kb1 in
      if c <> 0 then c
      else begin
        let c = Float.compare ka2 kb2 in
        if c <> 0 then c else Int.compare a b
      end)
    idx;
  idx

(* Value-based scheduling in the style of Haritsa et al. [10] (cited
   in Sec 2.3): queries carry a value (their best-case SLA gain) and a
   hard deadline; higher-value queries run first, earliest deadline
   breaks value ties. *)
let value_edf_key ~now:_ q =
  (-.Sla.max_gain q.Query.sla, Query.first_deadline q)

let value_edf =
  {
    name = "Value-EDF";
    permutation = by_key_pair value_edf_key;
    time_invariant = true;
    ranks_newcomer_last = false;
    keys = Some value_edf_key;
  }

(* Cost-based scheduling (Peha-Tobagi [15], as used in Sec 7.2): order
   by descending expected loss per unit of work, where the loss
   expectation assumes a memoryless additional wait X ~ Exp(rate)
   beyond the query's own execution time. [rate] defaults to the
   inverse of the workload's mean execution time. *)
let cbs_priority ~rate ~now q =
  let elapsed = now -. q.Query.arrival +. q.Query.est_size in
  let work = Float.max q.Query.est_size 1e-9 in
  Sla.expected_loss_exp q.Query.sla ~elapsed ~rate /. work

let cbs ~rate =
  if rate <= 0.0 then invalid_arg "Planner.cbs: rate must be positive";
  {
    name = "CBS";
    permutation = by_key (fun ~now q -> -.cbs_priority ~rate ~now q);
    (* The priority depends on elapsed waiting time, so the planned
       order can change between arrivals with no server event at all:
       never cache a CBS plan. *)
    time_invariant = false;
    ranks_newcomer_last = false;
    keys = Some (fun ~now q -> (-.cbs_priority ~rate ~now q, 0.0));
  }

(* Rank a new query within a planned buffer: the position it would take
   if inserted, assuming the same (stable) planner. Because planners
   are stable, existing queries keep their relative order. The new
   query loses all ties (it has the latest arrival). *)
let insertion_rank t ~now buffer query =
  let n = Array.length buffer in
  let extended = Array.append buffer [| query |] in
  let perm = t.permutation ~now extended in
  let rec find k = if perm.(k) = n then k else find (k + 1) in
  find 0

(* O(log n) insertion rank over a buffer ALREADY in planned order (the
   output of [planned_queries]). Because planners are stable sorts and
   the newcomer carries the latest arrival, it loses every key tie: its
   rank is the number of planned entries whose key pair is <= its own.
   Equals [insertion_rank] on a planned buffer; falls back to it when
   the planner has no key form. *)
let insertion_rank_sorted t ~now buffer query =
  match t.keys with
  | None -> insertion_rank t ~now buffer query
  | Some key ->
    let k1, k2 = key ~now query in
    let gt q =
      let e1, e2 = key ~now q in
      let c = Float.compare e1 k1 in
      if c <> 0 then c > 0 else Float.compare e2 k2 > 0
    in
    (* First index whose key pair exceeds the newcomer's. *)
    let lo = ref 0 and hi = ref (Array.length buffer) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if gt buffer.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
