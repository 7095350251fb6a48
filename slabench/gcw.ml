(* Allocation counts. [Gc.minor_words] reads the allocation pointer, so
   it is exact at any instant; [Gc.quick_stat]'s word counts are only
   brought up to date at collections and drift between otherwise
   identical runs. Words allocated straight into the major heap
   (blocks over 256 words) come from [Gc.counters]: major minus
   promoted. *)

let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Every word the program asked for: minor plus direct-major. Reading
   the counters allocates a constant amount; [between] subtracts it. *)
let words () =
  let d = direct_major () in
  Gc.minor_words () +. d

let overhead =
  let a = words () in
  let b = words () in
  b -. a

let between a b = b -. a -. overhead

type snap = { s_minor : float; s_direct : float; s_major : float; s_stat : Gc.stat }

let snap () =
  let s_stat = Gc.quick_stat () in
  let _, promoted, major = Gc.counters () in
  { s_minor = Gc.minor_words (); s_direct = major -. promoted; s_major = major; s_stat }

type phase = {
  minor : float;
  major : float;  (** promoted plus direct *)
  direct : float;  (** allocated straight into the major heap *)
  minor_gcs : int;
  major_gcs : int;
}

let phase a b =
  {
    minor = b.s_minor -. a.s_minor;
    major = b.s_major -. a.s_major;
    direct = b.s_direct -. a.s_direct;
    minor_gcs = b.s_stat.Gc.minor_collections - a.s_stat.Gc.minor_collections;
    major_gcs = b.s_stat.Gc.major_collections - a.s_stat.Gc.major_collections;
  }

(* Words the phase allocated: minor plus direct-major. *)
let allocated p = p.minor +. p.direct
