(* Preallocated int sample buffers (ns, depths, counts): the timed
   loops only store into an existing array. *)

type t = { mutable a : int array; mutable n : int }

let create cap = { a = Array.make (max 1 cap) 0; n = 0 }
let length t = t.n

(* Past capacity a sample is dropped rather than grow the array inside
   a timed region; callers size buffers for the whole run. *)
let add t v =
  if t.n < Array.length t.a then begin
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1
  end

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Int.compare s;
  s

(* Nearest-rank percentile, [p] in 0..100; 0 on an empty buffer. *)
let percentile_of_sorted s p =
  let n = Array.length s in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let percentile t p = percentile_of_sorted (sorted t) p

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else Float.of_int (sum t) /. Float.of_int t.n

(* Median of a float list (the per-pass aggregate). *)
let median_f l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
