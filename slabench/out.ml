(* Operation accounting and the result line. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* reversed *)
}

let create () = { attempted = 0; failed = 0; metrics = [] }

(* A failed check fails the [ops] operations whose outputs it
   vouches for. *)
let check t ~ops name ok =
  if not ok then begin
    t.failed <- t.failed + max 1 ops;
    Printf.eprintf "slabench: CHECK FAILED: %s\n%!" name
  end

let attempt t n = t.attempted <- t.attempted + n

let metric t name unit v =
  if not (Float.is_finite v) then begin
    check t ~ops:1 (Printf.sprintf "metric %s is finite" name) false;
    t.metrics <- (name, 0., unit) :: t.metrics
  end
  else t.metrics <- (name, v, unit) :: t.metrics

let json_float v =
  let s = Printf.sprintf "%.17g" v in
  if Float.is_integer v && not (String.contains s 'e') then s ^ ".0" else s

let print t =
  let failed = min t.failed (max 1 t.attempted) in
  let body =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      t.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 t.attempted) failed
    (String.concat ", " body)
