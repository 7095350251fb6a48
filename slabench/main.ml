(* slabench: the SLA-tree decision stack's benchmark. See README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result object. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload deep-buffer|elastic-farm|served-tenants \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let daemon = ref "" in
  let trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--daemon" :: v :: r -> daemon := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !daemon <> "" && !seed >= 0 then begin
    Served_tenants.daemon ~sock:!daemon ~seed:!seed;
    exit 0
  end;
  if !seed < 0 || !seconds <= 0 || (!trace <> 0 && !trace <> 1) then usage ();
  let seconds = Float.of_int !seconds and seed = !seed and trace = !trace = 1 in
  let out = Out.create () in
  (match !workload with
  | "deep-buffer" ->
    Bench_inproc.run out Deep_buffer.workload ~seed ~seconds ~trace
  | "elastic-farm" ->
    Bench_inproc.run out Elastic_farm.workload ~seed ~seconds ~trace
  | "served-tenants" -> Served_tenants.run out ~seed ~seconds ~trace
  | _ -> usage ());
  Out.print out
