(* Files the benchmark leaves in its checkout: traces, self-time
   tables and the determinism fingerprints, under [.slabench/]. *)

let dir = ".slabench"

let ensure () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let path name =
  ensure ();
  Filename.concat dir name

(* Counts that must repeat exactly for the same binary and seed: the
   first run records them, later runs compare. A different binary
   starts a new record. *)
let fingerprint ~workload ~seed (values : (string * float) list) =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let line =
    String.concat " "
      (exe
      :: List.map
           (fun (n, v) -> Printf.sprintf "%s=%Lx" n (Int64.bits_of_float v))
           values)
  in
  let file = path (Printf.sprintf "fingerprint-%s-%d" workload seed) in
  let previous =
    if Sys.file_exists file then
      In_channel.with_open_text file In_channel.input_line
    else None
  in
  match previous with
  | Some p when String.length p > 32 && String.sub p 0 32 = exe -> p = line
  | _ ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc line;
        output_char oc '\n');
    true
