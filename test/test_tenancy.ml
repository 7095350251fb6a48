(* Tests for the tenancy layer: registry validation, deterministic
   tenant assignment (chunk- and [-j]-independent), tier-scaled SLAs,
   the probe-priced admission controller, Jain fairness, SLO burn-rate
   windows, and the tenant column of the trace format. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let qtest = QCheck_alcotest.to_alcotest

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* A three-tenant registry with 1:3:6 shares, like the default but
   with a controllable seed. *)
let profiles () =
  [|
    Tenancy.profile ~name:"a-gold" ~cls:0 ~tier:1.5 ~share:1 ();
    Tenancy.profile ~name:"b-silver" ~cls:1 ~share:3 ();
    Tenancy.profile ~name:"c-bronze" ~cls:2 ~tier:0.6 ~share:6 ();
  |]

let reg_with seed = Tenancy.registry ~seed (profiles ())

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_profile_validation () =
  let mk ?tier ?share ?slo_late ?(name = "t") ?(cls = 0) () =
    Tenancy.profile ?tier ?share ?slo_late ~name ~cls ()
  in
  check_bool "empty name" true (raises_invalid (fun () -> mk ~name:"" ()));
  check_bool "negative class" true (raises_invalid (fun () -> mk ~cls:(-1) ()));
  check_bool "zero tier" true (raises_invalid (fun () -> mk ~tier:0.0 ()));
  check_bool "zero share" true (raises_invalid (fun () -> mk ~share:0 ()));
  check_bool "zero slo" true (raises_invalid (fun () -> mk ~slo_late:0.0 ()));
  check_bool "slo above one" true
    (raises_invalid (fun () -> mk ~slo_late:1.5 ()))

let test_registry_numbering () =
  let reg = reg_with 1 in
  check_int "three tenants" 3 (Tenancy.n_tenants reg);
  Array.iteri
    (fun i p -> check_int "tenant = index + 1" (i + 1) p.Tenancy.tenant)
    reg.Tenancy.profiles;
  (match Tenancy.find reg ~tenant:2 with
  | Some p -> Alcotest.(check string) "find by id" "b-silver" p.Tenancy.pname
  | None -> Alcotest.fail "tenant 2 missing");
  check_bool "unknown tenant" true (Tenancy.find reg ~tenant:9 = None);
  check_bool "anonymous tenant" true (Tenancy.find reg ~tenant:0 = None);
  check_bool "empty registry" true
    (raises_invalid (fun () -> Tenancy.registry [||]));
  check_bool "class beyond the ladder" true
    (raises_invalid (fun () ->
         Tenancy.registry [| Tenancy.profile ~name:"t" ~cls:99 () |]))

let test_sla_tier_scaling () =
  (* The SLA a tenant buys is its class's ladder entry with gains and
     penalty multiplied by the price tier. *)
  let reg = reg_with 1 in
  let cls0 = reg.Tenancy.synth.Sla_synth.classes.(0) in
  let gold = reg.Tenancy.profiles.(0) in
  let sla = Tenancy.sla_for reg gold ~cls:0 ~est:10.0 in
  check_float "gains scale by tier" (1.5 *. cls0.Sla_synth.gains.(0))
    (Sla.max_gain sla);
  check_float "penalty scales by tier" (1.5 *. cls0.Sla_synth.penalty)
    (Sla.penalty sla);
  let bronze = reg.Tenancy.profiles.(2) in
  let cheap = Tenancy.sla_for reg bronze ~cls:2 ~est:10.0 in
  check_bool "discounted tier prices lower" true
    (Sla.max_gain cheap < Sla.max_gain sla)

(* ------------------------------------------------------------------ *)
(* Assignment *)

let mk_queries n =
  Array.init n (fun i ->
      Query.make ~id:i
        ~arrival:(Float.of_int i *. 10.0)
        ~size:5.0
        ~sla:(Sla.one_zero ~bound:50.0)
        ())

let test_assignment_deterministic () =
  let reg = reg_with 7 and reg' = reg_with 7 in
  let differs = ref false in
  for id = 0 to 499 do
    let t = Tenancy.tenant_of reg ~id in
    check_int "same seed, same tenant" t (Tenancy.tenant_of reg' ~id);
    check_bool "tenant in range" true (t >= 1 && t <= 3);
    if t <> Tenancy.tenant_of (reg_with 8) ~id then differs := true
  done;
  check_bool "different seed moves some queries" true !differs

let test_assign_tags_and_preserves () =
  let reg = reg_with 7 in
  let qs = mk_queries 200 in
  let tagged = Tenancy.assign reg qs in
  check_int "same length" 200 (Array.length tagged);
  Array.iteri
    (fun i q ->
      let orig = qs.(i) in
      check_int "id kept" orig.Query.id q.Query.id;
      check_int "tenant matches the keyed draw"
        (Tenancy.tenant_of reg ~id:orig.Query.id)
        q.Query.tenant;
      check_float "arrival kept" orig.Query.arrival q.Query.arrival;
      check_float "size kept" orig.Query.size q.Query.size;
      check_float "estimate kept" orig.Query.est_size q.Query.est_size;
      let p = reg.Tenancy.profiles.(q.Query.tenant - 1) in
      check_bool "SLA is the tenant's tier-scaled class" true
        (Sla.equal q.Query.sla
           (Tenancy.sla_for reg p ~cls:p.Tenancy.cls ~est:orig.Query.est_size)))
    tagged;
  (* Streaming assignment agrees element-wise. *)
  let streamed =
    Array.of_seq (Tenancy.assign_seq reg (Array.to_seq qs))
  in
  Array.iteri
    (fun i q ->
      check_int "seq tenant" tagged.(i).Query.tenant q.Query.tenant;
      check_bool "seq SLA" true (Sla.equal tagged.(i).Query.sla q.Query.sla))
    streamed

(* Satellite: the tenant mix is a pure function of (seed, id), so any
   chunking of the stream — tiles, [-j] shards — yields the same tags. *)
let prop_assignment_chunk_independent =
  QCheck.Test.make ~name:"assignment is chunk-independent" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 300))
    (fun (seed, cut) ->
      let reg = reg_with seed in
      let qs = mk_queries 300 in
      let full = Tenancy.assign reg qs in
      let left = Tenancy.assign reg (Array.sub qs 0 cut) in
      let right = Tenancy.assign reg (Array.sub qs cut (300 - cut)) in
      let chunked = Array.append left right in
      Array.for_all2
        (fun a b ->
          a.Query.tenant = b.Query.tenant && Sla.equal a.Query.sla b.Query.sla)
        full chunked)

(* Satellite: the empirical tenant mix converges to the configured
   share weights (1:3:6 -> 10% / 30% / 60%), whatever the seed. *)
let prop_share_mix_converges =
  QCheck.Test.make ~name:"tenant mix converges to shares" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let reg = reg_with seed in
      let n = 20_000 in
      let counts = Array.make 4 0 in
      for id = 0 to n - 1 do
        let t = Tenancy.tenant_of reg ~id in
        counts.(t) <- counts.(t) + 1
      done;
      let expected = [| 0.0; 0.1; 0.3; 0.6 |] in
      let ok = ref (counts.(0) = 0) in
      for t = 1 to 3 do
        let frac = Float.of_int counts.(t) /. Float.of_int n in
        if Float.abs (frac -. expected.(t)) > 0.02 then ok := false
      done;
      !ok)

(* The same keyed-draw property for the synthesis class mix itself:
   [Sla_synth.pick_class] at a stream position is independent of the
   order positions are visited in, and the class mix converges to the
   ladder weights (gold 1 / silver 3 / bronze 6). *)
let test_class_mix_converges () =
  let cfg = Sla_synth.config () in
  let master = Prng.create cfg.Sla_synth.seed in
  let n = 20_000 in
  let counts = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    let c = Sla_synth.pick_class cfg master ~index:i in
    let k = c.Sla_synth.cls_name in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let frac name =
    Float.of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))
    /. Float.of_int n
  in
  check_bool "gold ~ 10%" true (Float.abs (frac "gold" -. 0.1) < 0.02);
  check_bool "silver ~ 30%" true (Float.abs (frac "silver" -. 0.3) < 0.02);
  check_bool "bronze ~ 60%" true (Float.abs (frac "bronze" -. 0.6) < 0.02);
  (* Visiting positions backwards reproduces the forward draws. *)
  let forward =
    Array.init 200 (fun i ->
        (Sla_synth.pick_class cfg master ~index:i).Sla_synth.cls_name)
  in
  for i = 199 downto 0 do
    Alcotest.(check string) "order-independent draw" forward.(i)
      (Sla_synth.pick_class cfg master ~index:i).Sla_synth.cls_name
  done

(* ------------------------------------------------------------------ *)
(* Admission *)

let bursty_tagged reg ~n ~seed =
  let tcfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
      ~servers:2 ~n_queries:n ~seed ()
  in
  let period = Float.of_int n /. Trace.arrival_rate tcfg /. 8.0 in
  Tenancy.assign reg
    (Bursty.generate tcfg (Bursty.square ~period ~duty:0.4 ~low:0.5 ~high:2.5))

let run_admission ~queries ~servers ~acct ~admit =
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~admit
    ~on_complete:(Tenancy.Acct.on_complete acct)
    ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch:(Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs))
    ~metrics ();
  metrics

let test_admission_overloaded () =
  (* On a saturated bursty farm the controller must refuse part of the
     offered stream, keep the books balanced, and every degraded copy
     must keep its identity while pricing strictly cheaper. *)
  let reg = reg_with 7 in
  let acct = Tenancy.Acct.create reg ~warmup_id:0 in
  let adm = Tenancy.admission ~theta:0.0 reg ~acct () in
  let degrades = ref 0 and bad_degrade = ref 0 in
  let admit sim q =
    let v = Tenancy.admit adm sim q in
    (match v with
    | Sim.Degrade q' ->
      incr degrades;
      if
        q'.Query.id <> q.Query.id
        || q'.Query.tenant <> q.Query.tenant
        || Sla.max_gain q'.Query.sla >= Sla.max_gain q.Query.sla
      then incr bad_degrade
    | Sim.Admit | Sim.Reject -> ());
    v
  in
  let queries = bursty_tagged reg ~n:800 ~seed:11 in
  let m = run_admission ~queries ~servers:2 ~acct ~admit in
  check_int "offered everything" 800 (Metrics.offered_count m);
  check_int "offered = admitted + rejected" 800
    (Metrics.admitted_count m + Metrics.rejected_count m);
  check_bool "overload forces rejections" true (Metrics.rejected_count m > 0);
  check_bool "some queries down-tiered" true (!degrades > 0);
  check_int "degraded copies keep id/tenant and price cheaper" 0 !bad_degrade;
  let rep = Tenancy.report acct in
  check_int "three rows" 3 (List.length rep.Tenancy.rows);
  let sum f = List.fold_left (fun a r -> a + f r) 0 rep.Tenancy.rows in
  check_int "rows partition the offer" 800 (sum (fun r -> r.Tenancy.r_offered));
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "tenant %d books balance" r.Tenancy.r_tenant)
        r.Tenancy.r_offered
        (r.Tenancy.r_admitted + r.Tenancy.r_rejected))
    rep.Tenancy.rows;
  check_int "rejected rows match metrics" (Metrics.rejected_count m)
    (sum (fun r -> r.Tenancy.r_rejected));
  check_bool "fairness within (0, 1]" true
    (rep.Tenancy.fairness > 0.0 && rep.Tenancy.fairness <= 1.0);
  check_bool "turned-away value recorded" true
    (rep.Tenancy.rep_rejected_value > 0.0)

let test_admission_underloaded_admits_all () =
  let reg = reg_with 7 in
  let acct = Tenancy.Acct.create reg ~warmup_id:0 in
  let adm = Tenancy.admission ~theta:0.0 reg ~acct () in
  let tcfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.3
      ~servers:4 ~n_queries:300 ~seed:5 ()
  in
  let queries = Tenancy.assign reg (Trace.generate tcfg) in
  let m =
    run_admission ~queries ~servers:4 ~acct ~admit:(Tenancy.admit adm)
  in
  check_int "nothing rejected" 0 (Metrics.rejected_count m);
  check_int "everything admitted" 300 (Metrics.admitted_count m);
  let rep = Tenancy.report acct in
  check_bool "profit earned" true (rep.Tenancy.rep_profit > 0.0);
  check_float "nothing turned away" 0.0 rep.Tenancy.rep_rejected_value

(* ------------------------------------------------------------------ *)
(* Fairness and burn rates *)

let test_jain_values () =
  check_float "even split" 1.0 (Tenancy.jain [| 1.0; 1.0; 1.0 |]);
  check_float "one tenant takes all" (1.0 /. 3.0)
    (Tenancy.jain [| 1.0; 0.0; 0.0 |]);
  check_float "empty input" 1.0 (Tenancy.jain [||]);
  check_float "all-zero input" 1.0 (Tenancy.jain [| 0.0; 0.0 |]);
  let j = Tenancy.jain [| 4.0; 1.0 |] in
  check_float "known two-tenant value" (25.0 /. 34.0) j

(* Hand-built timeseries: tenant 1 (gold, 5% budget) completes eight
   measured queries spread over the span. All late -> every window
   burns at 1/0.05 = 20x and all four pairs fire; all on-time -> zero
   burn, nothing fires. *)
let burn_run ~late =
  let reg = Tenancy.default_registry () in
  let acct = Tenancy.Acct.create reg ~warmup_id:0 in
  let ts = Tenancy.Acct.timeseries reg in
  let span = 4320.0 in
  for i = 0 to 7 do
    let arrival = Float.of_int i *. 540.0 in
    let q =
      Query.make ~tenant:1 ~id:i ~arrival ~size:1.0
        ~sla:(Sla.one_zero ~bound:10.0) ()
    in
    Tenancy.Acct.on_complete acct q
      ~completion:(arrival +. if late then 100.0 else 1.0);
    Tenancy.Acct.sample acct ts ~now:(Float.of_int (i + 1) *. 540.0)
  done;
  Tenancy.burn_rates reg ts ~tenant:1 ~span

let test_burn_rates_all_late () =
  let burns = burn_run ~late:true in
  check_int "four canonical windows" 4 (List.length burns);
  List.iter
    (fun b ->
      check_bool
        (Printf.sprintf "%s short burn = 20x" b.Tenancy.window.Tenancy.bw_label)
        true
        (Float.abs (b.Tenancy.short_burn -. 20.0) < 1e-6);
      check_bool "long burn = 20x" true
        (Float.abs (b.Tenancy.long_burn -. 20.0) < 1e-6);
      check_bool "fires" true b.Tenancy.firing)
    burns

let test_burn_rates_all_on_time () =
  let burns = burn_run ~late:false in
  List.iter
    (fun b ->
      check_float "no short burn" 0.0 b.Tenancy.short_burn;
      check_float "no long burn" 0.0 b.Tenancy.long_burn;
      check_bool "quiet" false b.Tenancy.firing)
    burns

(* ------------------------------------------------------------------ *)
(* Trace format: the tenant column *)

let test_trace_roundtrip_tenants () =
  let reg = reg_with 7 in
  let qs = Tenancy.assign reg (mk_queries 100) in
  let path = Filename.temp_file "slatree_tenancy" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path qs;
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check string) "v2 header" "# slatree-trace v2" first;
      let back = Trace_io.load path in
      check_int "same length" 100 (Array.length back);
      Array.iteri
        (fun i q ->
          check_int "tenant survives" qs.(i).Query.tenant q.Query.tenant;
          check_float "arrival survives" qs.(i).Query.arrival q.Query.arrival;
          check_bool "SLA survives" true (Sla.equal qs.(i).Query.sla q.Query.sla))
        back)

let () =
  Alcotest.run "tenancy"
    [
      ( "registry",
        [
          Alcotest.test_case "profile validation" `Quick
            test_profile_validation;
          Alcotest.test_case "numbering and lookup" `Quick
            test_registry_numbering;
          Alcotest.test_case "tier-scaled SLAs" `Quick test_sla_tier_scaling;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "deterministic" `Quick
            test_assignment_deterministic;
          Alcotest.test_case "tags and preserves" `Quick
            test_assign_tags_and_preserves;
          qtest prop_assignment_chunk_independent;
          qtest prop_share_mix_converges;
          Alcotest.test_case "class mix converges" `Quick
            test_class_mix_converges;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overloaded farm" `Quick test_admission_overloaded;
          Alcotest.test_case "underloaded admits all" `Quick
            test_admission_underloaded_admits_all;
        ] );
      ( "fairness-burn",
        [
          Alcotest.test_case "jain values" `Quick test_jain_values;
          Alcotest.test_case "all late burns 20x" `Quick
            test_burn_rates_all_late;
          Alcotest.test_case "all on-time burns zero" `Quick
            test_burn_rates_all_on_time;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "tenant column roundtrip" `Quick
            test_trace_roundtrip_tenants;
        ] );
    ]
