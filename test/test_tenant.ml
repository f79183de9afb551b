(* Tests for the multi-tenant serving stack: tenant token buckets and
   quotas, the hash-consed program cache, SLO-aware admission (the
   weighted-fair dispatcher, the degradation ladder, and the shed-victim
   invariant), the pure autoscaling controller, and the tenant server's
   acceptance criterion — every completion bitwise identical to running
   the request alone, through preemption, scaling, and injected device
   kills. *)

let t = Alcotest.test_case

(* ---------- fixtures ---------- *)

let shapes = Tenant_load.element_shapes
let compiled0 = lazy (Autobatch.compile ~input_shapes:shapes (Tenant_load.family_program ~k:0))
let digest0 = lazy (Prog_cache.digest ~input_shapes:shapes (Tenant_load.family_program ~k:0))

let mk_tenant ?slo ?rate ?burst ?quota id =
  Tenant.make ?slo ?rate ?burst ?quota ~id ~name:(Printf.sprintf "t%d" id) ()

(* An admission item on the family program: [n] is the loop trip count
   (the service length), [width] the lanes it occupies. *)
let mk_item ?(tenant = mk_tenant 0) ?(arrival = 0.) ?(width = 1) ~id ~n () =
  let rows v = Tensor.stack_rows (List.init width (fun _ -> Tensor.scalar v)) in
  let xs =
    Tensor.stack_rows
      (List.init width (fun j -> Tensor.scalar (0.3 +. (0.01 *. float_of_int j))))
  in
  let request =
    Request.make ~id ~member:(id * 8) ~arrival ~cost_hint:(float_of_int n)
      ~program:(Lazy.force compiled0)
      ~inputs:[ rows (float_of_int n); xs; rows 0. ]
      ()
  in
  { Admission.tenant; request; digest = Lazy.force digest0 }

let item_ids adm =
  let acc = ref [] in
  Admission.iter adm (fun it -> acc := it.Admission.request.Request.id :: !acc);
  List.rev !acc

(* ---------- tenant token buckets ---------- *)

let test_bucket_refill_and_deny () =
  let tn = mk_tenant ~rate:2. ~burst:2. 1 in
  Alcotest.(check bool) "first token" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "second token" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "bucket empty" false (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check int) "throttle counted" 1 tn.Tenant.throttled;
  (* Half a second refills one token at rate 2. *)
  Alcotest.(check bool) "refilled" true (Tenant.admit tn ~now:0.5 ~cost:1.);
  Alcotest.(check bool) "but only one" false (Tenant.admit tn ~now:0.5 ~cost:1.);
  (* The bucket clamps at burst: a long idle stretch is not a war chest. *)
  Alcotest.(check (float 1e-12))
    "clamped at burst" 2.
    (Tenant.tokens_available tn ~now:100.)

let test_quota_exhaustion () =
  let tn = mk_tenant ~quota:3. 2 in
  Alcotest.(check bool) "within quota" true (Tenant.admit tn ~now:0. ~cost:2.);
  Alcotest.(check bool) "still within" true (Tenant.admit tn ~now:0. ~cost:1.);
  Alcotest.(check bool) "over quota" false (Tenant.admit tn ~now:10. ~cost:0.5);
  Alcotest.(check (float 1e-12)) "usage charged" 3. tn.Tenant.cost_used

(* ---------- program cache ---------- *)

let test_digest_structural () =
  (* Hash-consed identity: two independent builds of the same family
     member digest equal; different members differ. *)
  let d k = Prog_cache.digest ~input_shapes:shapes (Tenant_load.family_program ~k) in
  Alcotest.(check bool) "same structure, same digest" true (Int64.equal (d 0) (d 0));
  Alcotest.(check bool) "k=1 distinct" false (Int64.equal (d 0) (d 1));
  Alcotest.(check bool) "k=2 distinct" false (Int64.equal (d 1) (d 2));
  Alcotest.(check bool) "shapes matter" false
    (Int64.equal (d 0)
       (Prog_cache.digest ~input_shapes:[ [||]; [||]; [| 2 |] ]
          (Tenant_load.family_program ~k:0)))

(* The parent's digest values, pinned: a rewrite of the digest walk must
   reproduce every key bit for bit, or warm caches and committed
   baselines would silently re-key. *)
let test_digest_pinned () =
  let check name expected p =
    Alcotest.(check string) name (Printf.sprintf "%016Lx" expected)
      (Printf.sprintf "%016Lx" p)
  in
  List.iteri
    (fun k expected ->
      check (Printf.sprintf "family k=%d" k) expected
        (Prog_cache.digest ~input_shapes:shapes (Tenant_load.family_program ~k)))
    [
      0x5ec8896379c7265cL; 0x94459b9169c50015L; 0x287031e7e1dd1c5bL;
      0x904096625ce27893L; 0x32a5efb90da1bfb9L; 0x531ca12dfffdc325L;
      0x24323c5656d2f4e9L; 0xed913b8b82cc7122L;
    ];
  check "family k=0, no shapes" 0xe3174dd0c3f5e392L
    (Prog_cache.digest (Tenant_load.family_program ~k:0));
  let collatz = Test_corpus.load "collatz.ab" in
  check "collatz.ab program" 0x3748dfc42fe18264L (Prog_cache.digest_program collatz);
  check "collatz.ab key" 0xa0813719dba02a99L (Prog_cache.digest collatz);
  check "NUTS program" 0x3289be565fcbccbcL (Prog_cache.digest (Nuts_dsl.program ()))

let test_cache_hit_and_identity () =
  let cache = Prog_cache.create ~capacity:4 () in
  let p = Tenant_load.family_program ~k:3 in
  let c1, d1, o1 = Prog_cache.find_or_compile cache ~input_shapes:shapes p in
  let c2, d2, o2 = Prog_cache.find_or_compile cache ~input_shapes:shapes p in
  Alcotest.(check bool) "first is a miss" true (o1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (o2 = `Hit);
  Alcotest.(check bool) "physically same artifact" true (c1 == c2);
  Alcotest.(check bool) "both return the digest" true
    (Int64.equal d1 (Prog_cache.digest ~input_shapes:shapes p) && Int64.equal d1 d2);
  Alcotest.(check int) "one hit" 1 (Prog_cache.hits cache);
  Alcotest.(check int) "one miss" 1 (Prog_cache.misses cache);
  Alcotest.(check (float 1e-12)) "hit rate" 0.5 (Prog_cache.hit_rate cache)

let test_cache_lru_eviction () =
  let cache = Prog_cache.create ~capacity:2 () in
  let p k = Tenant_load.family_program ~k in
  let d k = Prog_cache.digest ~input_shapes:shapes (p k) in
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 0));
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 1));
  (* Touch 0 so 1 becomes least-recently-used, then insert 2. *)
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 0));
  ignore (Prog_cache.find_or_compile cache ~input_shapes:shapes (p 2));
  Alcotest.(check int) "one eviction" 1 (Prog_cache.evictions cache);
  Alcotest.(check bool) "LRU entry gone" true (Prog_cache.find cache (d 1) = None);
  Alcotest.(check bool) "recent entry kept" true (Prog_cache.find cache (d 0) <> None);
  Alcotest.(check bool) "new entry kept" true (Prog_cache.find cache (d 2) <> None)

(* ---------- admission: weighted-fair dispatch ---------- *)

let always _ = true

let test_wfq_shares () =
  let adm =
    Admission.create ~config:{ Admission.default with depth = 12 } ()
  in
  let id = ref 0 in
  List.iter
    (fun slo ->
      for _ = 1 to 8 do
        incr id;
        match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo !id) ~id:!id ~n:4 ()) with
        | `Admitted -> ()
        | _ -> Alcotest.fail "offer refused under Normal"
      done)
    [ Tenant.Latency_bound; Tenant.Throughput; Tenant.Best_effort ];
  (* One full credit round at weights 6:3:1. *)
  let popped =
    List.init 10 (fun _ ->
        match Admission.pop adm ~fits:always with
        | Some it -> Admission.item_rank it
        | None -> Alcotest.fail "pop ran dry")
  in
  Alcotest.(check (list int))
    "weighted round is 6 latency, 3 throughput, 1 best-effort"
    [ 0; 0; 0; 0; 0; 0; 1; 1; 1; 2 ]
    popped;
  (* Everything eventually drains; nothing is lost to the weighting. *)
  let rec drain acc =
    match Admission.pop adm ~fits:always with
    | Some _ -> drain (acc + 1)
    | None -> acc
  in
  Alcotest.(check int) "remaining items all dispatch" 14 (drain 0)

let test_pop_skips_nonfitting_head () =
  let adm = Admission.create () in
  let offer it =
    match Admission.offer adm it with
    | `Admitted -> ()
    | _ -> Alcotest.fail "offer refused"
  in
  offer (mk_item ~id:1 ~n:4 ~width:4 ());
  offer (mk_item ~id:2 ~n:4 ~width:1 ());
  (* A 2-lane server must get id 2: the wide head cannot wedge it. *)
  (match Admission.pop adm ~fits:(fun it -> Request.width it.Admission.request <= 2) with
  | Some it -> Alcotest.(check int) "fitting item behind head" 2 it.Admission.request.Request.id
  | None -> Alcotest.fail "fitting item not found");
  (* Arrival order is otherwise preserved. *)
  match Admission.pop adm ~fits:always with
  | Some it -> Alcotest.(check int) "head dispatches next" 1 it.Admission.request.Request.id
  | None -> Alcotest.fail "head lost"

let test_fifo_is_slo_blind () =
  let adm = Admission.create ~config:(Admission.fifo ~depth:3 ()) () in
  let offer it = Admission.offer adm it in
  Alcotest.(check bool) "be admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 1) ~id:1 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "lb admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 2) ~id:2 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "be admitted" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 3) ~id:3 ~n:4 ()) = `Admitted);
  Alcotest.(check bool) "full queue rejects even latency-bound" true
    (offer (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 4) ~id:4 ~n:4 ())
     = `Rejected Admission.Queue_full);
  let order =
    List.init 3 (fun _ ->
        match Admission.pop adm ~fits:always with
        | Some it -> it.Admission.request.Request.id
        | None -> Alcotest.fail "fifo ran dry")
  in
  Alcotest.(check (list int)) "strict arrival order, class-blind" [ 1; 2; 3 ] order

(* ---------- admission: degradation ladder ---------- *)

let test_ladder_climb_and_hysteresis () =
  (* depth 4 -> capacity 12; up-thresholds at 0.75, ~0.833, ~0.917. *)
  let adm =
    Admission.create ~config:{ Admission.default with depth = 4 } ()
  in
  let lb i = mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound i) ~id:i ~n:4 () in
  let fill upto =
    for i = Admission.length adm + 1 to upto do
      ignore (Admission.offer adm (lb i))
    done
  in
  fill 8;
  Alcotest.(check string) "normal at 8/12" "normal"
    (Admission.level_name (Admission.level adm));
  fill 9;
  Alcotest.(check string) "first rung at 9/12" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  fill 10;
  Alcotest.(check string) "second rung at 10/12" "cap-width"
    (Admission.level_name (Admission.level adm));
  fill 11;
  Alcotest.(check string) "top rung at 11/12" "reject-new"
    (Admission.level_name (Admission.level adm));
  (match Admission.offer adm (lb 12) with
  | `Rejected (Admission.Overloaded Admission.Reject_new) -> ()
  | _ -> Alcotest.fail "reject-new must refuse everything");
  (* Descend with the hysteresis band: still capped at 7/12, and still
     shedding best-effort at 6/12 — occupancies that were Normal on the
     way up. *)
  let pop_n n = for _ = 1 to n do ignore (Admission.pop adm ~fits:always) done in
  pop_n 4;
  Alcotest.(check string) "still cap-width at 7/12" "cap-width"
    (Admission.level_name (Admission.level adm));
  pop_n 1;
  Alcotest.(check string) "still shedding at 6/12" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  pop_n 1;
  Alcotest.(check string) "normal again at 5/12" "normal"
    (Admission.level_name (Admission.level adm))

let test_ladder_refusals_by_class () =
  (* Hold the ladder at shed-best-effort and check who gets in. *)
  let adm =
    Admission.create ~config:{ Admission.default with depth = 4; cap_width = 1 } ()
  in
  for i = 1 to 9 do
    ignore (Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Throughput i) ~id:i ~n:4 ()))
  done;
  Alcotest.(check string) "at first rung" "shed-best-effort"
    (Admission.level_name (Admission.level adm));
  (match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Best_effort 90) ~id:90 ~n:4 ()) with
  | `Rejected (Admission.Overloaded Admission.Shed_best_effort) -> ()
  | _ -> Alcotest.fail "best-effort must be refused at the first rung");
  match Admission.offer adm (mk_item ~tenant:(mk_tenant ~slo:Tenant.Latency_bound 91) ~id:91 ~n:4 ()) with
  | `Admitted -> ()
  | _ -> Alcotest.fail "latency-bound must still be admitted at the first rung"

(* ---------- admission: shed-victim property ---------- *)

(* With the ladder parked far away (high_water 2.0), a full buffer takes
   the drop-oldest path. The pinned invariant: a shed never drops a
   request while a strictly weaker one is queued, and never victimizes a
   class stronger than the offer. *)
let prop_shed_victim =
  QCheck.Test.make ~name:"shed never drops while a weaker item is queued"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 2))
    (fun ranks ->
      let adm =
        Admission.create
          ~config:
            { Admission.default with depth = 3; high_water = 2.0; low_water = 1.0 }
          ()
      in
      let ok = ref true in
      List.iteri
        (fun i rank ->
          let it =
            mk_item ~tenant:(mk_tenant ~slo:(Tenant.of_rank rank) i) ~id:i ~n:4 ()
          in
          match Admission.offer adm it with
          | `Admitted | `Rejected _ -> ()
          | `Shed victim ->
            let vr = Admission.item_rank victim in
            (* No strictly weaker item may remain queued... *)
            Admission.iter adm (fun q -> if Admission.item_rank q > vr then ok := false);
            (* ...and the victim is never stronger than the offer. *)
            if vr < rank then ok := false)
        ranks;
      !ok)

(* Same offer/pop schedule on two independent instances: identical
   admissions, identical dispatch order. Replays under --seed depend on
   exactly this. *)
let prop_admission_deterministic =
  QCheck.Test.make ~name:"admission replays deterministically" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 2) bool))
    (fun ops ->
      let trace () =
        let adm =
          Admission.create ~config:{ Admission.default with depth = 4 } ()
        in
        let log = ref [] in
        List.iteri
          (fun i (rank, do_pop) ->
            if do_pop then
              match Admission.pop adm ~fits:always with
              | Some it -> log := ("pop", it.Admission.request.Request.id) :: !log
              | None -> log := ("pop", -1) :: !log
            else begin
              let it =
                mk_item ~tenant:(mk_tenant ~slo:(Tenant.of_rank rank) i) ~id:i ~n:4 ()
              in
              match Admission.offer adm it with
              | `Admitted -> log := ("adm", i) :: !log
              | `Shed v -> log := ("shed", v.Admission.request.Request.id) :: !log
              | `Rejected _ -> log := ("rej", i) :: !log
            end)
          ops;
        (!log, item_ids adm)
      in
      trace () = trace ())

(* ---------- pool controller ---------- *)

let test_pool_decide () =
  let cfg =
    { Pool.min_shards = 1; max_shards = 4; grow_backlog = 1.0; shrink_util = 0.25; cooldown = 4 }
  in
  let sig_ ?(backlog = 0) ?(active = 1) ?(draining = 0) ?(live = 0) () =
    { Pool.backlog; active; draining; lanes_per_shard = 8; live_lanes = live }
  in
  let d ?(since = 99) s = Pool.decide cfg ~rounds_since_action:since s in
  Alcotest.(check string) "cooldown holds" "hold"
    (Pool.action_name (d ~since:3 (sig_ ~backlog:100 ())));
  Alcotest.(check string) "no capacity, any backlog grows" "grow"
    (Pool.action_name (d (sig_ ~backlog:1 ~active:0 ())));
  Alcotest.(check string) "backlog pressure grows" "grow"
    (Pool.action_name (d (sig_ ~backlog:9 ~active:1 ~live:8 ())));
  Alcotest.(check string) "at max_shards holds" "hold"
    (Pool.action_name
       (Pool.decide cfg ~rounds_since_action:99
          { Pool.backlog = 100; active = 3; draining = 1; lanes_per_shard = 8; live_lanes = 24 }));
  Alcotest.(check string) "idle fleet shrinks" "shrink"
    (Pool.action_name (d (sig_ ~active:2 ~live:1 ())));
  Alcotest.(check string) "min_shards holds" "hold"
    (Pool.action_name (d (sig_ ~active:1 ~live:0 ())));
  Alcotest.(check string) "draining shard blocks another shrink" "hold"
    (Pool.action_name (d (sig_ ~active:2 ~draining:1 ~live:1 ())));
  (* The no-bounce guard: survivors must absorb live + backlog. *)
  Alcotest.(check string) "shrink would bounce, holds" "hold"
    (Pool.action_name (d (sig_ ~active:2 ~live:3 ~backlog:6 ())));
  Alcotest.(check string) "survivors can absorb, shrinks" "shrink"
    (Pool.action_name (d (sig_ ~active:2 ~live:3 ~backlog:4 ())))

(* ---------- tenant server: bitwise acceptance ---------- *)

let default_mesh n = Mesh.gpu_pod ~n ()

let check_all_solo name (st : Tenant_server.stats) =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: request %d bitwise vs solo" name
           c.Tenant_server.c_item.Admission.request.Request.id)
        true (Tenant_load.matches_solo c))
    st.Tenant_server.completions

let test_server_preemption_bitwise () =
  let be = mk_tenant ~slo:Tenant.Best_effort 0 in
  let lb = mk_tenant ~slo:Tenant.Latency_bound 1 in
  let config =
    {
      (Tenant_server.default_config ~mesh:(default_mesh 1)) with
      Tenant_server.lanes_per_shard = 2;
      checkpoint_interval = 4;
    }
  in
  let st =
    Tenant_server.run ~config
      (Tenant_server.source_of_list
         [
           mk_item ~tenant:be ~id:0 ~width:2 ~n:60 ();
           mk_item ~tenant:lb ~id:1 ~arrival:1e-7 ~width:1 ~n:8 ();
         ])
  in
  Alcotest.(check int) "one preemption" 1 st.Tenant_server.preemptions;
  Alcotest.(check int) "one resume" 1 st.Tenant_server.resumes;
  Alcotest.(check int) "both completed" 2
    (List.length st.Tenant_server.completions);
  let by_id id =
    List.find
      (fun c -> c.Tenant_server.c_item.Admission.request.Request.id = id)
      st.Tenant_server.completions
  in
  Alcotest.(check int) "victim was parked once" 1 (by_id 0).Tenant_server.c_preempted;
  Alcotest.(check bool) "latency-bound finished first" true
    ((by_id 1).Tenant_server.c_finished < (by_id 0).Tenant_server.c_finished);
  check_all_solo "preempt" st

let kill_scenario () =
  let config =
    {
      (Tenant_server.default_config ~mesh:(default_mesh 1)) with
      Tenant_server.lanes_per_shard = 4;
      checkpoint_interval = 4;
      faults = [ { Fault.superstep = 10; device = 0; kind = Fault.Device_kill } ];
    }
  in
  Tenant_server.run ~config
    (Tenant_server.source_of_list
       (List.init 6 (fun i -> mk_item ~tenant:(mk_tenant 0) ~id:i ~n:(12 + i) ())))

let test_server_kill_recovers_bitwise () =
  let st = kill_scenario () in
  Alcotest.(check int) "one restore" 1 st.Tenant_server.restores;
  Alcotest.(check bool) "checkpoints taken" true (st.Tenant_server.checkpoints > 0);
  Alcotest.(check int) "nothing lost to the kill" 6
    (List.length st.Tenant_server.completions);
  Alcotest.(check bool) "re-execution was paid for" true
    (st.Tenant_server.wasted_rounds > 0);
  check_all_solo "kill" st

let test_server_kill_replay_deterministic () =
  let fingerprint (st : Tenant_server.stats) =
    ( st.Tenant_server.rounds,
      List.map
        (fun c ->
          ( c.Tenant_server.c_item.Admission.request.Request.id,
            Int64.bits_of_float c.Tenant_server.c_finished,
            c.Tenant_server.c_shard ))
        st.Tenant_server.completions )
  in
  Alcotest.(check bool) "same trace, same run" true
    (fingerprint (kill_scenario ()) = fingerprint (kill_scenario ()))

(* ---------- the load harness under --seed ---------- *)

let test_load_deterministic_under_seed () =
  let run () =
    Tenant_load.run ~seed:0xBEEFL ~n_requests:250 ~n_tenants:8 ~n_programs:4
      ~mesh_size:2 ~lanes_per_shard:4 ()
  in
  let a = Obs_json.to_string (Tenant_load.to_json (run ())) in
  let b = Obs_json.to_string (Tenant_load.to_json (run ())) in
  Alcotest.(check bool) "same seed, byte-identical readout" true (a = b);
  let c =
    Obs_json.to_string
      (Tenant_load.to_json
         (Tenant_load.run ~seed:0xFACEL ~n_requests:250 ~n_tenants:8
            ~n_programs:4 ~mesh_size:2 ~lanes_per_shard:4 ()))
  in
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

let test_load_verifies_bitwise () =
  let r =
    Tenant_load.run ~seed:0x7E47L ~n_requests:200 ~n_tenants:6 ~n_programs:3
      ~mesh_size:2 ~lanes_per_shard:4 ~baseline:false ()
  in
  Alcotest.(check int) "no mismatches" 0 r.Tenant_load.mismatches;
  Alcotest.(check bool) "completions verified" true (r.Tenant_load.verified > 0)

(* The serving decisions of a fixed 2000-request trace, pinned to the
   values the scheduler produced before its control plane was trimmed:
   every count and the latency-bound percentiles' bits must repeat. *)
let test_load_decisions_pinned () =
  let r = Tenant_load.run ~n_requests:2000 ~baseline:false ~verify:false () in
  let a = r.Tenant_load.fair in
  let s = a.Tenant_load.stats in
  let check name expected got = Alcotest.(check int) name expected got in
  check "rounds" 1846 s.Tenant_server.rounds;
  check "binds" 4 s.Tenant_server.binds;
  check "rebinds" 127 s.Tenant_server.rebinds;
  check "grows" 3 s.Tenant_server.grows;
  check "shrinks" 2 s.Tenant_server.shrinks;
  check "preemptions" 24 s.Tenant_server.preemptions;
  check "resumes" 24 s.Tenant_server.resumes;
  check "migrations" 0 s.Tenant_server.migrations;
  check "checkpoints" 414 s.Tenant_server.checkpoints;
  check "restores" 1 s.Tenant_server.restores;
  check "completed" 851 a.Tenant_load.completed;
  let bits name expected x =
    Alcotest.(check string) name (Printf.sprintf "%016Lx" expected)
      (Printf.sprintf "%016Lx" (Int64.bits_of_float x))
  in
  bits "latency-bound p50" 0x3f8b1a51f8610590L a.Tenant_load.p50_latency;
  bits "latency-bound p99" 0x3fb1b770da18c848L a.Tenant_load.p99_latency

(* ---------- suites ---------- *)

let suites =
  [
    ( "tenant-bucket",
      [
        t "refill and deny" `Quick test_bucket_refill_and_deny;
        t "quota exhaustion" `Quick test_quota_exhaustion;
      ] );
    ( "tenant-cache",
      [
        t "digest is structural" `Quick test_digest_structural;
        t "digest values are pinned" `Quick test_digest_pinned;
        t "hit returns the same artifact" `Quick test_cache_hit_and_identity;
        t "LRU eviction" `Quick test_cache_lru_eviction;
      ] );
    ( "tenant-admission",
      [
        t "weighted-fair shares" `Quick test_wfq_shares;
        t "pop skips non-fitting head" `Quick test_pop_skips_nonfitting_head;
        t "fifo baseline is SLO-blind" `Quick test_fifo_is_slo_blind;
        t "ladder climbs and descends with hysteresis" `Quick
          test_ladder_climb_and_hysteresis;
        t "ladder refusals by class" `Quick test_ladder_refusals_by_class;
        QCheck_alcotest.to_alcotest prop_shed_victim;
        QCheck_alcotest.to_alcotest prop_admission_deterministic;
      ] );
    ("tenant-pool", [ t "decide" `Quick test_pool_decide ]);
    ( "tenant-server",
      [
        t "preemption is bitwise invisible" `Quick test_server_preemption_bitwise;
        t "device kill recovers bitwise" `Quick test_server_kill_recovers_bitwise;
        t "kill replay is deterministic" `Quick test_server_kill_replay_deterministic;
      ] );
    ( "tenant-load",
      [
        t "deterministic under --seed" `Quick test_load_deterministic_under_seed;
        t "completions verify against solo" `Quick test_load_verifies_bitwise;
        t "serving decisions are pinned" `Quick test_load_decisions_pinned;
      ] );
  ]
