(* The request-scoped tracing layer: span recording and tree validation
   (Obs_span), sliding-window counters (Obs_window), the multi-window
   burn-rate monitor (Obs_slo), wall-clock probes (Obs_wall), and a
   QCheck round-trip fuzzer for the JSON layer everything exports
   through. The end-to-end invariants — spans cost zero simulated time,
   every completion gets exactly one tree — are gated by `bench obs2`;
   this file covers the unit contracts. *)

(* Record one completed span the way emitters publish it: as a sink
   event, through the span sink. *)
let record t ?(trace = 0) ?(track = 0) ~id ?(parent = Obs_span.no_parent) ~name
    t0 t1 =
  Obs_span.sink t (Obs_sink.Span { trace; span = id; parent; track; name; t0; t1 })

let n_spans t = List.length (Obs_span.spans t)

(* ---------- Obs_span ---------- *)

let test_span_tree_well_formed () =
  let t = Obs_trace.create () in
  record t ~id:0 ~name:"request" 0. 10.;
  record t ~id:1 ~parent:0 ~name:"queue" 0. 4.;
  record t ~id:2 ~parent:0 ~name:"service" 4. 10.;
  record t ~id:3 ~parent:2 ~name:"preempted" 5. 7.;
  let st = Obs_span.validate t in
  Alcotest.(check int) "one trace" 1 st.Obs_span.traces;
  Alcotest.(check int) "well formed" 1 st.Obs_span.well_formed;
  Alcotest.(check bool) "all well formed" true (Obs_span.all_well_formed t);
  Alcotest.(check int) "count request" 1 (Obs_span.count_named t "request");
  Alcotest.(check int) "count preempted" 1 (Obs_span.count_named t "preempted");
  Alcotest.(check int) "length" 4 (n_spans t)

let test_span_tree_violations () =
  (* Orphan parent reference. *)
  let t = Obs_trace.create () in
  record t ~id:0 ~name:"request" 0. 10.;
  record t ~id:1 ~parent:99 ~name:"lost" 1. 2.;
  let st = Obs_span.validate t in
  Alcotest.(check int) "orphans" 1 st.Obs_span.orphans;
  Alcotest.(check bool) "not well formed" false (Obs_span.all_well_formed t);
  (* Two roots in one request trace. *)
  let t = Obs_trace.create () in
  record t ~id:0 ~name:"a" 0. 5.;
  record t ~id:1 ~name:"b" 5. 9.;
  let st = Obs_span.validate t in
  Alcotest.(check int) "multi root" 1 st.Obs_span.multi_root;
  (* Child escapes its parent's interval. *)
  let t = Obs_trace.create () in
  record t ~id:0 ~name:"request" 2. 5.;
  record t ~id:1 ~parent:0 ~name:"early" 0. 4.;
  let st = Obs_span.validate t in
  Alcotest.(check int) "nest violation" 1 st.Obs_span.nest_violations;
  (* Inverted interval. *)
  let t = Obs_trace.create () in
  record t ~id:0 ~name:"request" 5. 1.;
  let st = Obs_span.validate t in
  Alcotest.(check int) "inverted" 1 st.Obs_span.inverted

let test_span_ops_trace_exempt () =
  (* Negative traces are operational streams: many roots, no tree rule. *)
  let t = Obs_trace.create () in
  for i = 0 to 4 do
    let at = float_of_int i in
    record t ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:i
      ~name:"checkpoint" at at
  done;
  let st = Obs_span.validate t in
  Alcotest.(check int) "no request traces" 0 st.Obs_span.traces;
  Alcotest.(check bool) "well formed" true (Obs_span.all_well_formed t)

let test_span_sink_and_limit () =
  let t = Obs_trace.create ~limit:2 () in
  let sink = Obs_span.sink t in
  for i = 0 to 3 do
    sink
      (Obs_sink.Span
         {
           trace = i;
           span = 0;
           parent = Obs_span.no_parent;
           track = 0;
           name = "request";
           t0 = 0.;
           t1 = 1.;
         })
  done;
  (* Non-span events are dropped before the recorder: they neither fill
     it nor count as drops. *)
  sink (Obs_sink.Ladder { level = "normal"; occupancy = 0.1; cause = "occupancy"; at = 0. });
  sink (Obs_sink.Step { shard = 0; step = 1; block = 0 });
  Alcotest.(check int) "kept up to limit" 2 (n_spans t);
  Alcotest.(check int) "dropped counted" 2 (Obs_trace.dropped t)

(* The parsed [traceEvents] of a Chrome document written to a file. *)
let chrome_events write =
  let path = Filename.temp_file "autobatch-span" ".json" in
  write ~path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  match Obs_json.of_string contents with
  | Error e -> Alcotest.failf "chrome export unparseable: %s" e
  | Ok doc -> (
    match Obs_json.member "traceEvents" doc with
    | Some (Obs_json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array")

let str key ev =
  match Obs_json.member key ev with Some (Obs_json.Str s) -> s | _ -> ""

let int key ev =
  match Obs_json.member key ev with Some (Obs_json.Int i) -> i | _ -> min_int

let arg key ev =
  match Obs_json.member "args" ev with Some args -> int key args | None -> min_int

(* Thread names by tid, from the metadata records. *)
let thread_names evs =
  List.filter_map
    (fun ev ->
      if str "ph" ev = "M" then
        match Obs_json.member "args" ev with
        | Some args -> Some (int "tid" ev, str "name" args)
        | None -> None
      else None)
    evs

let named name evs = List.filter (fun ev -> str "name" ev = name) evs

let test_span_chrome_roundtrip () =
  let t = Obs_trace.create () in
  record t ~id:0 ~track:3 ~name:"request" 0. 10.;
  record t ~id:1 ~parent:0 ~track:3 ~name:"service" 2. 10.;
  record t ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:2
    ~name:"restore" 4. 4.;
  let evs = chrome_events (Obs_trace.write t) in
  (* One thread per span track, named after it. *)
  let threads = thread_names evs in
  Alcotest.(check (list string)) "thread names" [ "ops"; "tenant 3" ]
    (List.sort compare (List.map snd threads));
  let tid_of name = fst (List.find (fun (_, n) -> n = name) threads) in
  Alcotest.(check bool) "distinct threads" true (tid_of "ops" <> tid_of "tenant 3");
  let one name =
    match named name evs with
    | [ ev ] -> ev
    | l -> Alcotest.failf "%d events named %s" (List.length l) name
  in
  let request = one "request" and service = one "service" and restore = one "restore" in
  (* "X" complete events for t1 > t0, "i" instants for t1 = t0. *)
  Alcotest.(check string) "request is X" "X" (str "ph" request);
  Alcotest.(check string) "service is X" "X" (str "ph" service);
  Alcotest.(check string) "restore is i" "i" (str "ph" restore);
  Alcotest.(check int) "request on tenant 3" (tid_of "tenant 3") (int "tid" request);
  Alcotest.(check int) "service on tenant 3" (tid_of "tenant 3") (int "tid" service);
  Alcotest.(check int) "restore on ops" (tid_of "ops") (int "tid" restore);
  (* The span identity travels in args. *)
  Alcotest.(check (list int)) "service args" [ 0; 1; 0 ]
    [ arg "trace" service; arg "span" service; arg "parent" service ];
  Alcotest.(check (list int)) "restore args"
    [ Obs_span.ops_trace; 2; Obs_span.no_parent ]
    [ arg "trace" restore; arg "span" restore; arg "parent" restore ];
  (* One recorder holding a VM's Step events on a named track (two shards)
     next to spans: each lands on its own thread, and no span thread
     shares a tid with a recorded track's thread. *)
  let t = Obs_trace.create () in
  let vm = Obs_trace.track t "vm" in
  let clock = ref 0. in
  let vm_sink = Obs_trace.sink t ~track:vm ~clock:(fun () -> !clock) in
  List.iter
    (fun (shard, step) ->
      clock := float_of_int step;
      vm_sink (Obs_sink.Step { shard; step; block = 0 }))
    [ (0, 1); (1, 1); (0, 2) ];
  record t ~id:0 ~track:0 ~name:"request" 0. 3.;
  record t ~trace:Obs_span.ops_trace ~track:Obs_span.ops_track ~id:1
    ~name:"restore" 1. 1.;
  let evs = chrome_events (Obs_trace.write t) in
  let threads = thread_names evs in
  Alcotest.(check (list string)) "mixed thread names"
    [ "ops"; "tenant 0"; "vm"; "vm/shard1" ]
    (List.sort compare (List.map snd threads));
  let tids = List.map fst threads in
  Alcotest.(check int) "distinct tids" (List.length tids)
    (List.length (List.sort_uniq compare tids));
  let tid_of name = fst (List.find (fun (_, n) -> n = name) threads) in
  Alcotest.(check int) "request on its span track" (tid_of "tenant 0")
    (int "tid" (List.hd (named "request" evs)));
  Alcotest.(check int) "restore on ops" (tid_of "ops")
    (int "tid" (List.hd (named "restore" evs)));
  Alcotest.(check bool) "csv names the span's track" true
    (List.exists
       (fun row -> String.starts_with ~prefix:"tenant 0," row)
       (String.split_on_char '\n' (Obs_trace.to_csv t)));
  Alcotest.(check bool) "supersteps stay on the vm threads" true
    (List.for_all
       (fun ev ->
         str "cat" ev <> "superstep"
         || List.mem (int "tid" ev) [ tid_of "vm"; tid_of "vm/shard1" ])
       evs)

let test_span_server_integration () =
  (* A small tenant trace run bare and observed: attaching the recorder
     must not move the simulated clock, and every completion must appear
     as exactly one well-formed tree. *)
  let run sink =
    Tenant_load.run ~n_requests:200 ~verify:false ~keep_outputs:true
      ~baseline:false ?sink ()
  in
  let bare = run None in
  let recorder = Obs_trace.create () in
  let observed = run (Some (Obs_span.sink recorder)) in
  let stats (r : Tenant_load.result) =
    r.Tenant_load.fair.Tenant_load.stats
  in
  let digest r =
    List.map
      (fun c ->
        ( c.Tenant_server.c_item.Admission.request.Request.id,
          c.Tenant_server.c_started,
          c.Tenant_server.c_finished ))
      (stats r).Tenant_server.completions
  in
  Alcotest.(check (float 0.))
    "same makespan"
    (stats bare).Tenant_server.makespan
    (stats observed).Tenant_server.makespan;
  Alcotest.(check bool) "same completions" true (digest bare = digest observed);
  let n_done = List.length (stats observed).Tenant_server.completions in
  Alcotest.(check bool) "completions exist" true (n_done > 0);
  Alcotest.(check int) "one tree per completion" n_done
    (Obs_span.count_named recorder "request");
  Alcotest.(check bool) "trees well formed" true
    (Obs_span.all_well_formed recorder)

(* ---------- Obs_window ---------- *)

let test_window_counter () =
  let c = Obs_window.counter ~buckets:10 ~window:10. () in
  for i = 0 to 4 do
    Obs_window.add c ~now:(float_of_int i) 1.
  done;
  Alcotest.(check (float 1e-9)) "total in window" 5. (Obs_window.total c ~now:4.);
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Obs_window.rate c ~now:4.);
  Alcotest.(check (float 1e-9)) "all expired" 0. (Obs_window.total c ~now:100.);
  Obs_window.add c ~now:100. 3.;
  Alcotest.(check (float 1e-9)) "fresh after slide" 3.
    (Obs_window.total c ~now:100.);
  (* An observation older than the ring is dropped, not resurrected. *)
  Obs_window.add c ~now:50. 7.;
  Alcotest.(check (float 1e-9)) "stale add dropped" 3.
    (Obs_window.total c ~now:100.)

(* ---------- Obs_slo ---------- *)

let slo_monitor () =
  Obs_slo.create
    ~classes:
      [
        Obs_slo.class_config ~cls:"lat" ~threshold:0.1 ~budget:0.1
          ~fast_window:10. ~slow_window:50. ~burn_threshold:2. ();
      ]
    ()

let test_slo_fire_and_resolve () =
  let t = slo_monitor () in
  (* Clean traffic: nothing fires. *)
  for i = 0 to 19 do
    Obs_slo.observe t ~cls:"lat" ~now:(0.1 *. float_of_int i) ~ok:true
  done;
  Alcotest.(check (list Alcotest.bool)) "quiet" []
    (List.map (fun a -> a.Obs_slo.a_fired) (Obs_slo.poll t ~now:2.));
  Alcotest.(check bool) "not firing" false (Obs_slo.firing t ~cls:"lat");
  (* Sustained badness: both windows burn, one fire edge. *)
  for i = 0 to 19 do
    Obs_slo.observe t ~cls:"lat" ~now:(2. +. (0.1 *. float_of_int i)) ~ok:false
  done;
  (match Obs_slo.poll t ~now:4. with
  | [ a ] ->
    Alcotest.(check bool) "fired" true a.Obs_slo.a_fired;
    Alcotest.(check string) "class" "lat" a.Obs_slo.a_cls;
    Alcotest.(check bool) "burns reported" true
      (a.Obs_slo.a_burn_fast >= 2. && a.Obs_slo.a_burn_slow >= 2.)
  | alerts -> Alcotest.failf "expected one fire edge, got %d" (List.length alerts));
  Alcotest.(check bool) "firing" true (Obs_slo.firing t ~cls:"lat");
  Alcotest.(check bool) "any firing" true (Obs_slo.any_firing t);
  (* Steady state: the edge is not re-reported. *)
  Alcotest.(check int) "no repeat" 0 (List.length (Obs_slo.poll t ~now:4.5));
  (* Recovery: the bad window ages out entirely, burns drop under half
     the threshold, one resolve edge. *)
  for i = 0 to 99 do
    Obs_slo.observe t ~cls:"lat" ~now:(10. +. float_of_int i) ~ok:true
  done;
  (match Obs_slo.poll t ~now:109. with
  | [ a ] -> Alcotest.(check bool) "resolved" false a.Obs_slo.a_fired
  | alerts ->
    Alcotest.failf "expected one resolve edge, got %d" (List.length alerts));
  Alcotest.(check bool) "not firing after" false (Obs_slo.firing t ~cls:"lat");
  Alcotest.(check int) "one fire total" 1 (Obs_slo.fired_total t)

let test_slo_latency_and_unknown () =
  let t = slo_monitor () in
  (* observe_latency classifies against the class threshold. *)
  for i = 0 to 9 do
    Obs_slo.observe_latency t ~cls:"lat" ~now:(float_of_int i) 0.05
  done;
  let fast, slow = Obs_slo.burn_rates t ~cls:"lat" ~now:9. in
  Alcotest.(check (float 1e-9)) "fast burn clean" 0. fast;
  Alcotest.(check (float 1e-9)) "slow burn clean" 0. slow;
  for i = 0 to 9 do
    Obs_slo.observe_latency t ~cls:"lat" ~now:(9. +. float_of_int i) 0.5
  done;
  let fast, _ = Obs_slo.burn_rates t ~cls:"lat" ~now:18. in
  Alcotest.(check bool) "fast burn hot" true (fast > 2.);
  (* Unknown classes are ignored, not errors. *)
  Obs_slo.observe t ~cls:"nope" ~now:0. ~ok:false;
  let f, s = Obs_slo.burn_rates t ~cls:"nope" ~now:1. in
  Alcotest.(check (float 0.)) "unknown fast" 0. f;
  Alcotest.(check (float 0.)) "unknown slow" 0. s

let test_slo_config_validation () =
  let invalid f = Alcotest.check_raises "rejects" (Invalid_argument "") f in
  let check_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  ignore invalid;
  check_invalid (fun () -> Obs_slo.class_config ~cls:"x" ~threshold:0. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~budget:0. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~budget:1.5 ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~fast_window:60.
        ~slow_window:60. ());
  check_invalid (fun () ->
      Obs_slo.class_config ~cls:"x" ~threshold:1. ~burn_threshold:0. ());
  check_invalid (fun () -> Obs_slo.create ~classes:[] ())

let test_slo_alert_event () =
  let a =
    {
      Obs_slo.a_cls = "lat";
      a_fired = true;
      a_burn_fast = 3.5;
      a_burn_slow = 2.5;
      a_at = 7.;
    }
  in
  match Obs_slo.alert_to_event a with
  | Obs_sink.Slo_alert { slo; fired; burn_fast; burn_slow; at } ->
    Alcotest.(check string) "slo" "lat" slo;
    Alcotest.(check bool) "fired" true fired;
    Alcotest.(check (float 0.)) "fast" 3.5 burn_fast;
    Alcotest.(check (float 0.)) "slow" 2.5 burn_slow;
    Alcotest.(check (float 0.)) "at" 7. at
  | _ -> Alcotest.fail "expected Slo_alert"

(* ---------- Obs_wall ---------- *)

let test_wall_disabled_is_dead () =
  let p = Obs_wall.probe ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Obs_wall.enabled p);
  Obs_wall.start p;
  ignore (Sys.opaque_identity (List.init 1000 Fun.id));
  let s = Obs_wall.stop p in
  Alcotest.(check bool) "zero sample" true (s = Obs_wall.zero)

let test_wall_measures_allocation () =
  let (xs, s) =
    Obs_wall.time (fun () -> Sys.opaque_identity (List.init 200_000 Fun.id))
  in
  Alcotest.(check int) "result passed through" 200_000 (List.length xs);
  Alcotest.(check bool) "wall nonneg" true (s.Obs_wall.wall_s >= 0.);
  Alcotest.(check bool) "allocation observed" true
    (Obs_wall.alloc_words s > 0.);
  Alcotest.(check bool) "rate consistent" true
    (s.Obs_wall.wall_s = 0. || Obs_wall.alloc_rate s > 0.);
  (* stop without start is zero. *)
  let p = Obs_wall.probe () in
  Alcotest.(check bool) "stop without start" true (Obs_wall.stop p = Obs_wall.zero)

(* ---------- Obs_json round-trip fuzzing ---------- *)

(* Scalars whose compact rendering parses back to the identical value:
   ints, bools, null, printable strings, and dyadic floats with few
   significant digits (the printer uses %.12g; sixteenths stay exact). *)
let gen_exact_doc =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Obs_json.Null;
        map (fun b -> Obs_json.Bool b) bool;
        map (fun n -> Obs_json.Int n) (int_range (-1_000_000_000) 1_000_000_000);
        map
          (fun m -> Obs_json.Float (float_of_int m /. 16.))
          (int_range (-10_000) 10_000);
        map (fun s -> Obs_json.Str s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  sized
    (fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun xs -> Obs_json.List xs)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs_json.Obj kvs)
                   (list_size (0 -- 4)
                      (pair (string_size ~gen:printable (0 -- 8)) (self (n / 2))))
               );
             ]))

let arb_exact_doc = QCheck.make ~print:Obs_json.to_string gen_exact_doc

let prop_roundtrip_id =
  QCheck.Test.make ~name:"print . parse = id on representable documents"
    ~count:300 arb_exact_doc (fun d ->
      match Obs_json.of_string (Obs_json.to_string d) with
      | Ok d' -> d' = d
      | Error e -> QCheck.Test.fail_reportf "own output unparseable: %s" e)

let prop_pretty_agrees =
  QCheck.Test.make ~name:"pretty rendering parses to the same value"
    ~count:150 arb_exact_doc (fun d ->
      match Obs_json.of_string (Obs_json.to_string_pretty d) with
      | Ok d' -> d' = d
      | Error e -> QCheck.Test.fail_reportf "pretty output unparseable: %s" e)

(* Arbitrary floats (non-finite included) need not round-trip exactly,
   but one print/parse pass must reach a fixed point. *)
let prop_print_idempotent =
  QCheck.Test.make ~name:"print . parse . print is a fixed point" ~count:300
    QCheck.(map (fun f -> Obs_json.Float f) float)
    (fun d ->
      let s = Obs_json.to_string d in
      match Obs_json.of_string s with
      | Ok d' -> Obs_json.to_string d' = s
      | Error e -> QCheck.Test.fail_reportf "own output unparseable: %s" e)

let prop_parser_total_on_garbage =
  QCheck.Test.make ~name:"parser never raises on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 40))
    (fun s -> match Obs_json.of_string s with Ok _ | Error _ -> true)

let prop_parser_total_on_truncation =
  QCheck.Test.make ~name:"parser never raises on truncated documents"
    ~count:300
    QCheck.(pair arb_exact_doc (0 -- 1000))
    (fun (d, cut) ->
      let s = Obs_json.to_string d in
      let prefix = String.sub s 0 (min cut (String.length s)) in
      match Obs_json.of_string prefix with Ok _ | Error _ -> true)

let suites =
  [
    ( "span",
      [
        Alcotest.test_case "tree well-formed" `Quick test_span_tree_well_formed;
        Alcotest.test_case "tree violations" `Quick test_span_tree_violations;
        Alcotest.test_case "ops trace exempt" `Quick test_span_ops_trace_exempt;
        Alcotest.test_case "sink and limit" `Quick test_span_sink_and_limit;
        Alcotest.test_case "chrome round-trip" `Quick test_span_chrome_roundtrip;
        Alcotest.test_case "server integration" `Quick
          test_span_server_integration;
      ] );
    ( "window",
      [
        Alcotest.test_case "sliding counter" `Quick test_window_counter;
      ] );
    ( "slo",
      [
        Alcotest.test_case "fire and resolve" `Quick test_slo_fire_and_resolve;
        Alcotest.test_case "latency and unknown class" `Quick
          test_slo_latency_and_unknown;
        Alcotest.test_case "config validation" `Quick test_slo_config_validation;
        Alcotest.test_case "alert to event" `Quick test_slo_alert_event;
      ] );
    ( "wall",
      [
        Alcotest.test_case "disabled probe is dead" `Quick
          test_wall_disabled_is_dead;
        Alcotest.test_case "measures allocation" `Quick
          test_wall_measures_allocation;
      ] );
    ( "json-fuzz",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip_id;
          prop_pretty_agrees;
          prop_print_idempotent;
          prop_parser_total_on_garbage;
          prop_parser_total_on_truncation;
        ] );
  ]
