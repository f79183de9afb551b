type point = {
  mode : string;
  policy : Server.policy;
  load : float;
  offered : float;
  completed : int;
  shed : int;
  throughput : float;
  mean_occupancy : float;
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  makespan : float;
  latency_hist : Obs_json.t;
}

type stats = {
  lanes : int;
  n_requests : int;
  solo_service : float;
  sched_policy : string;
  points : point list;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let summarize ~mode ~policy ~load ~offered (s : Server.stats) =
  let lat = Array.of_list (List.map Server.total_latency s.Server.completions) in
  Array.sort compare lat;
  let completed = Array.length lat in
  {
    mode;
    policy;
    load;
    offered;
    completed;
    shed = List.length s.Server.shed;
    throughput =
      (if s.Server.makespan > 0. then
         float_of_int completed /. s.Server.makespan
       else 0.);
    mean_occupancy = s.Server.mean_occupancy;
    mean_latency =
      (if completed = 0 then Float.nan
       else Array.fold_left ( +. ) 0. lat /. float_of_int completed);
    p50 = percentile lat 50.;
    p95 = percentile lat 95.;
    p99 = percentile lat 99.;
    makespan = s.Server.makespan;
    latency_hist =
      (* The log-bucketed summary (with its own p50/p90/p99 estimates)
         alongside the exact percentiles above, so the JSON report carries
         a machine-readable distribution, not just three cut points. *)
      (let m = Obs_metrics.create () in
       let h = Obs_metrics.histogram m "total_latency" in
       Array.iter (Obs_metrics.observe h) lat;
       Obs_metrics.hist_to_json h);
  }

let run ?(dim = 10) ?(rho = 0.7) ?(lanes = 8) ?(n_requests = 48)
    ?(max_iter = 3) ?(loads = [ 0.6; 0.9; 1.3 ])
    ?(policies = [ Server.Synchronous; Server.Fifo; Server.Shortest_first ])
    ?(queue_depth = 1024) ?(closed_clients = -1) ?(seed = 0x5EEDL) ?trace
    ?(sched = Sched_policy.Earliest) () =
  let closed_clients = if closed_clients < 0 then lanes else closed_clients in
  let model = Gaussian_model.model ~rho ~dim () in
  let reg, _key = Nuts_dsl.setup ~seed ~model () in
  let q0 = Tensor.zeros [| dim |] in
  let eps = Nuts.find_reasonable_eps ~model ~q0 () in
  let prog = Nuts_dsl.program () in
  let compiled =
    Autobatch.compile ~registry:reg
      ~input_shapes:(Nuts_dsl.input_shapes ~model)
      prog
  in
  (* One request = one NUTS chain of [n_iter] trajectories; the iteration
     count is a runtime input, so requests of different lengths share the
     compiled program (and the cost hint is honest). *)
  let request ~id ~arrival ~n_iter =
    Request.make ~id ~member:id ~arrival
      ~cost_hint:(float_of_int n_iter)
      ~program:compiled
      ~inputs:(Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:1 ())
      ()
  in
  let iter_stream = Splitmix.Stream.create (Int64.add seed 17L) in
  let n_iters =
    Array.init n_requests (fun _ ->
        1 + Splitmix.Stream.int_below iter_stream max_iter)
  in
  (* Calibrate one unit of offered load to the device's capacity: mean
     solo makespan over a few probe requests gives the per-request
     service time, so rate = load * lanes / solo_service has load 1.0 at
     the saturation point. *)
  let probe = max 1 (min lanes n_requests) in
  let solo_service =
    let tot = ref 0. in
    for i = 0 to probe - 1 do
      let r = request ~id:i ~arrival:0. ~n_iter:n_iters.(i) in
      let s =
        Server.run
          ~config:{ Server.default_config with lanes }
          ~program:compiled [ r ]
      in
      tot := !tot +. s.Server.makespan
    done;
    !tot /. float_of_int probe
  in
  let server_config policy =
    let vm = { Server.default_config.Server.vm with Pc_vm.sched } in
    { Server.lanes; policy; queue_depth; vm }
  in
  (* One trace track per measured serving run: the lane VM's superstep
     spans plus the request lifecycle (enqueue/shed/reject instants and
     queue/serve spans), all on the server clock — read through a forward
     reference because the sink must exist before the server does. *)
  let serve ~label ~config ?on_complete reqs =
    match trace with
    | None -> Server.run ~config ?on_complete ~program:compiled reqs
    | Some tr ->
      let track = Obs_trace.track tr label in
      let holder = ref None in
      let clock () = match !holder with Some s -> Server.now s | None -> 0. in
      let sink = Obs_trace.sink tr ~track ~clock in
      let config =
        { config with Server.vm = { config.Server.vm with Pc_vm.sink = Some sink } }
      in
      let s = Server.create ~config ?on_complete ~program:compiled reqs in
      holder := Some s;
      while Server.step s do () done;
      Server.stats s
  in
  let open_points =
    List.concat_map
      (fun load ->
        let rate = load *. float_of_int lanes /. solo_service in
        (* Same trace for every policy at this load: requests are
           immutable, so reuse is safe and the comparison is paired. *)
        let arr_stream =
          Splitmix.Stream.create
            (Splitmix.hash2 seed (Int64.of_float (load *. 1e6)))
        in
        let t = ref 0. in
        let arrivals =
          List.init n_requests (fun i ->
              t := !t +. Splitmix.Stream.exponential arr_stream ~rate;
              request ~id:i ~arrival:!t ~n_iter:n_iters.(i))
        in
        List.map
          (fun policy ->
            let s =
              serve
                ~label:
                  (Printf.sprintf "open/%s/load%.2f" (Server.policy_name policy)
                     load)
                ~config:(server_config policy) arrivals
            in
            summarize ~mode:"open" ~policy ~load ~offered:rate s)
          policies)
      loads
  in
  let closed_points =
    if closed_clients = 0 then []
    else
      List.map
        (fun policy ->
          let issued = ref (min closed_clients n_requests) in
          let initial =
            List.init !issued (fun i ->
                request ~id:i ~arrival:0. ~n_iter:n_iters.(i))
          in
          let on_complete _record =
            if !issued >= n_requests then None
            else begin
              let id = !issued in
              incr issued;
              Some (request ~id ~arrival:0. ~n_iter:n_iters.(id))
            end
          in
          let s =
            serve
              ~label:(Printf.sprintf "closed/%s" (Server.policy_name policy))
              ~config:(server_config policy) ~on_complete initial
          in
          let p = summarize ~mode:"closed" ~policy ~load:0. ~offered:0. s in
          (* A closed loop has no offered rate; report the measured one. *)
          {
            p with
            offered = p.throughput;
            load = p.throughput *. solo_service /. float_of_int lanes;
          })
        policies
  in
  {
    lanes;
    n_requests;
    solo_service;
    sched_policy = Sched_policy.to_string sched;
    points = open_points @ closed_points;
  }

let to_csv stats =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "mode,policy,load,offered_rate,completed,shed,throughput,mean_occupancy,mean_latency,p50,p95,p99,makespan,sched_policy\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%.3f,%.6f,%d,%d,%.6f,%.4f,%.2f,%.2f,%.2f,%.2f,%.2f,%s\n"
           p.mode
           (Server.policy_name p.policy)
           p.load p.offered p.completed p.shed p.throughput p.mean_occupancy
           p.mean_latency p.p50 p.p95 p.p99 p.makespan stats.sched_policy))
    stats.points;
  Buffer.add_string buf
    (Printf.sprintf "# lanes=%d n_requests=%d solo_service=%.2f\n" stats.lanes
       stats.n_requests stats.solo_service);
  Buffer.contents buf

let to_json stats =
  Obs_json.Obj
    [
      ("lanes", Obs_json.Int stats.lanes);
      ("n_requests", Obs_json.Int stats.n_requests);
      ("solo_service", Obs_json.Float stats.solo_service);
      ("sched_policy", Obs_json.Str stats.sched_policy);
      ( "points",
        Obs_json.List
          (List.map
             (fun p ->
               Obs_json.Obj
                 [
                   ("mode", Obs_json.Str p.mode);
                   ("policy", Obs_json.Str (Server.policy_name p.policy));
                   ("load", Obs_json.Float p.load);
                   ("offered_rate", Obs_json.Float p.offered);
                   ("completed", Obs_json.Int p.completed);
                   ("shed", Obs_json.Int p.shed);
                   ("throughput", Obs_json.Float p.throughput);
                   ("mean_occupancy", Obs_json.Float p.mean_occupancy);
                   ("mean_latency", Obs_json.Float p.mean_latency);
                   ("p50", Obs_json.Float p.p50);
                   ("p95", Obs_json.Float p.p95);
                   ("p99", Obs_json.Float p.p99);
                   ("makespan", Obs_json.Float p.makespan);
                   ("latency_hist", p.latency_hist);
                 ])
             stats.points) );
    ]

let print stats =
  Printf.printf
    "Serving: %d requests through %d recyclable lanes (solo service %.1f \
     clock units; load 1.0 = saturation)\n"
    stats.n_requests stats.lanes stats.solo_service;
  Table.print_stdout
    ~header:
      [
        "mode"; "policy"; "load"; "done"; "shed"; "thrpt"; "occ"; "p50"; "p95";
        "p99";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             p.mode;
             Server.policy_name p.policy;
             Printf.sprintf "%.2f" p.load;
             string_of_int p.completed;
             string_of_int p.shed;
             Printf.sprintf "%.4f" p.throughput;
             Printf.sprintf "%.3f" p.mean_occupancy;
             Printf.sprintf "%.0f" p.p50;
             Printf.sprintf "%.0f" p.p95;
             Printf.sprintf "%.0f" p.p99;
           ])
         stats.points)
