type stats = {
  supersteps : int;
  useful_supersteps : int;
  wasted_supersteps : int;
  checkpoints : int;
  checkpoint_bytes : int;
  restores : int;
  faults_injected : int;
  link_retries : int;
}

(* Young's first-order optimal checkpoint interval: with checkpoint cost
   delta and mean time between failures M (both in the same unit —
   supersteps here), T_opt = sqrt(2 delta M). *)
let young_interval ~checkpoint_cost ~mtbf =
  if checkpoint_cost <= 0. || mtbf <= 0. then
    invalid_arg "Recovery.young_interval: cost and MTBF must be positive";
  sqrt (2. *. checkpoint_cost *. mtbf)

let check_interval interval =
  if interval < 0 then invalid_arg "Recovery: checkpoint interval must be >= 0"

let batch_z = function
  | [] -> invalid_arg "Recovery: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Recovery: inputs must carry a leading batch dimension";
    (Tensor.shape first).(0)

(* Compose the user's sink (first, so tracing observes the superstep the
   fault aborts) with the injector's. *)
let fault_sink user inj =
  match user with
  | None -> Fault.sink inj
  | Some u -> Obs_sink.fanout [ u; Fault.sink inj ]

(* Checkpoint/restore lifecycle events go to the user's sink only. *)
let notify user ev = match user with None -> () | Some s -> s ev

(* What the driver needs from one recoverable runtime. *)
type 'a runtime = {
  step : unit -> bool;  (** one superstep or round; [false] once drained *)
  position : unit -> int;
      (** supersteps or rounds so far: the checkpoint cadence and the
          [step] of lifecycle events *)
  work : unit -> int;  (** supersteps executed by the surviving run *)
  capture : unit -> string;
  restore : Fault.event -> string -> unit;  (** rewind after the fault *)
  result : unit -> 'a;
}

(* The one recovery loop behind every entry point: checkpoint every
   [interval] positions (plus once up front), and on a fault restore
   from the latest blob — every restore decodes it, a genuine
   serialization round trip — counting the work lost since as wasted.
   Ticks either ride the runtime's own [Step] events or, with
   [explicit_tick], open each round here, where dropped links are
   retried at one wasted superstep each. Kernel poison enters through
   the engine's sink, installed for the duration of the run. *)
let drive ~inj ~interval ~sink ~engine ~explicit_tick rt =
  let checkpoints = ref 0 and checkpoint_bytes = ref 0 in
  let restores = ref 0 and wasted = ref 0 and link_retries = ref 0 in
  let capture () =
    let blob = rt.capture () in
    let bytes = String.length blob in
    incr checkpoints;
    checkpoint_bytes := !checkpoint_bytes + bytes;
    notify sink (Obs_sink.Checkpoint { step = rt.position (); bytes });
    blob
  in
  let latest = ref (capture ()) in
  let step () =
    if explicit_tick then begin
      Fault.tick inj;
      List.iter
        (fun (_ : Fault.event) ->
          incr link_retries;
          incr wasted)
        (Fault.drops_now inj)
    end;
    rt.step ()
  in
  let rec loop () =
    let before = rt.work () in
    match step () with
    | true ->
      if interval > 0 && rt.position () mod interval = 0 then latest := capture ();
      loop ()
    | false -> ()
    | exception Fault.Injected ev ->
      rt.restore ev !latest;
      incr restores;
      wasted := !wasted + max 0 (before - rt.work ());
      notify sink (Obs_sink.Restore { step = rt.position () });
      loop ()
  in
  (match engine with
  | None -> loop ()
  | Some e ->
    Engine.set_sink e (Fault.sink inj);
    Fun.protect ~finally:(fun () -> Engine.clear_sink e) loop);
  let useful = rt.work () in
  ( rt.result (),
    {
      supersteps = useful + !wasted;
      useful_supersteps = useful;
      wasted_supersteps = !wasted;
      checkpoints = !checkpoints;
      checkpoint_bytes = !checkpoint_bytes;
      restores = !restores;
      faults_injected = Fault.injected inj;
      link_retries = !link_retries;
    } )

(* Engine and instrument state ride along in the single-VM checkpoints. *)
let restore_extras ~engine ~instrument (ck : _ Snapshot.checkpoint) =
  (match (engine, ck.Snapshot.ck_engine) with
  | Some e, Some s -> Engine.restore e s
  | _ -> ());
  match (instrument, ck.Snapshot.ck_instrument) with
  | Some i, Some s -> Instrument.restore i s
  | _ -> ()

(* ---- Program-counter VM, interpreted or precompiled ------------------ *)

(* Both executors run on a lane pool and checkpoint it the same way;
   only the step function differs. *)
let pool_runtime ~engine ~instrument lanes step =
  let steps () = Pc_vm.Lanes.steps lanes in
  {
    step;
    position = steps;
    work = steps;
    capture =
      (fun () ->
        Snapshot.encode_pc
          {
            Snapshot.ck_vm = Pc_vm.Lanes.capture lanes;
            ck_engine = Option.map Engine.snapshot engine;
            ck_instrument = Option.map Instrument.capture instrument;
          });
    restore =
      (fun _ blob ->
        let ck = Snapshot.decode_pc blob in
        Pc_vm.Lanes.restore lanes ck.Snapshot.ck_vm;
        restore_extras ~engine ~instrument ck);
    result = (fun () -> Pc_vm.Lanes.outputs lanes);
  }

let run_pc ?(config = Pc_vm.default_config) ?(interval = 0) ?(plan = []) reg program
    ~batch =
  check_interval interval;
  let inj = Fault.injector plan in
  let user_sink = config.Pc_vm.sink in
  let config = { config with Pc_vm.sink = Some (fault_sink user_sink inj) } in
  let engine = config.Pc_vm.engine and instrument = config.Pc_vm.instrument in
  let lanes = Pc_vm.Lanes.create ~config reg program ~z:(batch_z batch) in
  Pc_vm.Lanes.load_batch lanes ~batch;
  drive ~inj ~interval ~sink:user_sink ~engine ~explicit_tick:false
    (pool_runtime ~engine ~instrument lanes (fun () -> Pc_vm.Lanes.step lanes))

let run_jit ?sched ?engine ?instrument ?sink:user_sink ?max_steps ?(interval = 0)
    ?(plan = []) exe ~batch =
  check_interval interval;
  let inj = Fault.injector plan in
  let sink = fault_sink user_sink inj in
  let lanes = Pc_jit.lanes exe in
  Pc_vm.Lanes.load_batch lanes ~batch;
  (* The executor's [Step] event carries the tick: it fires after the
     step counter advances but before the block's effects, so the
     aborted superstep is the one the injector's clock names. *)
  drive ~inj ~interval ~sink:user_sink ~engine ~explicit_tick:false
    (pool_runtime ~engine ~instrument lanes (fun () ->
         Pc_jit.step ?sched ?engine ?instrument ~sink ?max_steps exe))

(* ---- Sharded execution ------------------------------------------------ *)

type sharded_result = {
  sh_outputs : Tensor.t list;
  sh_rounds : int;
  sh_stats : stats;
}

let run_sharded ?(sched = Sched_policy.Earliest) ?(shards = 2) ?(interval = 0) ?(plan = [])
    reg program ~batch =
  check_interval interval;
  if shards <= 0 then invalid_arg "Recovery.run_sharded: need at least one shard";
  let z = batch_z batch in
  let parts = Shard_vm.partition ~z ~shards in
  let n = Array.length parts in
  let inj = Fault.injector plan in
  (* One lane pool per shard, lane identities offset so RNG streams match
     the unsharded run; the driver steps them in lockstep rounds, standing
     in for the SPMD superstep loop of {!Shard_vm.run}. *)
  let lanes =
    Array.map
      (fun (part : Shard_vm.partition) ->
        let config =
          { Pc_vm.default_config with sched; member_base = part.Shard_vm.offset }
        in
        let pool = Pc_vm.Lanes.create ~config reg program ~z:part.Shard_vm.length in
        let rows = Array.init part.Shard_vm.length (fun i -> part.Shard_vm.offset + i) in
        Pc_vm.Lanes.load_batch pool ~batch:(List.map (fun t -> Tensor.take_rows t rows) batch);
        pool)
      parts
  in
  let rounds = ref 0 in
  let outputs, stats =
    drive ~inj ~interval ~sink:None ~engine:None ~explicit_tick:true
      {
        step =
          (fun () ->
            let progressed = ref false in
            Array.iter
              (fun pool -> if Pc_vm.Lanes.step pool then progressed := true)
              lanes;
            if !progressed then incr rounds;
            !progressed);
        position = (fun () -> !rounds);
        work =
          (fun () ->
            Array.fold_left (fun acc pool -> acc + Pc_vm.Lanes.steps pool) 0 lanes);
        capture =
          (fun () -> Snapshot.encode_shards (Array.map Pc_vm.Lanes.capture lanes));
        (* A device fault rewinds only the victim shard — its neighbours
           keep their progress, the definition of localized recovery. *)
        restore =
          (fun ev blob ->
            let d = ev.Fault.device mod n in
            Pc_vm.Lanes.restore lanes.(d) (Snapshot.decode_shards blob).(d));
        result =
          (fun () ->
            match Array.to_list (Array.map Pc_vm.Lanes.outputs lanes) with
            | [] -> []
            | first :: _ as per_shard ->
              List.mapi
                (fun i _ ->
                  Tensor.concat_rows (List.map (fun outs -> List.nth outs i) per_shard))
                first);
      }
  in
  { sh_outputs = outputs; sh_rounds = !rounds; sh_stats = stats }

(* ---- Continuous-batching server --------------------------------------- *)

let run_server ?(config = Server.default_config) ?on_complete ?(interval = 0)
    ?(plan = []) ~program arrivals =
  check_interval interval;
  let inj = Fault.injector plan in
  let user_sink = config.Server.vm.Pc_vm.sink in
  let config =
    {
      config with
      Server.vm = { config.Server.vm with Pc_vm.sink = Some (fault_sink user_sink inj) };
    }
  in
  let server = Server.create ~config ?on_complete ~program arrivals in
  (* Server supersteps are counted here; a restore rewinds the count to
     the checkpoint's. *)
  let rounds = ref 0 and ckpt_round = ref 0 in
  drive ~inj ~interval ~sink:user_sink ~engine:config.Server.vm.Pc_vm.engine
    ~explicit_tick:false
    {
      step =
        (fun () ->
          let more = Server.step server in
          if more then incr rounds;
          more);
      position = (fun () -> !rounds);
      work = (fun () -> !rounds);
      capture =
        (fun () ->
          ckpt_round := !rounds;
          Snapshot.encode_server (Server.capture server));
      restore =
        (fun _ blob ->
          Server.restore server (Snapshot.decode_server blob);
          rounds := !ckpt_round);
      result = (fun () -> Server.stats server);
    }
