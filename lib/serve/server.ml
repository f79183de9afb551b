type policy = Fifo | Shortest_first | Synchronous

let policy_name = function
  | Fifo -> "fifo"
  | Shortest_first -> "shortest"
  | Synchronous -> "synchronous"

type config = {
  lanes : int;
  policy : policy;
  queue_depth : int;
  vm : Pc_vm.config;
}

let default_config =
  {
    lanes = 8;
    policy = Fifo;
    queue_depth = 64;
    vm = Pc_vm.default_config;
  }

type record = {
  request : Request.t;
  outputs : Tensor.t list;
  queued : float;
  started : float;
  finished : float;
}

let queueing_latency r = r.started -. r.queued
let service_latency r = r.finished -. r.started
let total_latency r = r.finished -. r.queued

type stats = {
  completions : record list;
  shed : Request.t list;
  rejected : Request.t list;
  steps : int;
  idle_steps : int;
  makespan : float;
  mean_occupancy : float;
  occupancy : (int * float) list;
  instrument : Instrument.t;
}

let compare_arrival a b =
  let c = compare a.Request.arrival b.Request.arrival in
  if c <> 0 then c else compare a.Request.id b.Request.id

let rec insert_sorted r = function
  | [] -> [ r ]
  | x :: rest ->
    if compare_arrival r x < 0 then r :: x :: rest
    else x :: insert_sorted r rest

(* The server's complete mutable state, stepped one superstep at a time
   so a resilience layer can checkpoint between supersteps and a driver
   can interleave other work. [run] below is the classic run-to-drain
   entry point, a thin loop over [step]. *)
type in_flight = { req : Request.t; lanes : int array; started : float }

type t = {
  config : config;
  program : Autobatch.compiled;
  on_complete : (record -> Request.t option) option;
  ins : Instrument.t;
  engine : Engine.t option;
  pool : Lane_group.pool;
  mutable flight : in_flight list;     (* admission order *)
  queue : Request_queue.t;
  mutable now : float;
  mutable pending : Request.t list;    (* arrival order *)
  mutable shed : Request.t list;       (* newest first *)
  mutable rejected : Request.t list;   (* newest first *)
  mutable completions : record list;   (* newest first *)
  mutable idle_steps : int;
  mutable last_elapsed : float;
}

let create ?(config = default_config) ?on_complete ~program arrivals =
  let vm_config =
    match config.vm.Pc_vm.instrument with
    | Some _ -> config.vm
    | None -> { config.vm with Pc_vm.instrument = Some (Instrument.create ()) }
  in
  let ins =
    match vm_config.Pc_vm.instrument with Some i -> i | None -> assert false
  in
  let engine = vm_config.Pc_vm.engine in
  let elapsed0 = match engine with Some e -> Engine.elapsed e | None -> 0. in
  {
    config;
    program;
    on_complete;
    ins;
    engine;
    pool =
      Lane_group.create ~shard:0 ~config:vm_config program.Autobatch.registry
        program.Autobatch.stack ~z:config.lanes;
    flight = [];
    queue = Request_queue.create ~depth:config.queue_depth ();
    now = 0.;
    pending = List.stable_sort compare_arrival arrivals;
    shed = [];
    rejected = [];
    completions = [];
    idle_steps = 0;
    last_elapsed = elapsed0;
  }

let now t = t.now

(* Request lifecycle events go to the VM config's sink: the one seam
   serves both the lane VM (Step events) and the server (request spans). *)
let emit t ev =
  match t.config.vm.Pc_vm.sink with None -> () | Some sink -> sink ev

(* Admission: continuous policies refill free lanes the moment they open
   (mid-run); the synchronous baseline waits for the whole batch to drain
   before admitting again — the paper's fixed-batch regime. *)
let refill t =
  let fits r = Request.width r <= Pc_vm.Lanes.free_count t.pool.lanes in
  let rec drain pop =
    match pop ~fits with
    | Some r ->
      let rows = Array.init (Request.width r) (fun row -> Request.lane_inputs r ~row) in
      let lanes = Lane_group.admit t.pool ~member:r.Request.member rows in
      t.flight <- t.flight @ [ { req = r; lanes; started = t.now } ];
      drain pop
    | None -> ()
  in
  match t.config.policy with
  | Fifo -> drain (Request_queue.pop_fifo t.queue)
  | Shortest_first -> drain (Request_queue.pop_shortest t.queue)
  | Synchronous ->
    if t.flight = [] then drain (Request_queue.pop_fifo t.queue)

(* Move every request whose arrival time has passed into the bounded
   queue, one at a time with a refill in between — so a free lane is
   taken by an earlier arrival before a later one can shed it from a
   full queue. Requests wider than the whole device can never be
   admitted and are rejected up front. *)
let rec admit_due t =
  match t.pending with
  | r :: rest when r.Request.arrival <= t.now ->
    t.pending <- rest;
    if r.Request.program.Autobatch.stack != t.program.Autobatch.stack then
      invalid_arg
        (Printf.sprintf "Server.run: request %d was compiled from a different program"
           r.Request.id)
    else begin
      if Request.width r > t.config.lanes then begin
        t.rejected <- r :: t.rejected;
        emit t (Obs_sink.Request_rejected { id = r.Request.id; at = t.now })
      end
      else begin
        emit t (Obs_sink.Request_enqueued { id = r.Request.id; at = t.now });
        (match Request_queue.offer t.queue r with
        | `Admitted -> ()
        | `Shed s ->
          t.shed <- s :: t.shed;
          emit t (Obs_sink.Request_shed { id = s.Request.id; at = t.now }));
        refill t
      end;
      admit_due t
    end
  | _ -> ()

let elapsed t = match t.engine with Some e -> Engine.elapsed e | None -> 0.

(* With an engine, the server clock is its simulated time: advance by
   whatever has accrued since the last sync (block execution, refill
   and retire transfers alike). *)
let sync_clock t =
  let e = elapsed t in
  t.now <- t.now +. (e -. t.last_elapsed);
  t.last_elapsed <- e

(* Retire every request whose lanes have all halted. *)
let complete t =
  let finished, running =
    List.partition (fun f -> Lane_group.finished t.pool f.lanes) t.flight
  in
  t.flight <- running;
  let finished = List.map (fun f -> (f, Lane_group.retire t.pool f.lanes)) finished in
  List.iter
    (fun (f, outputs) ->
      let r =
        {
          request = f.req;
          outputs;
          queued = f.req.Request.arrival;
          started = f.started;
          finished = t.now;
        }
      in
      t.completions <- r :: t.completions;
      emit t
        (Obs_sink.Request_completed
           {
             id = r.request.Request.id;
             queued = r.queued;
             started = r.started;
             finished = r.finished;
           });
      match t.on_complete with
      | None -> ()
      | Some f -> (
        match f r with
        | None -> ()
        | Some next ->
          let next =
            if next.Request.arrival >= t.now then next
            else { next with Request.arrival = t.now }
          in
          t.pending <- insert_sorted next t.pending))
    finished

let step t =
  admit_due t;
  refill t;
  if Pc_vm.Lanes.live_count t.pool.Lane_group.lanes > 0 then begin
    ignore (Pc_vm.Lanes.step t.pool.Lane_group.lanes);
    (match t.engine with
    | Some _ -> sync_clock t
    | None -> t.now <- t.now +. 1.0);
    complete t;
    true
  end
  else if t.flight <> [] then begin
    (* every occupied lane has halted but the groups are still loaded *)
    complete t;
    true
  end
  else
    match t.pending with
    | r :: _ ->
      (* nothing runnable: jump the clock to the next arrival *)
      t.now <- Float.max t.now r.Request.arrival;
      t.idle_steps <- t.idle_steps + 1;
      true
    | [] -> false

let stats t =
  sync_clock t;
  {
    completions = List.rev t.completions;
    shed = List.rev t.shed;
    rejected = List.rev t.rejected;
    steps = Pc_vm.Lanes.steps t.pool.Lane_group.lanes;
    idle_steps = t.idle_steps;
    makespan = t.now;
    mean_occupancy = Instrument.mean_occupancy t.ins;
    occupancy = Instrument.occupancy_series t.ins;
    instrument = t.ins;
  }

let run ?config ?on_complete ~program arrivals =
  let t = create ?config ?on_complete ~program arrivals in
  while step t do
    ()
  done;
  stats t

type completion_image = {
  ci_request : Request.image;
  ci_outputs : (Shape.t * float array) list;
  ci_queued : float;
  ci_started : float;
  ci_finished : float;
}

type image = {
  si_now : float;
  si_last_elapsed : float;
  si_idle_steps : int;
  si_pending : Request.image list;
  si_queue : Request.image list;
  si_queue_shed_total : int;
  si_shed : Request.image list;
  si_rejected : Request.image list;
  si_completions : completion_image list;
  si_vm : Pc_vm.Lanes.image;
  si_flight : (Request.image * int array * float) list;
  si_engine : Engine.snapshot option;
  si_instrument : Instrument.image;
}

let tensor_images = List.map (fun x -> (Array.copy (Tensor.shape x), Array.copy (Tensor.data x)))

let capture t =
  {
    si_now = t.now;
    si_last_elapsed = t.last_elapsed;
    si_idle_steps = t.idle_steps;
    si_pending = List.map Request.to_image t.pending;
    si_queue = List.map Request.to_image (Request_queue.to_list t.queue);
    si_queue_shed_total = Request_queue.shed_total t.queue;
    si_shed = List.map Request.to_image t.shed;
    si_rejected = List.map Request.to_image t.rejected;
    si_completions =
      List.map
        (fun r ->
          {
            ci_request = Request.to_image r.request;
            ci_outputs = tensor_images r.outputs;
            ci_queued = r.queued;
            ci_started = r.started;
            ci_finished = r.finished;
          })
        t.completions;
    si_vm = Pc_vm.Lanes.capture t.pool.Lane_group.lanes;
    si_flight =
      List.map (fun f -> (Request.to_image f.req, Array.copy f.lanes, f.started)) t.flight;
    si_engine = Option.map Engine.snapshot t.engine;
    si_instrument = Instrument.capture t.ins;
  }

let restore t img =
  (match (t.engine, img.si_engine) with
  | Some e, Some s -> Engine.restore e s
  | None, None -> ()
  | Some _, None | None, Some _ ->
    invalid_arg "Server.restore: image disagrees with the server about an engine");
  let of_image = Request.of_image ~program:t.program in
  t.now <- img.si_now;
  t.last_elapsed <- img.si_last_elapsed;
  t.idle_steps <- img.si_idle_steps;
  t.pending <- List.map of_image img.si_pending;
  Request_queue.set_state t.queue
    ~items:(List.map of_image img.si_queue)
    ~shed_total:img.si_queue_shed_total;
  t.shed <- List.map of_image img.si_shed;
  t.rejected <- List.map of_image img.si_rejected;
  t.completions <-
    List.map
      (fun ci ->
        {
          request = of_image ci.ci_request;
          outputs = List.map (fun (shape, data) -> Tensor.of_array shape data) ci.ci_outputs;
          queued = ci.ci_queued;
          started = ci.ci_started;
          finished = ci.ci_finished;
        })
      img.si_completions;
  Pc_vm.Lanes.restore t.pool.Lane_group.lanes img.si_vm;
  t.flight <-
    List.map
      (fun (ri, lanes, started) -> { req = of_image ri; lanes = Array.copy lanes; started })
      img.si_flight;
  Instrument.restore t.ins img.si_instrument
