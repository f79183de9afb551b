(* The traced run's recorder. Spans wrap each call the benchmark makes
   into a library layer; a sink attached through the libraries' public
   [?sink] parameters stamps the events they already emit with wall time.
   Everything stays in memory until [write]. With no recorder installed
   [span] is a plain call and [sink] is [None], so the untraced runs pay
   nothing. *)

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;  (** request, program or trajectory index; -1 when none *)
  t0 : float;
  t1 : float;
}

type event = { kind : string; at : float; step : int; a : int; b : int; c : int }

(* Events kept for the JSON file; the aggregates below see every event. *)
let max_events = 200_000

type t = {
  workload : string;
  epoch : float;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable events : event list;
  mutable n_events : int;
  mutable dropped : int;
  (* Streaming aggregates over the sink's events. *)
  mutable steps : int;
  mutable step_open : float option;
  mutable step_wall : float;
  mutable occ_active : float;
  mutable occ_live : float;
  mutable occ_total : float;
}

let current : t option ref = ref None

let install ~workload =
  let r =
    {
      workload;
      epoch = Pb_meter.now ();
      spans = [];
      next_id = 0;
      stack = [];
      events = [];
      n_events = 0;
      dropped = 0;
      steps = 0;
      step_open = None;
      step_wall = 0.;
      occ_active = 0.;
      occ_live = 0.;
      occ_total = 0.;
    }
  in
  current := Some r;
  r

let uninstall () = current := None

(* Run [f] untraced even inside a traced run, for the timings the
   per-layer metrics divide by. *)
let suspended f =
  let saved = !current in
  current := None;
  Fun.protect ~finally:(fun () -> current := saved) f

let span ?(req = -1) name f =
  match !current with
  | None -> f ()
  | Some r ->
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let t0 = Pb_meter.now () in
    let finish () =
      let t1 = Pb_meter.now () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; name; req; t0; t1 } :: r.spans
    in
    Fun.protect ~finally:finish f

let keep r ev =
  if r.n_events < max_events then begin
    r.events <- ev :: r.events;
    r.n_events <- r.n_events + 1
  end
  else r.dropped <- r.dropped + 1

let close_step r at =
  match r.step_open with
  | Some t0 ->
    r.step_wall <- r.step_wall +. (at -. t0);
    r.step_open <- None
  | None -> ()

(* A superstep runs from its [Step] event to the next event that the
   control plane emits; kernel launches and the occupancy report fire
   inside the superstep and do not end it. *)
let observe r (ev : Obs_sink.event) =
  let at = Pb_meter.now () in
  match ev with
  | Obs_sink.Step { shard; step; block } ->
    close_step r at;
    r.step_open <- Some at;
    r.steps <- r.steps + 1;
    keep r { kind = "step"; at; step; a = shard; b = block; c = 0 }
  | Obs_sink.Occupancy { active; live; total; step; _ } ->
    r.occ_active <- r.occ_active +. float_of_int active;
    r.occ_live <- r.occ_live +. float_of_int live;
    r.occ_total <- r.occ_total +. float_of_int total;
    keep r { kind = "occupancy"; at; step; a = active; b = live; c = total }
  | Obs_sink.Launch _ | Obs_sink.Launched _ | Obs_sink.Collective _ -> ()
  | Obs_sink.Checkpoint { step; bytes } ->
    close_step r at;
    keep r { kind = "checkpoint"; at; step; a = bytes; b = 0; c = 0 }
  | Obs_sink.Restore { step } ->
    close_step r at;
    keep r { kind = "restore"; at; step; a = 0; b = 0; c = 0 }
  | Obs_sink.Span { trace; span; parent; _ } ->
    close_step r at;
    keep r { kind = "span"; at; step = trace; a = span; b = parent; c = 0 }
  | _ -> close_step r at

let sink () =
  match !current with None -> None | Some r -> Some (observe r)

(* Close any superstep still open when a traced region ends. *)
let settle () = match !current with Some r -> close_step r (Pb_meter.now ()) | None -> ()

(* Aggregates so far, for deltas around one traced region. *)
type totals = { t_steps : int; t_step_wall : float; t_active : float; t_live : float; t_total : float }

let totals () =
  match !current with
  | None -> { t_steps = 0; t_step_wall = 0.; t_active = 0.; t_live = 0.; t_total = 0. }
  | Some r ->
    {
      t_steps = r.steps;
      t_step_wall = r.step_wall;
      t_active = r.occ_active;
      t_live = r.occ_live;
      t_total = r.occ_total;
    }

let diff a b =
  {
    t_steps = a.t_steps - b.t_steps;
    t_step_wall = a.t_step_wall -. b.t_step_wall;
    t_active = a.t_active -. b.t_active;
    t_live = a.t_live -. b.t_live;
    t_total = a.t_total -. b.t_total;
  }

(* [f ()] with the totals its events added. *)
let counting f =
  let before = totals () in
  let r = f () in
  settle ();
  (r, diff (totals ()) before)

let to_json r ~seed =
  let ms t = Obs_json.Float ((t -. r.epoch) *. 1e3) in
  let span_json s =
    Obs_json.Obj
      [
        ("id", Obs_json.Int s.id);
        ("parent", Obs_json.Int s.parent);
        ("name", Obs_json.Str s.name);
        ("workload", Obs_json.Str r.workload);
        ("req", Obs_json.Int s.req);
        ("t0_ms", ms s.t0);
        ("t1_ms", ms s.t1);
      ]
  in
  let event_json e =
    Obs_json.Obj
      [
        ("kind", Obs_json.Str e.kind);
        ("t_ms", ms e.at);
        ("step", Obs_json.Int e.step);
        ("a", Obs_json.Int e.a);
        ("b", Obs_json.Int e.b);
        ("c", Obs_json.Int e.c);
      ]
  in
  Obs_json.Obj
    [
      ("workload", Obs_json.Str r.workload);
      ("seed", Obs_json.Int seed);
      ( "event_fields",
        Obs_json.Str
          "step: a=shard b=block; occupancy: a=active b=live c=total; \
           checkpoint: a=bytes; span: step=trace a=span b=parent" );
      ("spans", Obs_json.List (List.rev_map span_json r.spans));
      ("events", Obs_json.List (List.rev_map event_json r.events));
      ("events_dropped", Obs_json.Int r.dropped);
    ]

let write r ~seed ~path =
  let oc = open_out path in
  output_string oc (Obs_json.to_string (to_json r ~seed));
  output_char oc '\n';
  close_out oc
