type prim_stats = { mutable useful : int; mutable issued : int }

type block_stats = { mutable execs : int; mutable active : int }

(* The live-lane occupancy gauge: a bounded time series over steps. Each
   bucket aggregates [width] consecutive samples; when all [gauge_buckets]
   fill up, adjacent pairs merge and the width doubles, so the series
   always covers the whole run at bounded memory. *)
let gauge_buckets = 256

type gauge = {
  mutable width : int;            (* samples per bucket *)
  mutable used : int;             (* buckets in use *)
  mutable fill : int;             (* samples in the bucket being filled *)
  live_sum : float array;         (* per bucket: Σ live *)
  lanes_sum : float array;        (* per bucket: Σ lanes *)
}

type t = {
  prims : (string, prim_stats) Hashtbl.t;
  per_block : (int, block_stats) Hashtbl.t;
  mutable blocks : int;
  mutable active_total : int;
  mutable batch_total : int;
  mutable pushes : int;
  mutable pops : int;
  mutable push_lanes : int;
  mutable pop_lanes : int;
  mutable max_depth : int;
  mutable live_total : float;     (* Σ live over all occupancy samples *)
  mutable live_lanes_total : float;  (* Σ lanes over the same samples *)
  mutable live_samples : int;
  gauge : gauge;
}

let create_gauge () =
  {
    width = 1;
    used = 0;
    fill = 0;
    live_sum = Array.make gauge_buckets 0.;
    lanes_sum = Array.make gauge_buckets 0.;
  }

let reset_gauge g =
  g.width <- 1;
  g.used <- 0;
  g.fill <- 0;
  Array.fill g.live_sum 0 gauge_buckets 0.;
  Array.fill g.lanes_sum 0 gauge_buckets 0.

let create () =
  {
    prims = Hashtbl.create 32;
    per_block = Hashtbl.create 64;
    blocks = 0;
    active_total = 0;
    batch_total = 0;
    pushes = 0;
    pops = 0;
    push_lanes = 0;
    pop_lanes = 0;
    max_depth = 0;
    live_total = 0.;
    live_lanes_total = 0.;
    live_samples = 0;
    gauge = create_gauge ();
  }

let reset t =
  Hashtbl.reset t.prims;
  Hashtbl.reset t.per_block;
  t.blocks <- 0;
  t.active_total <- 0;
  t.batch_total <- 0;
  t.pushes <- 0;
  t.pops <- 0;
  t.push_lanes <- 0;
  t.pop_lanes <- 0;
  t.max_depth <- 0;
  t.live_total <- 0.;
  t.live_lanes_total <- 0.;
  t.live_samples <- 0;
  reset_gauge t.gauge

let merge ~into src =
  Hashtbl.iter
    (fun name (s : prim_stats) ->
      match Hashtbl.find_opt into.prims name with
      | Some d ->
        d.useful <- d.useful + s.useful;
        d.issued <- d.issued + s.issued
      | None -> Hashtbl.add into.prims name { useful = s.useful; issued = s.issued })
    src.prims;
  Hashtbl.iter
    (fun b (s : block_stats) ->
      match Hashtbl.find_opt into.per_block b with
      | Some d ->
        d.execs <- d.execs + s.execs;
        d.active <- d.active + s.active
      | None -> Hashtbl.add into.per_block b { execs = s.execs; active = s.active })
    src.per_block;
  into.blocks <- into.blocks + src.blocks;
  into.active_total <- into.active_total + src.active_total;
  into.batch_total <- into.batch_total + src.batch_total;
  into.pushes <- into.pushes + src.pushes;
  into.pops <- into.pops + src.pops;
  into.push_lanes <- into.push_lanes + src.push_lanes;
  into.pop_lanes <- into.pop_lanes + src.pop_lanes;
  if src.max_depth > into.max_depth then into.max_depth <- src.max_depth;
  (* Aggregate occupancy merges exactly; the time series does not (shards
     run on independent step axes), so [into] keeps its own gauge. *)
  into.live_total <- into.live_total +. src.live_total;
  into.live_lanes_total <- into.live_lanes_total +. src.live_lanes_total;
  into.live_samples <- into.live_samples + src.live_samples

type image = {
  i_prims : (string * int * int) list;      (* name, useful, issued *)
  i_per_block : (int * int * int) list;     (* block, execs, active *)
  i_blocks : int;
  i_active_total : int;
  i_batch_total : int;
  i_pushes : int;
  i_pops : int;
  i_push_lanes : int;
  i_pop_lanes : int;
  i_max_depth : int;
  i_live_total : float;
  i_live_lanes_total : float;
  i_live_samples : int;
  i_gauge_width : int;
  i_gauge_used : int;
  i_gauge_fill : int;
  i_gauge_live : float array;
  i_gauge_lanes : float array;
}

let capture t =
  {
    (* Key order, so images of equal states are structurally equal. *)
    i_prims =
      Hashtbl.fold (fun k (s : prim_stats) acc -> (k, s.useful, s.issued) :: acc)
        t.prims []
      |> List.sort compare;
    i_per_block =
      Hashtbl.fold (fun b (s : block_stats) acc -> (b, s.execs, s.active) :: acc)
        t.per_block []
      |> List.sort compare;
    i_blocks = t.blocks;
    i_active_total = t.active_total;
    i_batch_total = t.batch_total;
    i_pushes = t.pushes;
    i_pops = t.pops;
    i_push_lanes = t.push_lanes;
    i_pop_lanes = t.pop_lanes;
    i_max_depth = t.max_depth;
    i_live_total = t.live_total;
    i_live_lanes_total = t.live_lanes_total;
    i_live_samples = t.live_samples;
    i_gauge_width = t.gauge.width;
    i_gauge_used = t.gauge.used;
    i_gauge_fill = t.gauge.fill;
    i_gauge_live = Array.sub t.gauge.live_sum 0 gauge_buckets;
    i_gauge_lanes = Array.sub t.gauge.lanes_sum 0 gauge_buckets;
  }

let restore t img =
  if
    Array.length img.i_gauge_live <> gauge_buckets
    || Array.length img.i_gauge_lanes <> gauge_buckets
  then invalid_arg "Instrument.restore: gauge bucket count mismatch";
  reset t;
  List.iter
    (fun (name, useful, issued) -> Hashtbl.replace t.prims name { useful; issued })
    img.i_prims;
  List.iter
    (fun (b, execs, active) -> Hashtbl.replace t.per_block b { execs; active })
    img.i_per_block;
  t.blocks <- img.i_blocks;
  t.active_total <- img.i_active_total;
  t.batch_total <- img.i_batch_total;
  t.pushes <- img.i_pushes;
  t.pops <- img.i_pops;
  t.push_lanes <- img.i_push_lanes;
  t.pop_lanes <- img.i_pop_lanes;
  t.max_depth <- img.i_max_depth;
  t.live_total <- img.i_live_total;
  t.live_lanes_total <- img.i_live_lanes_total;
  t.live_samples <- img.i_live_samples;
  t.gauge.width <- img.i_gauge_width;
  t.gauge.used <- img.i_gauge_used;
  t.gauge.fill <- img.i_gauge_fill;
  Array.blit img.i_gauge_live 0 t.gauge.live_sum 0 gauge_buckets;
  Array.blit img.i_gauge_lanes 0 t.gauge.lanes_sum 0 gauge_buckets

let stats_for t name =
  match Hashtbl.find_opt t.prims name with
  | Some s -> s
  | None ->
    let s = { useful = 0; issued = 0 } in
    Hashtbl.add t.prims name s;
    s

let record_prim t ~name ~useful ~issued =
  let s = stats_for t name in
  s.useful <- s.useful + useful;
  s.issued <- s.issued + issued

let record_push t ~lanes =
  t.pushes <- t.pushes + 1;
  t.push_lanes <- t.push_lanes + lanes

let record_pop t ~lanes =
  t.pops <- t.pops + 1;
  t.pop_lanes <- t.pop_lanes + lanes

let record_depth t d = if d > t.max_depth then t.max_depth <- d

let gauge_compact g =
  for i = 0 to (gauge_buckets / 2) - 1 do
    g.live_sum.(i) <- g.live_sum.(2 * i) +. g.live_sum.((2 * i) + 1);
    g.lanes_sum.(i) <- g.lanes_sum.(2 * i) +. g.lanes_sum.((2 * i) + 1)
  done;
  Array.fill g.live_sum (gauge_buckets / 2) (gauge_buckets / 2) 0.;
  Array.fill g.lanes_sum (gauge_buckets / 2) (gauge_buckets / 2) 0.;
  g.used <- gauge_buckets / 2;
  g.width <- g.width * 2

(* The one door for per-superstep counts: the VMs announce each
   superstep with one [Occupancy] event (Vm_util.superstep) and feed
   the same event to the user sink and here, so the block totals, the
   per-block profile, the live-lane gauge and any profiler sink read the
   same numbers by construction. *)
let observe_occupancy t ev =
  match ev with
  | Obs_sink.Occupancy { block; active; live; total; _ } ->
    t.blocks <- t.blocks + 1;
    t.active_total <- t.active_total + active;
    t.batch_total <- t.batch_total + total;
    (match Hashtbl.find_opt t.per_block block with
    | Some s ->
      s.execs <- s.execs + 1;
      s.active <- s.active + active
    | None -> Hashtbl.add t.per_block block { execs = 1; active });
    t.live_total <- t.live_total +. float_of_int live;
    t.live_lanes_total <- t.live_lanes_total +. float_of_int total;
    t.live_samples <- t.live_samples + 1;
    let g = t.gauge in
    if g.fill = 0 then begin
      if g.used = gauge_buckets then gauge_compact g;
      g.used <- g.used + 1
    end;
    let i = g.used - 1 in
    g.live_sum.(i) <- g.live_sum.(i) +. float_of_int live;
    g.lanes_sum.(i) <- g.lanes_sum.(i) +. float_of_int total;
    g.fill <- (g.fill + 1) mod g.width
  | _ -> ()

let live_samples t = t.live_samples

let mean_occupancy t =
  if t.live_lanes_total = 0. then 1. else t.live_total /. t.live_lanes_total

let occupancy_series t =
  let g = t.gauge in
  List.init g.used (fun i ->
      let occ = if g.lanes_sum.(i) = 0. then 0. else g.live_sum.(i) /. g.lanes_sum.(i) in
      (i * g.width, occ))

let utilization t ~name =
  match Hashtbl.find_opt t.prims name with
  | None -> None
  | Some s -> if s.issued = 0 then None else Some (float_of_int s.useful /. float_of_int s.issued)

let overall_utilization t =
  if t.batch_total = 0 then 1.
  else float_of_int t.active_total /. float_of_int t.batch_total

let prim_issued t ~name =
  match Hashtbl.find_opt t.prims name with Some s -> s.issued | None -> 0

let prim_useful t ~name =
  match Hashtbl.find_opt t.prims name with Some s -> s.useful | None -> 0

let blocks_executed t = t.blocks

let block_stats t =
  Hashtbl.fold (fun b s acc -> (b, s.execs, s.active) :: acc) t.per_block []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
let pushes t = t.pushes
let pops t = t.pops
let max_depth t = t.max_depth
