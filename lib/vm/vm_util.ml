(* Shared helpers for the autobatching runtimes. *)

let bytes_per_elem = 8.

let indices_of_mask mask =
  let n = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 mask in
  let out = Array.make n 0 in
  let j = ref 0 in
  Array.iteri
    (fun i m ->
      if m then begin
        out.(!j) <- i;
        incr j
      end)
    mask;
  out

let count_mask mask = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 mask

(* A masked write in a static-shape (XLA-style) system is a select: read
   old and new, write result. *)
let masked_write_bytes ~lanes ~row = 3. *. bytes_per_elem *. float_of_int (lanes * row)

(* A stack push/pop moves one row per lane between the stack body and the
   cached top (scatter resp. gather), reading and writing each element. *)
let stack_move_bytes ~lanes ~row = 2. *. bytes_per_elem *. float_of_int (lanes * row)

let elem_shape_of_batched t = Shape.drop_outer (Tensor.shape t)

(* The one place a runtime announces a superstep. [Step] and [Occupancy]
   are built here, once, and only when someone listens; the sink sees
   both before the instrument counts, so a sink that raises on [Step]
   aborts the superstep before anything observed it. *)
let superstep sink instrument ~step ~block ~active ~live ~total =
  match (sink, instrument) with
  | None, None -> ()
  | sink, instrument -> (
    let occ = Obs_sink.Occupancy { shard = 0; step; block; active; live; total } in
    (match sink with
    | None -> ()
    | Some sink ->
      sink (Obs_sink.Step { shard = 0; step; block });
      sink occ);
    match instrument with
    | None -> ()
    | Some ins -> Instrument.observe_occupancy ins occ)
