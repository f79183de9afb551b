type t = {
  depth : int;
  mutable items : Request.t list;  (* arrival order, oldest first *)
  mutable length : int;
  mutable shed_total : int;
}

let create ?(depth = max_int) () =
  if depth <= 0 then invalid_arg "Request_queue.create: depth must be positive";
  { depth; items = []; length = 0; shed_total = 0 }

let depth t = t.depth
let length t = t.length
let shed_total t = t.shed_total
let to_list t = t.items

(* Restore seam for the resilience layer: overwrite the queue's contents
   wholesale (depth is a construction parameter, not state). *)
let set_state t ~items ~shed_total =
  t.items <- items;
  t.length <- List.length items;
  t.shed_total <- shed_total

let offer t r =
  if t.length < t.depth then begin
    t.items <- t.items @ [ r ];
    t.length <- t.length + 1;
    `Admitted
  end
  else begin
    t.shed_total <- t.shed_total + 1;
    `Shed r
  end

(* Strict FIFO: only the head may leave, so a wide request at the head
   blocks the line until enough lanes drain (head-of-line blocking — the
   honest cost of the simplest policy). *)
let pop_fifo t ~fits =
  match t.items with
  | r :: rest when fits r ->
    t.items <- rest;
    t.length <- t.length - 1;
    Some r
  | _ -> None

(* Shortest-expected-first: the admissible request with the smallest
   cost hint, ties broken by arrival order (list order is stable). *)
let pop_shortest t ~fits =
  let best =
    List.fold_left
      (fun acc r ->
        if not (fits r) then acc
        else
          match acc with
          | Some b when b.Request.cost_hint <= r.Request.cost_hint -> acc
          | _ -> Some r)
      None t.items
  in
  match best with
  | None -> None
  | Some r ->
    let removed = ref false in
    t.items <-
      List.filter
        (fun x ->
          if (not !removed) && x == r then begin
            removed := true;
            false
          end
          else true)
        t.items;
    t.length <- t.length - 1;
    Some r
