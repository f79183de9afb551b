(* Request-scoped spans over the Obs_sink seam. The emitters (the tenant
   server, the program cache, ...) publish completed spans as
   [Obs_sink.Span] events; this module is the consumer side — a sink into
   an [Obs_trace] recorder, which also exports them, and a tree
   validator. *)

type ctx = { trace : int; parent : int }

let no_parent = -1
let ops_trace = -1
let cache_trace = -2
let ops_track = -1

let ctx ?(parent = no_parent) ~trace () = { trace; parent }

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_track : int;
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

(* Spans live in an [Obs_trace] recorder next to everything else it
   holds; this sink admits only [Span] events, so a tenant sink that also
   carries every VM and engine event cannot fill the recorder's bound. *)
let sink trace : Obs_sink.t = function
  | Obs_sink.Span { t0; track; _ } as ev -> Obs_trace.record trace ~track ~ts:t0 ev
  | _ -> ()

let spans trace =
  List.filter_map
    (fun (e : Obs_trace.entry) ->
      match e.ev with
      | Obs_sink.Span { trace; span; parent; track; name; t0; t1 } ->
        Some
          {
            sp_trace = trace;
            sp_id = span;
            sp_parent = parent;
            sp_track = track;
            sp_name = name;
            sp_t0 = t0;
            sp_t1 = t1;
          }
      | _ -> None)
    (Obs_trace.entries trace)

let count_named trace name =
  List.fold_left
    (fun acc sp -> if sp.sp_name = name then acc + 1 else acc)
    0 (spans trace)

(* ------------------------------------------------------------------ *)
(* Validation. Request traces (trace >= 0) must each form one rooted
   tree: exactly one parentless span, every other span's parent present
   in the same trace, and every child's interval nested within its
   parent's (with a small absolute slack for float noise). Operational
   traces (negative ids) are streams of instants with no root, so only
   interval sanity applies to them. *)

type tree_stats = {
  traces : int;          (* request traces seen (trace >= 0) *)
  well_formed : int;     (* traces passing all three checks *)
  multi_root : int;      (* traces with zero or >1 roots *)
  orphans : int;         (* spans whose parent id is missing *)
  nest_violations : int; (* child intervals escaping their parent *)
  inverted : int;        (* spans with t1 < t0, any trace *)
}

let eps = 1e-9

let validate t =
  let spans = spans t in
  let by_trace : (int, span list ref) Hashtbl.t = Hashtbl.create 256 in
  let inverted = ref 0 in
  List.iter
    (fun sp ->
      if sp.sp_t1 < sp.sp_t0 -. eps then incr inverted;
      if sp.sp_trace >= 0 then
        match Hashtbl.find_opt by_trace sp.sp_trace with
        | Some cell -> cell := sp :: !cell
        | None -> Hashtbl.add by_trace sp.sp_trace (ref [ sp ]))
    spans;
  let traces = ref 0
  and well = ref 0
  and multi_root = ref 0
  and orphans = ref 0
  and nest = ref 0 in
  Hashtbl.iter
    (fun _trace cell ->
      incr traces;
      let spans = !cell in
      let ids = Hashtbl.create 8 in
      List.iter (fun sp -> Hashtbl.replace ids sp.sp_id sp) spans;
      let roots =
        List.length (List.filter (fun sp -> sp.sp_parent = no_parent) spans)
      in
      let trace_orphans = ref 0 and trace_nest = ref 0 in
      List.iter
        (fun sp ->
          if sp.sp_parent <> no_parent then
            match Hashtbl.find_opt ids sp.sp_parent with
            | None -> incr trace_orphans
            | Some parent ->
              if
                sp.sp_t0 < parent.sp_t0 -. eps
                || sp.sp_t1 > parent.sp_t1 +. eps
              then incr trace_nest)
        spans;
      if roots <> 1 then incr multi_root;
      orphans := !orphans + !trace_orphans;
      nest := !nest + !trace_nest;
      if roots = 1 && !trace_orphans = 0 && !trace_nest = 0 then incr well)
    by_trace;
  {
    traces = !traces;
    well_formed = !well;
    multi_root = !multi_root;
    orphans = !orphans;
    nest_violations = !nest;
    inverted = !inverted;
  }

let all_well_formed t =
  let s = validate t in
  s.traces = s.well_formed && s.inverted = 0

let stats_to_json s =
  Obs_json.Obj
    [
      ("traces", Obs_json.Int s.traces);
      ("well_formed", Obs_json.Int s.well_formed);
      ("multi_root", Obs_json.Int s.multi_root);
      ("orphans", Obs_json.Int s.orphans);
      ("nest_violations", Obs_json.Int s.nest_violations);
      ("inverted", Obs_json.Int s.inverted);
    ]
