(* Structural digest of Lang programs: a post-order walk folds each node —
   constructor tag, scalar payloads, string hashes, then child digests —
   through [Splitmix.hash2], starting from [Splitmix.hash_list]'s seed.
   A node's digest is thus [Splitmix.hash_list] of that sequence, computed
   without building the list. *)

let hash_string s =
  let h = ref (Int64.of_int (String.length s)) in
  String.iter
    (fun c -> h := Splitmix.hash2 !h (Int64.of_int (Char.code c)))
    s;
  !h

let seed = Splitmix.hash_list []
let node tag = Splitmix.hash2 seed (Int64.of_int tag)
let str h s = Splitmix.hash2 h (hash_string s)
let strs h l = List.fold_left str h l
let num h x = Splitmix.hash2 h (Int64.bits_of_float x)

let rec munge_expr (e : Lang.expr) =
  match e with
  | Lang.Var x -> str (node 1) x
  | Lang.Const v -> num (node 2) v
  | Lang.Vec a -> Array.fold_left num (node 3) a
  | Lang.Prim (name, args) -> exprs (str (node 4) name) args

and exprs h es = List.fold_left (fun h e -> Splitmix.hash2 h (munge_expr e)) h es

let rec munge_stmt (s : Lang.stmt) =
  match s with
  | Lang.Assign (x, e) -> Splitmix.hash2 (str (node 10) x) (munge_expr e)
  | Lang.Call_stmt (dsts, f, args) -> exprs (strs (node 11) (f :: dsts)) args
  | Lang.If (c, t, e) ->
    Splitmix.hash2
      (Splitmix.hash2 (Splitmix.hash2 (node 12) (munge_expr c)) (munge_body t))
      (munge_body e)
  | Lang.While (c, body) ->
    Splitmix.hash2 (Splitmix.hash2 (node 13) (munge_expr c)) (munge_body body)
  | Lang.Return es -> exprs (node 14) es

and munge_body stmts =
  List.fold_left (fun h s -> Splitmix.hash2 h (munge_stmt s)) (node 20) stmts

let munge_func (f : Lang.func) =
  Splitmix.hash2 (strs (node 30) (f.Lang.fname :: f.Lang.params)) (munge_body f.Lang.body)

let digest_program (p : Lang.program) =
  List.fold_left
    (fun h f -> Splitmix.hash2 h (munge_func f))
    (str (node 31) p.Lang.main) p.Lang.funcs

let digest ?input_shapes p =
  let base = digest_program p in
  match input_shapes with
  | None -> Splitmix.hash2 base 0x5eedL
  | Some shapes ->
    List.fold_left
      (fun acc (s : Shape.t) ->
        Array.fold_left
          (fun acc d -> Splitmix.hash2 acc (Int64.of_int d))
          (Splitmix.hash2 acc (Int64.of_int (Array.length s)))
          s)
      (Splitmix.hash2 base 0xcac4eL)
      shapes

(* ---------- the LRU of compiled programs ---------- *)

type entry = { compiled : Autobatch.compiled; mutable last_use : int }

type t = {
  capacity : int;
  registry : Prim.registry;
  entries : (int64, entry) Hashtbl.t;
  mutable tick : int;  (* bumps on every access; LRU = smallest tick *)
  c_hits : Obs_metrics.counter;
  c_misses : Obs_metrics.counter;
  c_evictions : Obs_metrics.counter;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  sink : Obs_sink.t option;
  clock : unit -> float;
  mutable span_seq : int;
}

let create ?metrics ?registry ?sink ?(clock = fun () -> 0.) ~capacity () =
  if capacity < 0 then invalid_arg "Prog_cache.create: negative capacity";
  let m = match metrics with Some m -> m | None -> Obs_metrics.create ~enabled:false () in
  {
    capacity;
    registry = (match registry with Some r -> r | None -> Prim.standard ());
    entries = Hashtbl.create (Stdlib.max 16 capacity);
    tick = 0;
    c_hits = Obs_metrics.counter m "prog_cache_hits";
    c_misses = Obs_metrics.counter m "prog_cache_misses";
    c_evictions = Obs_metrics.counter m "prog_cache_evictions";
    n_hits = 0; n_misses = 0; n_evictions = 0;
    sink;
    clock;
    span_seq = 0;
  }

let length t = Hashtbl.length t.entries
let capacity t = t.capacity
let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions

let hit_rate t =
  let total = t.n_hits + t.n_misses in
  if total = 0 then nan else float_of_int t.n_hits /. float_of_int total

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

(* Cache-lifecycle instants live on the shared cache trace
   (Obs_span.cache_trace), outside any request's span tree. Charging no
   simulated cost, they are zero-width. *)
let emit_instant t name =
  match t.sink with
  | None -> ()
  | Some sink ->
    let span = t.span_seq in
    t.span_seq <- span + 1;
    let now = t.clock () in
    sink
      (Obs_sink.Span
         {
           trace = Obs_span.cache_trace;
           span;
           parent = Obs_span.no_parent;
           track = Obs_span.ops_track;
           name;
           t0 = now;
           t1 = now;
         })

let hit t e =
  touch t e;
  t.n_hits <- t.n_hits + 1;
  Obs_metrics.incr t.c_hits;
  emit_instant t "cache-hit"

let miss t =
  t.n_misses <- t.n_misses + 1;
  Obs_metrics.incr t.c_misses;
  emit_instant t "cache-miss"

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.entries key;
    t.n_evictions <- t.n_evictions + 1;
    Obs_metrics.incr t.c_evictions

let insert t key compiled =
  if t.capacity > 0 then begin
    if Hashtbl.length t.entries >= t.capacity then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.add t.entries key { compiled; last_use = t.tick }
  end

let find t key =
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    hit t e;
    Some e.compiled
  | None ->
    miss t;
    None

let find_or_compile t ?optimize ?fuse ?input_shapes program =
  let key = digest ?input_shapes program in
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    hit t e;
    (e.compiled, key, `Hit)
  | None ->
    miss t;
    let compiled =
      Autobatch.compile ~registry:t.registry ?optimize ?fuse ?input_shapes
        program
    in
    emit_instant t "compile";
    insert t key compiled;
    (compiled, key, `Miss)
