(* Wall clock, allocation counters and the order statistics every
   workload reports with. *)

(* A point on the monotonic clock that [Obs_wall] times intervals with,
   for span starts, event stamps and deadlines: [Obs_wall] reads
   intervals only. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated so far: minor + major - promoted, as
   [Obs_wall.alloc_words] counts them, but read from [Gc.counters]. On
   OCaml 5.1 the [Gc.quick_stat] that [Obs_wall] reads was seen to miss
   2% of the words of identical work, even right after a
   minor collection; [Gc.counters] right after one counted them exactly. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type sample = { wall_s : float; words : float }

(* Wall time from [Obs_wall.time]. The minor heap is emptied on both
   sides of [f], outside the timed interval, so the words count every
   allocation of [f] and nothing before it. *)
let measure f =
  Gc.minor ();
  let w0 = alloc_words () in
  let r, s = Obs_wall.time f in
  Gc.minor ();
  (r, { wall_s = s.Obs_wall.wall_s; words = alloc_words () -. w0 })

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs

(* Call [f] at least [min_reps] times and until [min_s] seconds have
   passed; results in call order. *)
let repeat ~min_reps ~min_s f =
  let t_end = now () +. min_s in
  let rec go n acc =
    if n >= min_reps && now () >= t_end then List.rev acc else go (n + 1) (f () :: acc)
  in
  go 0 []

(* Median over repetitions of [a_i / b_i]: each pair ran back to back, so
   both sides saw the same state of the machine. *)
let paired_ratio a b = median (List.map2 ( /. ) a b)

module Int_map = Map.Make (Int)

(* The yardstick for set-up time: a fixed job that calls no code of the
   repository, map inserts and float sweeps like the compiling and warmup
   that set-up does. A change to the repository moves set-up time but
   not the yardstick; a phase of the shared machine that slows everything
   slows both. It raises the top of the major heap by about 1 MB, so no
   workload runs it before reading its peak heap. *)
let reference () =
  let keys = ref 0 and x = ref 12345 in
  for _ = 1 to 10 do
    let m = ref Int_map.empty in
    for i = 1 to 2_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      m := Int_map.add !x i !m
    done;
    keys := Int_map.fold (fun k v acc -> acc + (k lxor v)) !m !keys
  done;
  let a = Array.init 200 float_of_int and acc = ref 0. in
  for _ = 1 to 1_000 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- Float.sqrt ((a.(i) *. 1.0001) +. 0.5);
      acc := !acc +. a.(i)
    done
  done;
  ignore (Sys.opaque_identity (!keys, !acc))

(* The reference's median wall time on the 2-vCPU x86-64 VM the bounds
   were set on, where the middle half of its runs took 6.0 to 6.9 ms. *)
let reference_s = 0.0065

(* [k] set-ups by [f], each timed between two runs of the reference
   (neighbours share one), with the set-up's result and its wall time
   expressed at the reference's nominal speed: wall / mean of the two
   reference walls * [reference_s]. On that VM, the medians of stretches
   of a few seconds ranged up to 1.35-1.42x apart for set-up wall time
   and 1.12-1.24x apart for rescaled set-up time. *)
let scaled_setups k f =
  let wall g = (snd (measure g)).wall_s in
  let rec go i r0 acc =
    if i = k then List.rev acc
    else
      let x, s = measure f in
      let r1 = wall reference in
      go (i + 1) r1 ((x, s.wall_s /. ((r0 +. r1) /. 2.) *. reference_s) :: acc)
  in
  go 0 (wall reference) []
