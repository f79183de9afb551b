(* Wall-clock and GC telemetry. This is the one corner of lib/obs that
   reads real clocks, so it is fenced off from everything the simulated
   side computes: probes never touch the simulated clock, and a disabled
   probe is a handful of dead branches — no clock syscalls, no
   Gc.quick_stat, no allocation — so instrumented code keeps its probe
   handles unconditionally.

   Wall time uses the monotonic clock (immune to NTP steps); CPU time is
   the process total from Sys.time, so on multi-domain runs cpu_s can
   legitimately exceed wall_s. GC numbers are Gc.quick_stat deltas:
   cheap (no heap walk) and exact for the word/collection counters we
   report. *)

type sample = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let zero =
  {
    wall_s = 0.;
    cpu_s = 0.;
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    minor_collections = 0;
    major_collections = 0;
  }

(* Allocated words = minor + major - promoted (promoted words would
   otherwise be counted in both generations). *)
let alloc_words s = s.minor_words +. s.major_words -. s.promoted_words

let alloc_rate s =
  if s.wall_s <= 0. then 0. else alloc_words s /. s.wall_s

let now_monotonic () =
  (* Monotonic nanoseconds; int64 wraps after ~292 years of uptime. *)
  Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type probe = {
  enabled : bool;
  mutable t0_wall : float;
  mutable t0_cpu : float;
  mutable g0 : Gc.stat option;
  mutable running : bool;
}

let probe ?(enabled = true) () =
  { enabled; t0_wall = 0.; t0_cpu = 0.; g0 = None; running = false }

let enabled p = p.enabled

let start p =
  if p.enabled then begin
    p.g0 <- Some (Gc.quick_stat ());
    p.t0_cpu <- Sys.time ();
    p.t0_wall <- now_monotonic ();
    p.running <- true
  end

let stop p =
  if not (p.enabled && p.running) then zero
  else begin
    let wall = now_monotonic () -. p.t0_wall in
    let cpu = Sys.time () -. p.t0_cpu in
    let g1 = Gc.quick_stat () in
    let g0 = match p.g0 with Some g -> g | None -> g1 in
    p.running <- false;
    p.g0 <- None;
    {
      wall_s = Float.max 0. wall;
      cpu_s = Float.max 0. cpu;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  end

let time ?(enabled = true) f =
  let p = probe ~enabled () in
  start p;
  let v = f () in
  (v, stop p)

let to_json s =
  Obs_json.Obj
    [
      ("wall_s", Obs_json.Float s.wall_s);
      ("cpu_s", Obs_json.Float s.cpu_s);
      ("minor_words", Obs_json.Float s.minor_words);
      ("major_words", Obs_json.Float s.major_words);
      ("promoted_words", Obs_json.Float s.promoted_words);
      ("minor_collections", Obs_json.Int s.minor_collections);
      ("major_collections", Obs_json.Int s.major_collections);
      ("alloc_words", Obs_json.Float (alloc_words s));
    ]

let span_of_seconds s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let words w =
  if w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let summary s =
  Printf.sprintf "wall %s  cpu %s  alloc %s (%s/s)  gc %d/%d"
    (span_of_seconds s.wall_s) (span_of_seconds s.cpu_s)
    (words (alloc_words s))
    (words (alloc_rate s))
    s.minor_collections s.major_collections
