(* What one workload run hands back to [Bench], and the JSON result line. *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** every output check passed *)
  metrics : metric list;
  lines : string list;  (** human-readable report, printed before the JSON *)
}

let m name unit_ value = { name; value; unit_ }

(* Shortest decimal that reads back to the same float. *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let result_line o =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
