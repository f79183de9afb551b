type key = { seed : int64 }

let key seed = { seed }

let word k ~member ~counter ~slot =
  Splitmix.hash_list
    [ k.seed; Int64.of_int member; Int64.of_int counter; Int64.of_int slot ]

let uniform k ~member ~counter ~slot =
  Splitmix.to_unit_float (word k ~member ~counter ~slot)

let normal k ~member ~counter ~slot =
  (* Two derived uniforms per slot; Box–Muller, cosine branch only, so each
     (member, counter, slot) triple yields exactly one normal. *)
  let u1 = uniform k ~member ~counter ~slot:(2 * slot) in
  let u2 = uniform k ~member ~counter ~slot:((2 * slot) + 1) in
  Stdlib.sqrt (-2. *. Stdlib.log u1) *. Stdlib.cos (2. *. Float.pi *. u2)

let exponential k ~member ~counter ~slot =
  -.Stdlib.log (uniform k ~member ~counter ~slot)

let bernoulli k ~p ~member ~counter ~slot =
  uniform k ~member ~counter ~slot < p

let counter_int t i =
  let v = (Tensor.data t).(i) in
  int_of_float v

let check_counters counters =
  if Tensor.rank counters <> 1 then
    invalid_arg "Counter_rng: counters must be a rank-1 tensor"

let uniform_batch k ~counters =
  check_counters counters;
  let z = (Tensor.shape counters).(0) in
  Tensor.init [| z |] (fun idx ->
      let b = idx.(0) in
      uniform k ~member:b ~counter:(counter_int counters b) ~slot:0)

let normal_batch k ~counters ~dim =
  check_counters counters;
  let z = (Tensor.shape counters).(0) in
  Tensor.init [| z; dim |] (fun idx ->
      let b = idx.(0) in
      normal k ~member:b ~counter:(counter_int counters b) ~slot:idx.(1))

let exponential_batch k ~counters =
  check_counters counters;
  let z = (Tensor.shape counters).(0) in
  Tensor.init [| z |] (fun idx ->
      let b = idx.(0) in
      exponential k ~member:b ~counter:(counter_int counters b) ~slot:0)
