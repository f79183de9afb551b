(* Kernel replays for the traced run: [Tensor] and model-gradient calls
   at the shapes the workloads use, timed in-process. A sample times a
   fixed number of calls; samples of the different kernels are taken in
   turn (kernel A, B, C, ..., A, B, C, ...), so a slow phase of the
   machine hits every kernel alike. Each kernel reports the median and
   quartiles of its samples. *)

type kernel = {
  name : string;
  calls : int;  (** calls per sample *)
  run : unit -> unit;
  work : float;  (** elements, flops or bytes per call *)
}

type result = { kname : string; per_call_s : float list; words_per_call : float; kwork : float }

let rows_tensor s z d = Tensor.init [| z; d |] (fun _ -> Splitmix.Stream.normal s)

let kernels ~seed =
  let s = Splitmix.Stream.create (Splitmix.hash2 0x7E95L (Int64.of_int seed)) in
  let a = Tensor.init [| 1024 |] (fun _ -> Splitmix.Stream.normal s) in
  let b = Tensor.init [| 1024 |] (fun _ -> Splitmix.Stream.normal s) in
  (* logistic: 64 chains x dim 10 against 400 data rows *)
  let betas = rows_tensor s 64 10 in
  let xt = rows_tensor s 10 400 in
  let z = Tensor.matmul betas xt in
  let bias = Tensor.init [| 400 |] (fun _ -> Splitmix.Stream.normal s) in
  let idx = Array.init 64 (fun i -> (i * 37) mod 64) in
  let mask = Array.init 64 (fun i -> i mod 2 = 0) in
  let dst = rows_tensor s 64 10 in
  [
    { name = "add"; calls = 200; run = (fun () -> ignore (Tensor.add a b)); work = 1024. };
    {
      name = "add_broadcast";
      calls = 20;
      run = (fun () -> ignore (Tensor.add z bias));
      work = float_of_int (64 * 400);
    };
    {
      name = "matmul";
      calls = 10;
      run = (fun () -> ignore (Tensor.matmul betas xt));
      work = float_of_int (2 * 64 * 10 * 400);
    };
    {
      name = "gather_rows";
      calls = 200;
      run = (fun () -> ignore (Tensor.take_rows betas idx));
      work = float_of_int (2 * 64 * 10 * 8);
    };
    {
      name = "blit_rows_masked";
      calls = 200;
      run = (fun () -> Tensor.blit_rows_masked ~mask ~src:betas ~dst);
      work = float_of_int (2 * 32 * 10 * 8);
    };
  ]

let model_kernels ~seed =
  List.map
    (fun (label, (model : Model.t)) ->
      let s = Splitmix.Stream.create (Splitmix.hash2 0x9AADL (Int64.of_int seed)) in
      let q = rows_tensor s 64 model.Model.dim in
      {
        name = "grad_batch." ^ label;
        calls = 10;
        run = (fun () -> ignore (model.Model.grad_batch q));
        work = 1.;
      })
    (List.map (fun spec -> (spec.Pb_nuts.label, spec.Pb_nuts.build ())) Pb_nuts.specs)

let samples = 31

let run ks =
  let times = Array.make (List.length ks) [] in
  let words = Array.make (List.length ks) 0. in
  List.iter (fun k -> k.run ()) ks;
  for _ = 1 to samples do
    List.iteri
      (fun i k ->
        let (), m =
          Pb_meter.measure (fun () ->
              Pb_trace.span ("tensor.replay." ^ k.name) (fun () ->
                  for _ = 1 to k.calls do
                    k.run ()
                  done))
        in
        times.(i) <- (m.wall_s /. float_of_int k.calls) :: times.(i);
        words.(i) <- words.(i) +. m.words)
      ks
  done;
  List.mapi
    (fun i k ->
      {
        kname = k.name;
        per_call_s = times.(i);
        words_per_call = words.(i) /. float_of_int (samples * k.calls);
        kwork = k.work;
      })
    ks

let quartiles r = Array.map (Pb_meter.quantile r.per_call_s) [| 0.25; 0.5; 0.75 |]
