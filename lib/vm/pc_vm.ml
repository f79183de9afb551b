type config = {
  sched : Sched_policy.t;
  engine : Engine.t option;
  instrument : Instrument.t option;
  max_steps : int;
  top_cache : bool;
  naive_stack_writes : bool;
  member_base : int;
  sink : Obs_sink.t option;
}

let default_config =
  {
    sched = Sched_policy.Earliest;
    engine = None;
    instrument = None;
    max_steps = 100_000_000;
    top_cache = true;
    naive_stack_writes = false;
    member_base = 0;
    sink = None;
  }

exception Step_limit_exceeded

(* Initial per-variable stack capacity, in frames; stacks double from it. *)
let initial_depth = 4

(* The program-counter stack: same layout as Stacked but over ints. *)
module Pc_stack = struct
  type t = {
    z : int;
    mutable cap : int;
    mutable data : int array;
    sp : int array;
    top : int array;
  }

  let create ~z ~bottom ~start ~initial_depth =
    let cap = max 1 initial_depth in
    let t =
      { z; cap; data = Array.make (cap * z) 0; sp = Array.make z 1; top = Array.make z start }
    in
    for b = 0 to z - 1 do
      t.data.(b) <- bottom
    done;
    t

  let grow t =
    let cap' = t.cap * 2 in
    let data' = Array.make (cap' * t.z) 0 in
    Array.blit t.data 0 data' 0 (t.cap * t.z);
    t.cap <- cap';
    t.data <- data'

  let push t ~mask =
    let need = ref 0 in
    Array.iteri (fun b m -> if m && t.sp.(b) >= !need then need := t.sp.(b) + 1) mask;
    while !need > t.cap do
      grow t
    done;
    Array.iteri
      (fun b m ->
        if m then begin
          t.data.((t.sp.(b) * t.z) + b) <- t.top.(b);
          t.sp.(b) <- t.sp.(b) + 1
        end)
      mask

  let pop t ~mask =
    Array.iteri
      (fun b m ->
        if m then begin
          if t.sp.(b) = 0 then
            invalid_arg (Printf.sprintf "Pc_vm: pc stack underflow for member %d" b);
          t.sp.(b) <- t.sp.(b) - 1;
          t.top.(b) <- t.data.((t.sp.(b) * t.z) + b)
        end)
      mask

  let set_top_masked t ~mask v =
    Array.iteri (fun b m -> if m then t.top.(b) <- v) mask

  let reset_lane t ~lane ~bottom ~start =
    if lane < 0 || lane >= t.z then invalid_arg "Pc_stack.reset_lane: lane out of range";
    t.sp.(lane) <- 1;
    t.data.(lane) <- bottom;
    t.top.(lane) <- start

  let max_depth t = Array.fold_left max 0 t.sp

  (* One member's pc column: stack entries below sp (bottom first, the
     halt sentinel included) plus the cached top. *)
  type lane = { pl_sp : int; pl_stack : int array; pl_top : int }

  let capture_lane t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_stack.capture_lane: lane out of range";
    {
      pl_sp = t.sp.(lane);
      pl_stack = Array.init t.sp.(lane) (fun d -> t.data.((d * t.z) + lane));
      pl_top = t.top.(lane);
    }

  let restore_lane t ~lane l =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_stack.restore_lane: lane out of range";
    while l.pl_sp > t.cap do
      grow t
    done;
    t.sp.(lane) <- l.pl_sp;
    Array.iteri (fun d v -> t.data.((d * t.z) + lane) <- v) l.pl_stack;
    t.top.(lane) <- l.pl_top

  let capture t =
    {
      Vm_image.pc_cap = t.cap;
      pc_data = Array.copy t.data;
      pc_sp = Array.copy t.sp;
      pc_top = Array.copy t.top;
    }

  let restore t (img : Vm_image.pc) =
    if Array.length img.Vm_image.pc_sp <> t.z then
      invalid_arg "Pc_stack.restore: batch size mismatch";
    if Array.length img.Vm_image.pc_data <> img.Vm_image.pc_cap * t.z then
      invalid_arg "Pc_stack.restore: pc data length disagrees with capacity";
    t.cap <- img.Vm_image.pc_cap;
    t.data <- Array.copy img.Vm_image.pc_data;
    Array.blit img.Vm_image.pc_sp 0 t.sp 0 t.z;
    Array.blit img.Vm_image.pc_top 0 t.top 0 t.z
end

type storage = Reg of Tensor.t ref | Msk of Tensor.t ref | Stk of Stacked.t

(* The leading dimension of the first input; [Lanes.load_batch] checks
   the rest against it. *)
let batch_size batch =
  match batch with
  | [] -> invalid_arg "Pc_vm: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Pc_vm: inputs must carry a leading batch dimension";
    (Tensor.shape first).(0)

(* The steppable lane pool: all of the program-counter VM's state, with
   per-lane occupancy so a serving layer can retire a halted lane and
   refill it with a new request mid-run. [run] below is the classic
   whole-batch entry point, now a thin driver over this engine. *)
module Lanes = struct
  type t = {
    config : config;
    reg : Prim.registry;
    p : Stack_ir.program;
    z : int;
    halt : int;
    nb : int;
    store : (string, storage) Hashtbl.t;
    pc : Pc_stack.t;
    members : int array;     (* per-lane global RNG member identity *)
    occupied : bool array;   (* lane currently carries a request *)
    counts : int array;
    tables : Sched_policy.tables option;  (* for the table-driven policies *)
    mutable last : int;
    mutable steps : int;
    mutable traffic : float;
    mutable charged_ops : (string * float) list;
  }

  let allocate t v elem =
    let s =
      match Stack_ir.class_of t.p v with
      | Var_class.Temp -> Reg (ref (Tensor.zeros (Shape.concat_outer t.z elem)))
      | Var_class.Masked -> Msk (ref (Tensor.zeros (Shape.concat_outer t.z elem)))
      | Var_class.Stacked ->
        Stk (Stacked.create ~z:t.z ~elem ~initial_depth ())
    in
    Hashtbl.replace t.store v s;
    s

  let create ?(config = default_config) reg (p : Stack_ir.program) ~z =
    if z <= 0 then invalid_arg "Pc_vm.Lanes: need at least one lane";
    let halt = Stack_ir.halt p in
    let t =
      {
        config;
        reg;
        p;
        z;
        halt;
        nb = Array.length p.Stack_ir.blocks;
        store = Hashtbl.create 64;
        (* All lanes start idle: pc top parked at [halt]. *)
        pc = Pc_stack.create ~z ~bottom:halt ~start:halt
               ~initial_depth;
        members = Array.init z (fun i -> config.member_base + i);
        occupied = Array.make z false;
        counts = Array.make (Array.length p.Stack_ir.blocks) 0;
        tables =
          (if Sched_policy.needs_tables config.sched then
             Some (Sched_cost.stack_tables ~registry:reg p)
           else None);
        last = -1;
        steps = 0;
        traffic = 0.;
        charged_ops = [];
      }
    in
    Ir_util.Smap.iter (fun v elem -> ignore (allocate t v elem)) p.Stack_ir.shapes;
    t

  let z t = t.z
  let program t = t.p
  let steps t = t.steps
  let occupied t ~lane = t.occupied.(lane)

  let finished t ~lane = t.occupied.(lane) && t.pc.Pc_stack.top.(lane) = t.halt

  let live t ~lane = t.occupied.(lane) && t.pc.Pc_stack.top.(lane) <> t.halt

  let live_count t =
    let n = ref 0 in
    for b = 0 to t.z - 1 do
      if live t ~lane:b then incr n
    done;
    !n

  let free_count t =
    let n = ref 0 in
    for b = 0 to t.z - 1 do
      if not t.occupied.(b) then incr n
    done;
    !n

  let finished_lanes t =
    let acc = ref [] in
    for b = t.z - 1 downto 0 do
      if finished t ~lane:b then acc := b :: !acc
    done;
    !acc

  let read t v =
    match Hashtbl.find_opt t.store v with
    | Some (Reg r) | Some (Msk r) -> !r
    | Some (Stk s) -> Stacked.top s
    | None -> invalid_arg (Printf.sprintf "Pc_vm: read of unwritten variable %s" v)

  (* Restore one lane of every allocated variable to the all-zeros state a
     fresh VM would give it. Variables allocated on demand *after* this
     point start zeroed anyway, so a recycled lane is indistinguishable
     from lane [lane] of a brand-new VM. *)
  let reset_lane_storage t ~lane =
    Hashtbl.iter
      (fun _ s ->
        match s with
        | Reg r | Msk r ->
          let row = Tensor.row_numel !r in
          Array.fill (Tensor.data !r) (lane * row) row 0.
        | Stk s -> Stacked.reset_lane s lane)
      t.store

  let write_lane_row t v ~lane elem_t =
    let s =
      match Hashtbl.find_opt t.store v with
      | Some s -> s
      | None -> allocate t v (Tensor.shape elem_t)
    in
    let dst =
      match s with Reg r | Msk r -> !r | Stk st -> Stacked.top st
    in
    let row = Tensor.row_numel dst in
    if Tensor.numel elem_t <> row then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes: input %s has %d elements per lane, expected %d" v
           (Tensor.numel elem_t) row);
    Array.blit (Tensor.data elem_t) 0 (Tensor.data dst) (lane * row) row

  let load t ~lane ~member ~inputs =
    if lane < 0 || lane >= t.z then invalid_arg "Pc_vm.Lanes.load: lane out of range";
    if live t ~lane then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.load: lane %d is still running" lane);
    if List.length t.p.Stack_ir.inputs <> List.length inputs then
      invalid_arg "Pc_vm: input count mismatch";
    reset_lane_storage t ~lane;
    List.iter2 (fun v e -> write_lane_row t v ~lane e) t.p.Stack_ir.inputs inputs;
    t.members.(lane) <- member;
    t.occupied.(lane) <- true;
    Pc_stack.reset_lane t.pc ~lane ~bottom:t.halt ~start:0

  let load_batch t ~batch =
    if List.length t.p.Stack_ir.inputs <> List.length batch then
      invalid_arg "Pc_vm: input count mismatch";
    List.iter
      (fun inp ->
        if Tensor.rank inp = 0 || (Tensor.shape inp).(0) <> t.z then
          invalid_arg "Pc_vm: inputs must carry the pool's batch dimension")
      batch;
    Hashtbl.iter
      (fun _ s ->
        match s with
        | Reg r | Msk r -> Array.fill (Tensor.data !r) 0 (Tensor.numel !r) 0.
        | Stk s -> Stacked.reset s)
      t.store;
    List.iter2
      (fun v inp ->
        let s =
          match Hashtbl.find_opt t.store v with
          | Some s -> s
          | None -> allocate t v (Vm_util.elem_shape_of_batched inp)
        in
        let dst = match s with Reg r | Msk r -> !r | Stk st -> Stacked.top st in
        if Tensor.numel inp <> Tensor.numel dst then
          invalid_arg (Printf.sprintf "Pc_vm.Lanes: input %s has the wrong element shape" v);
        Array.blit (Tensor.data inp) 0 (Tensor.data dst) 0 (Tensor.numel inp))
      t.p.Stack_ir.inputs batch;
    (* The pc stack's capacity is part of the image: start it afresh. *)
    let cap = initial_depth in
    t.pc.Pc_stack.cap <- cap;
    t.pc.Pc_stack.data <- Array.make (cap * t.z) 0;
    for lane = 0 to t.z - 1 do
      t.members.(lane) <- t.config.member_base + lane;
      Pc_stack.reset_lane t.pc ~lane ~bottom:t.halt ~start:0
    done;
    Array.fill t.occupied 0 t.z true;
    t.steps <- 0;
    t.last <- -1

  let lane_outputs t ~lane =
    List.map (fun v -> Tensor.copy (Tensor.slice_row (read t v) lane)) t.p.Stack_ir.outputs

  let retire t ~lane =
    if not (finished t ~lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.retire: lane %d has not halted" lane);
    let outputs = lane_outputs t ~lane in
    t.occupied.(lane) <- false;
    outputs

  let member t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.member: lane out of range";
    t.members.(lane)

  (* ---- The lane-migration seam (DESIGN.md S20). ----

     A lane's complete execution state is its member identity, its pc
     column and its row of every allocated variable (for stacked
     variables: the saved frames plus the cached top). Batched
     primitives are row-wise and the RNG keys on the member identity
     carried here — never on the lane index — so exporting this record
     and importing it into any free lane of any pool running the same
     program continues the member's trajectory bitwise-exactly. *)

  type var_lane =
    | Lane_reg of Shape.t * float array
    | Lane_msk of Shape.t * float array
    | Lane_stk of Stacked.lane

  type lane_state = {
    ls_member : int;
    ls_pc : Pc_stack.lane;
    ls_vars : (string * var_lane) list;  (* sorted by name *)
  }

  let export_lane t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.export_lane: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.export_lane: lane %d is idle" lane);
    let row_of r =
      let row = Tensor.row_numel !r in
      (Vm_util.elem_shape_of_batched !r, Array.sub (Tensor.data !r) (lane * row) row)
    in
    let vars =
      Hashtbl.fold
        (fun v s acc ->
          let vl =
            match s with
            | Reg r -> let e, d = row_of r in Lane_reg (e, d)
            | Msk r -> let e, d = row_of r in Lane_msk (e, d)
            | Stk s -> Lane_stk (Stacked.capture_lane s lane)
          in
          (v, vl) :: acc)
        t.store []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      ls_member = t.members.(lane);
      ls_pc = Pc_stack.capture_lane t.pc ~lane;
      ls_vars = vars;
    }

  let evict t ~lane =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.evict: lane out of range";
    if not t.occupied.(lane) then
      invalid_arg (Printf.sprintf "Pc_vm.Lanes.evict: lane %d is idle" lane);
    t.occupied.(lane) <- false;
    (* Park the pc at halt, as create does for idle lanes. *)
    Pc_stack.reset_lane t.pc ~lane ~bottom:t.halt ~start:t.halt

  let import_lane t ~lane st =
    if lane < 0 || lane >= t.z then
      invalid_arg "Pc_vm.Lanes.import_lane: lane out of range";
    if t.occupied.(lane) then
      invalid_arg
        (Printf.sprintf "Pc_vm.Lanes.import_lane: lane %d is occupied" lane);
    (* Variables the source pool never allocated are implicitly zero for
       this member; resetting first makes the destination agree. *)
    reset_lane_storage t ~lane;
    List.iter
      (fun (v, vl) ->
        let class_err () =
          invalid_arg
            (Printf.sprintf
               "Pc_vm.Lanes.import_lane: variable %s changes storage class" v)
        in
        let lookup elem =
          match Hashtbl.find_opt t.store v with
          | Some s -> s
          | None -> allocate t v elem
        in
        match vl with
        | Lane_reg (elem, data) | Lane_msk (elem, data) -> (
          match lookup elem with
          | Reg r | Msk r ->
            let row = Tensor.row_numel !r in
            if Array.length data <> row then
              invalid_arg
                (Printf.sprintf
                   "Pc_vm.Lanes.import_lane: variable %s row width mismatch" v);
            Array.blit data 0 (Tensor.data !r) (lane * row) row
          | Stk _ -> class_err ())
        | Lane_stk l -> (
          match lookup l.Stacked.l_elem with
          | Stk s -> Stacked.restore_lane s lane l
          | Reg _ | Msk _ -> class_err ()))
      st.ls_vars;
    Pc_stack.restore_lane t.pc ~lane st.ls_pc;
    t.members.(lane) <- st.ls_member;
    t.occupied.(lane) <- true

  let lane_state_bytes st =
    let var_elems =
      List.fold_left
        (fun acc (_, vl) ->
          acc
          + (match vl with
            | Lane_reg (_, d) | Lane_msk (_, d) -> Array.length d
            | Lane_stk l ->
              Array.length l.Stacked.l_frames + Array.length l.Stacked.l_top))
        0 st.ls_vars
    in
    (* pc entries price like elements: sp saved slots plus the top. *)
    Vm_util.bytes_per_elem *. float_of_int (var_elems + st.ls_pc.Pc_stack.pl_sp + 1)

  let migrate t ~src ~dst =
    if src = dst then invalid_arg "Pc_vm.Lanes.migrate: src and dst coincide";
    let st = export_lane t ~lane:src in
    evict t ~lane:src;
    import_lane t ~lane:dst st;
    lane_state_bytes st

  let outputs t = List.map (fun v -> Tensor.copy (read t v)) t.p.Stack_ir.outputs

  type image = {
    li_z : int;
    li_steps : int;
    li_last : int;
    li_members : int array;
    li_occupied : bool array;
    li_pc : Vm_image.pc;
    li_store : Vm_image.store;
  }

  let capture t =
    let store =
      Hashtbl.fold
        (fun v s acc ->
          let img =
            match s with
            | Reg r ->
              Vm_image.Reg (Array.copy (Tensor.shape !r), Array.copy (Tensor.data !r))
            | Msk r ->
              Vm_image.Msk (Array.copy (Tensor.shape !r), Array.copy (Tensor.data !r))
            | Stk s -> Vm_image.Stk (Stacked.capture s)
          in
          (v, img) :: acc)
        t.store []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      li_z = t.z;
      li_steps = t.steps;
      li_last = t.last;
      li_members = Array.copy t.members;
      li_occupied = Array.copy t.occupied;
      li_pc = Pc_stack.capture t.pc;
      li_store = store;
    }

  let restore t img =
    if img.li_z <> t.z then invalid_arg "Pc_vm.Lanes.restore: batch size mismatch";
    t.steps <- img.li_steps;
    t.last <- img.li_last;
    Array.blit img.li_members 0 t.members 0 t.z;
    Array.blit img.li_occupied 0 t.occupied 0 t.z;
    Pc_stack.restore t.pc img.li_pc;
    (* Rebuild the store from the image alone: a variable first allocated
       after the capture must disappear, or its stale masked rows would
       leak into lanes the image knows nothing about. A variable the image
       shares with the pool keeps its storage cell (only the contents
       change), so blocks precompiled over the pool stay valid. *)
    let old = Hashtbl.copy t.store in
    Hashtbl.reset t.store;
    List.iter
      (fun (v, s) ->
        let cell =
          match (s, Hashtbl.find_opt old v) with
          | Vm_image.Reg (shape, data), Some (Reg r as cell)
          | Vm_image.Msk (shape, data), Some (Msk r as cell) ->
            r := Tensor.of_array shape data;
            cell
          | Vm_image.Reg (shape, data), _ -> Reg (ref (Tensor.of_array shape data))
          | Vm_image.Msk (shape, data), _ -> Msk (ref (Tensor.of_array shape data))
          | Vm_image.Stk simg, Some (Stk s)
            when Shape.equal (Stacked.elem s) simg.Stacked.i_elem ->
            Stacked.restore s simg;
            Stk s
          | Vm_image.Stk simg, _ ->
            let s =
              Stacked.create ~z:t.z ~elem:simg.Stacked.i_elem
                ~initial_depth ()
            in
            Stacked.restore s simg;
            Stk s
        in
        Hashtbl.replace t.store v cell)
      img.li_store

  let check_shape v cur_shape out =
    if not (Shape.equal cur_shape (Tensor.shape out)) then
      invalid_arg
        (Printf.sprintf "Pc_vm: variable %s changes shape from %s to %s" v
           (Shape.to_string cur_shape)
           (Shape.to_string (Tensor.shape out)))

  let write t v ~mask out =
    let row = Tensor.row_numel out in
    let s =
      match Hashtbl.find_opt t.store v with
      | Some s -> s
      | None -> allocate t v (Vm_util.elem_shape_of_batched out)
    in
    match s with
    | Reg r ->
      check_shape v (Tensor.shape !r) out;
      (* Copy, never alias: [out] may be another variable's storage (a
         register move), and that storage is mutated in place by later
         masked writes. *)
      Array.blit (Tensor.data out) 0 (Tensor.data !r) 0 (Tensor.numel out);
      t.traffic <- t.traffic +. (Vm_util.bytes_per_elem *. float_of_int (t.z * row))
    | Msk r ->
      check_shape v (Tensor.shape !r) out;
      Tensor.blit_rows_masked ~mask ~src:out ~dst:!r;
      t.traffic <- t.traffic +. Vm_util.masked_write_bytes ~lanes:t.z ~row
    | Stk s ->
      check_shape v (Tensor.shape (Stacked.top s)) out;
      Stacked.write_top_masked s ~mask out;
      t.traffic <- t.traffic +. Vm_util.masked_write_bytes ~lanes:t.z ~row;
      if t.config.naive_stack_writes then
        (* Pre-O5 cost: the write would be a pop followed by a push. *)
        t.traffic <- t.traffic +. (2. *. Vm_util.stack_move_bytes ~lanes:t.z ~row)

  let read_charged t v =
    let x = read t v in
    (match Hashtbl.find_opt t.store v with
    | Some (Stk _) when not t.config.top_cache ->
      (* Without the top cache every stacked read is a gather. *)
      t.traffic <-
        t.traffic +. Vm_util.stack_move_bytes ~lanes:t.z ~row:(Tensor.row_numel x)
    | Some _ | None -> ());
    x

  (* Execute one scheduled basic block over the currently live lanes.
     Returns [false] (and does nothing) when no lane is runnable. *)
  let step t =
    let z = t.z and halt = t.halt and pc = t.pc and config = t.config in
    Array.fill t.counts 0 t.nb 0;
    let live = ref 0 in
    for b = 0 to z - 1 do
      if pc.Pc_stack.top.(b) < halt then begin
        t.counts.(pc.Pc_stack.top.(b)) <- t.counts.(pc.Pc_stack.top.(b)) + 1;
        incr live
      end
    done;
    match Sched_policy.pick ?tables:t.tables config.sched ~last:t.last ~counts:t.counts with
    | None -> false
    | Some i ->
      t.steps <- t.steps + 1;
      if t.steps > config.max_steps then raise Step_limit_exceeded;
      (* The superstep event fires before the block executes, so a sink
         that raises (an injected fault) aborts the superstep whole —
         never a half-applied block. The occupancy event follows under the
         same rule; it doubles as the profiler's attribution context for
         the engine spans this block is about to charge, and is the event
         the instrument counts the block from (no parallel count). *)
      Vm_util.superstep config.sink config.instrument ~step:t.steps ~block:i
        ~active:t.counts.(i) ~live:!live ~total:z;
      t.last <- i;
      let mask = Array.init z (fun b -> pc.Pc_stack.top.(b) = i) in
      let members = Vm_util.indices_of_mask mask in
      let n_active = Array.length members in
      t.traffic <- 0.;
      t.charged_ops <- [];
      let record_prim name =
        Option.iter
          (fun ins -> Instrument.record_prim ins ~name ~useful:n_active ~issued:z)
          config.instrument
      in
      let block = t.p.Stack_ir.blocks.(i) in
      List.iter
        (fun (op : Stack_ir.op) ->
          match op with
          | Stack_ir.Sprim { dst; prim; args } ->
            let impl = Prim.find_exn t.reg prim in
            let arg_tensors = List.map (read_charged t) args in
            let out = impl.Prim.batched ~members:t.members arg_tensors in
            let elem_shapes = List.map Vm_util.elem_shape_of_batched arg_tensors in
            t.charged_ops <-
              (prim, impl.Prim.flops elem_shapes *. float_of_int z) :: t.charged_ops;
            record_prim prim;
            write t dst ~mask out
          | Stack_ir.Sconst { dst; value } ->
            let out = Tensor.broadcast_rows value z in
            t.charged_ops <-
              ("const", float_of_int (Tensor.numel value * z)) :: t.charged_ops;
            write t dst ~mask out
          | Stack_ir.Smov { dst; src } ->
            let out = read_charged t src in
            t.charged_ops <-
              ("mov", float_of_int (Tensor.row_numel out * z)) :: t.charged_ops;
            write t dst ~mask out
          | Stack_ir.Spush v -> (
            match Hashtbl.find_opt t.store v with
            | Some (Stk s) ->
              Stacked.push s ~mask;
              t.traffic <-
                t.traffic +. Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s);
              Option.iter
                (fun ins ->
                  Instrument.record_push ins ~lanes:n_active;
                  Instrument.record_depth ins (Stacked.max_depth s))
                config.instrument
            | Some (Reg _ | Msk _) ->
              invalid_arg (Printf.sprintf "Pc_vm: push of non-stacked variable %s" v)
            | None ->
              invalid_arg (Printf.sprintf "Pc_vm: push of unwritten variable %s" v))
          | Stack_ir.Spop v -> (
            match Hashtbl.find_opt t.store v with
            | Some (Stk s) ->
              Stacked.pop s ~mask;
              t.traffic <-
                t.traffic +. Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s);
              Option.iter
                (fun ins -> Instrument.record_pop ins ~lanes:n_active)
                config.instrument
            | Some (Reg _ | Msk _) ->
              invalid_arg (Printf.sprintf "Pc_vm: pop of non-stacked variable %s" v)
            | None ->
              invalid_arg (Printf.sprintf "Pc_vm: pop of unwritten variable %s" v)))
        block.Stack_ir.ops;
      (* Terminator. *)
      let control_ops = ref 2 in
      (match block.Stack_ir.term with
      | Stack_ir.Sjump j -> Pc_stack.set_top_masked pc ~mask j
      | Stack_ir.Sbranch { cond; if_true; if_false } ->
        incr control_ops;
        let data = Tensor.data (read_charged t cond) in
        Array.iter
          (fun b ->
            pc.Pc_stack.top.(b) <- (if data.(b) <> 0. then if_true else if_false))
          members
      | Stack_ir.Spushjump { ret; entry } ->
        Pc_stack.set_top_masked pc ~mask ret;
        Pc_stack.push pc ~mask;
        Pc_stack.set_top_masked pc ~mask entry;
        t.traffic <- t.traffic +. Vm_util.stack_move_bytes ~lanes:z ~row:1;
        Option.iter
          (fun ins -> Instrument.record_depth ins (Pc_stack.max_depth pc))
          config.instrument
      | Stack_ir.Spushbranch { ret; cond; if_true; if_false } ->
        incr control_ops;
        let data = Tensor.data (read_charged t cond) in
        Pc_stack.set_top_masked pc ~mask ret;
        Pc_stack.push pc ~mask;
        Array.iter
          (fun b ->
            pc.Pc_stack.top.(b) <- (if data.(b) <> 0. then if_true else if_false))
          members;
        t.traffic <- t.traffic +. Vm_util.stack_move_bytes ~lanes:z ~row:1;
        Option.iter
          (fun ins -> Instrument.record_depth ins (Pc_stack.max_depth pc))
          config.instrument
      | Stack_ir.Sreturn ->
        Pc_stack.pop pc ~mask;
        t.traffic <- t.traffic +. Vm_util.stack_move_bytes ~lanes:z ~row:1);
      Option.iter
        (fun eng ->
          Engine.charge_block eng ~ops:(List.rev t.charged_ops)
            ~control_ops:!control_ops ~traffic_bytes:t.traffic)
        config.engine;
      true

  (* ---- Precompiled blocks (the Pc_jit executor) ----

     [step] with the interpretation done once, ahead of time: every
     variable's storage cell is resolved, every primitive is looked up
     and closed over those cells, and every block's cost-model charges
     are constants. The closures read the cells on each call and
     [restore] keeps the cells, so they survive checkpoint restores. *)

  type block_exec = {
    ops : (unit -> unit) array;
    static_ops : (string * float) list;
    control_ops : int;
    static_traffic : float;
    term : unit -> unit;
  }

  type precompiled = {
    pool : t;
    blocks : block_exec array;
    all_tables : Sched_policy.tables;  (* the policy is chosen per step *)
    mask : bool array;
    active : int array ref;  (* lanes executing the current block *)
    ins : Instrument.t option ref;  (* the current step's instrument *)
  }

  let precompile t =
    if (not t.config.top_cache) || t.config.naive_stack_writes then
      invalid_arg "Pc_vm.Lanes.precompile: the cost ablations are interpreter-only";
    let z = t.z and pc = t.pc in
    let mask = Array.make z false and active = ref [||] and ins = ref None in
    let shape_of v =
      match Ir_util.Smap.find_opt v t.p.Stack_ir.shapes with
      | Some s -> s
      | None ->
        invalid_arg
          (Printf.sprintf
             "Pc_vm.Lanes.precompile: no inferred shape for %s — compile the program \
              with input_shapes"
             v)
    in
    List.iter (fun v -> ignore (shape_of v)) (Stack_ir.all_vars t.p);
    let storage_of v =
      match Hashtbl.find_opt t.store v with
      | Some s -> s
      | None -> allocate t v (shape_of v)
    in
    let reader v =
      match storage_of v with
      | Reg r | Msk r -> fun () -> !r
      | Stk s -> fun () -> Stacked.top s
    in
    (* A writer returns the bookkeeping bytes its class moves per write. *)
    let writer v =
      let row = Shape.numel (shape_of v) in
      match storage_of v with
      | Reg r ->
        ( (fun out -> Array.blit (Tensor.data out) 0 (Tensor.data !r) 0 (Tensor.numel out)),
          Vm_util.bytes_per_elem *. float_of_int (z * row) )
      | Msk r ->
        ( (fun out -> Tensor.blit_rows_masked ~mask ~src:out ~dst:!r),
          Vm_util.masked_write_bytes ~lanes:z ~row )
      | Stk s ->
        ( (fun out -> Stacked.write_top_masked s ~mask out),
          Vm_util.masked_write_bytes ~lanes:z ~row )
    in
    let stacked v what =
      match storage_of v with
      | Stk s -> s
      | Reg _ | Msk _ ->
        invalid_arg (Printf.sprintf "Pc_vm: %s of non-stacked variable %s" what v)
    in
    let push_ret ret b =
      if pc.Pc_stack.sp.(b) >= pc.Pc_stack.cap then Pc_stack.grow pc;
      pc.Pc_stack.data.((pc.Pc_stack.sp.(b) * z) + b) <- ret;
      pc.Pc_stack.sp.(b) <- pc.Pc_stack.sp.(b) + 1
    in
    let record_pc_depth () =
      match !ins with
      | Some i -> Instrument.record_depth i (Pc_stack.max_depth pc)
      | None -> ()
    in
    let compile_block (b : Stack_ir.block) =
      let ops = ref [] and static_ops = ref [] and traffic = ref 0. in
      let emit op charge bytes =
        ops := op :: !ops;
        Option.iter (fun c -> static_ops := c :: !static_ops) charge;
        traffic := !traffic +. bytes
      in
      List.iter
        (fun (op : Stack_ir.op) ->
          match op with
          | Stack_ir.Sprim { dst; prim; args } ->
            let impl = Prim.find_exn t.reg prim in
            let readers = List.map reader args in
            let write, bytes = writer dst in
            let batched = impl.Prim.batched and members = t.members in
            emit
              (fun () ->
                let out = batched ~members (List.map (fun f -> f ()) readers) in
                (match !ins with
                | Some i ->
                  Instrument.record_prim i ~name:prim ~useful:(Array.length !active)
                    ~issued:z
                | None -> ());
                write out)
              (Some (prim, impl.Prim.flops (List.map shape_of args) *. float_of_int z))
              bytes
          | Stack_ir.Sconst { dst; value } ->
            (* The broadcast constant is computed once, here. *)
            let const = Tensor.broadcast_rows value z in
            let write, bytes = writer dst in
            emit
              (fun () -> write const)
              (Some ("const", float_of_int (Tensor.numel const)))
              bytes
          | Stack_ir.Smov { dst; src } ->
            let read = reader src in
            let write, bytes = writer dst in
            emit
              (fun () -> write (read ()))
              (Some ("mov", float_of_int (z * Shape.numel (shape_of src))))
              bytes
          | Stack_ir.Spush v ->
            let s = stacked v "push" in
            emit
              (fun () ->
                Stacked.push s ~mask;
                match !ins with
                | Some i ->
                  Instrument.record_push i ~lanes:(Array.length !active);
                  Instrument.record_depth i (Stacked.max_depth s)
                | None -> ())
              None
              (Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s))
          | Stack_ir.Spop v ->
            let s = stacked v "pop" in
            emit
              (fun () ->
                Stacked.pop s ~mask;
                match !ins with
                | Some i -> Instrument.record_pop i ~lanes:(Array.length !active)
                | None -> ())
              None
              (Vm_util.stack_move_bytes ~lanes:z ~row:(Stacked.row s)))
        b.Stack_ir.ops;
      let pc_move = Vm_util.stack_move_bytes ~lanes:z ~row:1 in
      let control_ops, term, term_traffic =
        match b.Stack_ir.term with
        | Stack_ir.Sjump j ->
          (2, (fun () -> Array.iter (fun b -> pc.Pc_stack.top.(b) <- j) !active), 0.)
        | Stack_ir.Sbranch { cond; if_true; if_false } ->
          let read = reader cond in
          ( 3,
            (fun () ->
              let data = Tensor.data (read ()) in
              Array.iter
                (fun b ->
                  pc.Pc_stack.top.(b) <- (if data.(b) <> 0. then if_true else if_false))
                !active),
            0. )
        | Stack_ir.Spushjump { ret; entry } ->
          ( 2,
            (fun () ->
              Array.iter
                (fun b ->
                  push_ret ret b;
                  pc.Pc_stack.top.(b) <- entry)
                !active;
              record_pc_depth ()),
            pc_move )
        | Stack_ir.Spushbranch { ret; cond; if_true; if_false } ->
          let read = reader cond in
          ( 3,
            (fun () ->
              let data = Tensor.data (read ()) in
              Array.iter
                (fun b ->
                  push_ret ret b;
                  pc.Pc_stack.top.(b) <- (if data.(b) <> 0. then if_true else if_false))
                !active;
              record_pc_depth ()),
            pc_move )
        | Stack_ir.Sreturn ->
          ( 2,
            (fun () ->
              Array.iter
                (fun b ->
                  pc.Pc_stack.sp.(b) <- pc.Pc_stack.sp.(b) - 1;
                  pc.Pc_stack.top.(b) <- pc.Pc_stack.data.((pc.Pc_stack.sp.(b) * z) + b))
                !active),
            pc_move )
      in
      {
        ops = Array.of_list (List.rev !ops);
        static_ops = List.rev !static_ops;
        control_ops;
        static_traffic = !traffic +. term_traffic;
        term;
      }
    in
    {
      pool = t;
      blocks = Array.map compile_block t.p.Stack_ir.blocks;
      (* Static per program; computing them here keeps the per-step pick
         allocation-free under every policy. *)
      all_tables =
        (match t.tables with
        | Some tables -> tables
        | None -> Sched_cost.stack_tables ~registry:t.reg t.p);
      mask;
      active;
      ins;
    }

  let precompiled_pool c = c.pool

  let step_precompiled ?(sched = Sched_policy.Earliest) ?engine ?instrument ?sink
      ?(max_steps = 100_000_000) c =
    let t = c.pool in
    let z = t.z and top = t.pc.Pc_stack.top in
    Array.fill t.counts 0 t.nb 0;
    let live = ref 0 in
    for b = 0 to z - 1 do
      if top.(b) < t.halt then begin
        t.counts.(top.(b)) <- t.counts.(top.(b)) + 1;
        incr live
      end
    done;
    match Sched_policy.pick ~tables:c.all_tables sched ~last:t.last ~counts:t.counts with
    | None -> false
    | Some i ->
      t.steps <- t.steps + 1;
      if t.steps > max_steps then raise Step_limit_exceeded;
      (* As in [step]: the events fire before the block runs. *)
      Vm_util.superstep sink instrument ~step:t.steps ~block:i ~active:t.counts.(i)
        ~live:!live ~total:z;
      t.last <- i;
      for b = 0 to z - 1 do
        c.mask.(b) <- top.(b) = i
      done;
      c.active := Vm_util.indices_of_mask c.mask;
      c.ins := instrument;
      let blk = c.blocks.(i) in
      Array.iter (fun f -> f ()) blk.ops;
      blk.term ();
      Option.iter
        (fun eng ->
          Engine.charge_block eng ~ops:blk.static_ops ~control_ops:blk.control_ops
            ~traffic_bytes:blk.static_traffic)
        engine;
      true
end

let run ?(config = default_config) reg (p : Stack_ir.program) ~batch =
  let lanes = Lanes.create ~config reg p ~z:(batch_size batch) in
  Lanes.load_batch lanes ~batch;
  while Lanes.step lanes do
    ()
  done;
  Lanes.outputs lanes
