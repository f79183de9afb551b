type t = { shape : Shape.t; data : float array }

(* Construction *)

let create shape data =
  Shape.validate shape;
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.create: shape %s wants %d elements, got %d"
         (Shape.to_string shape) (Shape.numel shape) (Array.length data));
  { shape; data }

let zeros shape = create shape (Array.make (Shape.numel shape) 0.)
let ones shape = create shape (Array.make (Shape.numel shape) 1.)
let full shape v = create shape (Array.make (Shape.numel shape) v)
let scalar v = create Shape.scalar [| v |]
let of_array shape data = create shape (Array.copy data)
let of_list xs = of_array [| List.length xs |] (Array.of_list xs)

let init shape f =
  let n = Shape.numel shape in
  let data = Array.make n 0. in
  for off = 0 to n - 1 do
    data.(off) <- f (Shape.unravel shape off)
  done;
  { shape; data }

let arange n = create [| n |] (Array.init n float_of_int)

let eye n =
  init [| n; n |] (fun idx -> if idx.(0) = idx.(1) then 1. else 0.)

(* Inspection *)

let shape t = t.shape
let rank t = Shape.rank t.shape
let numel t = Array.length t.data
let data t = t.data
let get t idx = t.data.(Shape.ravel t.shape idx)
let set t idx v = t.data.(Shape.ravel t.shape idx) <- v

let item t =
  if numel t <> 1 then
    invalid_arg
      (Printf.sprintf "Tensor.item: tensor of shape %s has %d elements"
         (Shape.to_string t.shape) (numel t));
  t.data.(0)

let copy t = { shape = t.shape; data = Array.copy t.data }

let reshape t shape =
  Shape.validate shape;
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: cannot view %s as %s"
         (Shape.to_string t.shape) (Shape.to_string shape));
  { shape; data = t.data }

let to_flat_list t = Array.to_list t.data

(* Elementwise *)

let map f t = { shape = t.shape; data = Array.map f t.data }

(* Offset of multi-index [idx] (of the broadcast result shape) within an
   operand of shape [s]: size-1 and missing leading dimensions contribute
   nothing. *)
let broadcast_offset result_shape s idx =
  let r = Array.length result_shape and rs = Array.length s in
  let off = ref 0 in
  for i = 0 to rs - 1 do
    let d = s.(i) in
    let coord = if d = 1 then 0 else idx.(i + (r - rs)) in
    off := (!off * d) + coord
  done;
  !off

let map2 f a b =
  if Shape.equal a.shape b.shape then
    (* Fast path: aligned buffers. *)
    { shape = a.shape;
      data = Array.init (numel a) (fun i -> f a.data.(i) b.data.(i)) }
  else if Array.length b.data = 1 then
    { shape = a.shape; data = Array.map (fun x -> f x b.data.(0)) a.data }
  else if Array.length a.data = 1 then
    { shape = b.shape; data = Array.map (fun y -> f a.data.(0) y) b.data }
  else begin
    let out_shape = Shape.broadcast2 a.shape b.shape in
    let n = Shape.numel out_shape in
    let out = Array.make n 0. in
    for off = 0 to n - 1 do
      let idx = Shape.unravel out_shape off in
      let x = a.data.(broadcast_offset out_shape a.shape idx) in
      let y = b.data.(broadcast_offset out_shape b.shape idx) in
      out.(off) <- f x y
    done;
    { shape = out_shape; data = out }
  end

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let div = map2 ( /. )
let neg = map (fun x -> -.x)
let abs = map Float.abs
let sign = map (fun x -> if x > 0. then 1. else if x < 0. then -1. else 0.)
let exp = map Stdlib.exp
let log = map Stdlib.log
let sqrt = map Stdlib.sqrt
let square = map (fun x -> x *. x)

let sigmoid_f x =
  if x >= 0. then 1. /. (1. +. Stdlib.exp (-.x))
  else
    let e = Stdlib.exp x in
    e /. (1. +. e)

let sigmoid = map sigmoid_f
let tanh = map Stdlib.tanh
let log1p = map Stdlib.log1p

let log_sigmoid_f x =
  (* log(1/(1+e^-x)) = -log1p(e^-x), stable for both signs. *)
  if x >= 0. then -.Stdlib.log1p (Stdlib.exp (-.x))
  else x -. Stdlib.log1p (Stdlib.exp x)

let log_sigmoid = map log_sigmoid_f

let logaddexp_f a b =
  (* Stable log(e^a + e^b); handles -inf identities exactly. *)
  if a = Float.neg_infinity then b
  else if b = Float.neg_infinity then a
  else begin
    let hi = Float.max a b and lo = Float.min a b in
    hi +. Stdlib.log1p (Stdlib.exp (lo -. hi))
  end

let add_scalar t v = map (fun x -> x +. v) t
let mul_scalar t v = map (fun x -> x *. v) t

(* Comparisons *)

let bool_f b = if b then 1. else 0.
let eq = map2 (fun x y -> bool_f (x = y))
let lt = map2 (fun x y -> bool_f (x < y))
let le = map2 (fun x y -> bool_f (x <= y))
let gt = map2 (fun x y -> bool_f (x > y))
let ge = map2 (fun x y -> bool_f (x >= y))
let logical_and = map2 (fun x y -> bool_f (x <> 0. && y <> 0.))
let logical_not = map (fun x -> bool_f (x = 0.))

let where cond a b =
  let s = Shape.broadcast2 (Shape.broadcast2 cond.shape a.shape) b.shape in
  let n = Shape.numel s in
  let out = Array.make n 0. in
  for off = 0 to n - 1 do
    let idx = Shape.unravel s off in
    let c = cond.data.(broadcast_offset s cond.shape idx) in
    out.(off) <-
      (if c <> 0. then a.data.(broadcast_offset s a.shape idx)
       else b.data.(broadcast_offset s b.shape idx))
  done;
  { shape = s; data = out }

(* Reductions *)

let full_reduce f init t = scalar (Array.fold_left f init t.data)

let axis_reduce f init t axis =
  let r = rank t in
  if axis < 0 || axis >= r then
    invalid_arg (Printf.sprintf "Tensor: reduction axis %d out of range for rank %d" axis r);
  let out_shape = Shape.remove_axis t.shape axis in
  let inner = (Shape.strides t.shape).(axis) in
  let d = t.shape.(axis) in
  let outer = Shape.numel t.shape / (inner * d) in
  let out = Array.make (Shape.numel out_shape) init in
  for o = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      let acc = ref init in
      for k = 0 to d - 1 do
        acc := f !acc t.data.((o * d * inner) + (k * inner) + i)
      done;
      out.((o * inner) + i) <- !acc
    done
  done;
  { shape = out_shape; data = out }

let check_nonempty_axis name t axis =
  if t.shape.(axis) = 0 then
    invalid_arg (Printf.sprintf "Tensor.%s: reduction over empty axis %d" name axis)

let sum ?axis t =
  match axis with
  | None -> full_reduce ( +. ) 0. t
  | Some a -> axis_reduce ( +. ) 0. t a

let mean ?axis t =
  match axis with
  | None -> scalar (Array.fold_left ( +. ) 0. t.data /. float_of_int (numel t))
  | Some a ->
    let s = axis_reduce ( +. ) 0. t a in
    mul_scalar s (1. /. float_of_int t.shape.(a))

let max_reduce ?axis t =
  match axis with
  | None ->
    if numel t = 0 then invalid_arg "Tensor.max_reduce: empty tensor";
    full_reduce Float.max Float.neg_infinity t
  | Some a ->
    check_nonempty_axis "max_reduce" t a;
    axis_reduce Float.max Float.neg_infinity t a

let min_reduce ?axis t =
  match axis with
  | None ->
    if numel t = 0 then invalid_arg "Tensor.min_reduce: empty tensor";
    full_reduce Float.min Float.infinity t
  | Some a ->
    check_nonempty_axis "min_reduce" t a;
    axis_reduce Float.min Float.infinity t a

let sum_last t =
  if rank t = 0 then copy t else sum ~axis:(rank t - 1) t

(* Linear algebra *)

let matmul a b =
  if rank a <> 2 || rank b <> 2 then invalid_arg "Tensor.matmul: rank-2 operands required";
  let n = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and m = b.shape.(1) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: inner dimensions %d and %d differ" k k');
  let out = Array.make (n * m) 0. in
  (* No skip-zero fast path: exact IEEE agreement with the equivalent
     vector accumulation matters more than sparse speedups here (signed
     zeros and NaN payloads must propagate identically). *)
  for i = 0 to n - 1 do
    for l = 0 to k - 1 do
      let x = a.data.((i * k) + l) in
      let bo = l * m and oo = i * m in
      for j = 0 to m - 1 do
        out.(oo + j) <- out.(oo + j) +. (x *. b.data.(bo + j))
      done
    done
  done;
  create [| n; m |] out

let matvec a x =
  if rank a <> 2 || rank x <> 1 then invalid_arg "Tensor.matvec: wants [n;k] and [k]";
  let n = a.shape.(0) and k = a.shape.(1) in
  if x.shape.(0) <> k then
    invalid_arg
      (Printf.sprintf "Tensor.matvec: matrix inner dim %d vs vector %d" k x.shape.(0));
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref 0. in
    for l = 0 to k - 1 do
      acc := !acc +. (a.data.((i * k) + l) *. x.data.(l))
    done;
    out.(i) <- !acc
  done;
  create [| n |] out

let dot a b =
  if rank a <> 1 || rank b <> 1 || a.shape.(0) <> b.shape.(0) then
    invalid_arg "Tensor.dot: rank-1 operands of equal length required";
  let acc = ref 0. in
  for i = 0 to a.shape.(0) - 1 do
    acc := !acc +. (a.data.(i) *. b.data.(i))
  done;
  scalar !acc

let transpose a =
  if rank a <> 2 then invalid_arg "Tensor.transpose: rank-2 operand required";
  let n = a.shape.(0) and m = a.shape.(1) in
  init [| m; n |] (fun idx -> a.data.((idx.(1) * m) + idx.(0)))

let outer a b =
  if rank a <> 1 || rank b <> 1 then invalid_arg "Tensor.outer: rank-1 operands required";
  let n = a.shape.(0) and m = b.shape.(0) in
  init [| n; m |] (fun idx -> a.data.(idx.(0)) *. b.data.(idx.(1)))

(* Row operations *)

let nrows t = if rank t = 0 then 1 else t.shape.(0)
let row_numel t = if rank t = 0 then 1 else Shape.numel (Shape.drop_outer t.shape)

let take_rows t idx =
  if rank t = 0 then invalid_arg "Tensor.take_rows: scalar tensor";
  let rn = row_numel t in
  let z = t.shape.(0) in
  let k = Array.length idx in
  let out = Array.make (k * rn) 0. in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= z then
        invalid_arg (Printf.sprintf "Tensor.take_rows: row %d out of %d" r z);
      Array.blit t.data (r * rn) out (i * rn) rn)
    idx;
  create (Array.append [| k |] (Shape.drop_outer t.shape)) out

let put_rows t idx src =
  if rank t = 0 then invalid_arg "Tensor.put_rows: scalar tensor";
  let rn = row_numel t in
  if row_numel src <> rn || nrows src <> Array.length idx then
    invalid_arg "Tensor.put_rows: source rows do not match index count/shape";
  let out = Array.copy t.data in
  let z = t.shape.(0) in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= z then
        invalid_arg (Printf.sprintf "Tensor.put_rows: row %d out of %d" r z);
      Array.blit src.data (i * rn) out (r * rn) rn)
    idx;
  { shape = t.shape; data = out }

let select_rows mask a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.select_rows: operand shapes differ";
  if nrows a <> Array.length mask then
    invalid_arg "Tensor.select_rows: mask length does not match rows";
  let rn = row_numel a in
  let out = Array.copy b.data in
  Array.iteri
    (fun i m -> if m then Array.blit a.data (i * rn) out (i * rn) rn)
    mask;
  { shape = a.shape; data = out }

let blit_rows_masked ~mask ~src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.blit_rows_masked: shapes differ";
  if nrows dst <> Array.length mask then
    invalid_arg "Tensor.blit_rows_masked: mask length does not match rows";
  let rn = row_numel dst in
  Array.iteri
    (fun i m -> if m then Array.blit src.data (i * rn) dst.data (i * rn) rn)
    mask

let blit_rows_indexed ~idx ~src ~dst =
  let rn = row_numel dst in
  if row_numel src <> rn || nrows src <> Array.length idx then
    invalid_arg "Tensor.blit_rows_indexed: source rows do not match index count/shape";
  let z = nrows dst in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= z then
        invalid_arg (Printf.sprintf "Tensor.blit_rows_indexed: row %d out of %d" r z);
      Array.blit src.data (i * rn) dst.data (r * rn) rn)
    idx

let stack_rows = function
  | [] -> invalid_arg "Tensor.stack_rows: empty list"
  | first :: _ as ts ->
    List.iter
      (fun t ->
        if not (Shape.equal t.shape first.shape) then
          invalid_arg "Tensor.stack_rows: shapes differ")
      ts;
    let rn = numel first in
    let k = List.length ts in
    let out = Array.make (k * rn) 0. in
    List.iteri (fun i t -> Array.blit t.data 0 out (i * rn) rn) ts;
    create (Array.append [| k |] first.shape) out

let concat_rows = function
  | [] -> invalid_arg "Tensor.concat_rows: empty list"
  | first :: _ as ts ->
    if rank first = 0 then invalid_arg "Tensor.concat_rows: scalar operands";
    let inner = Shape.drop_outer first.shape in
    List.iter
      (fun t ->
        if rank t = 0 || not (Shape.equal (Shape.drop_outer t.shape) inner) then
          invalid_arg "Tensor.concat_rows: inner shapes differ")
      ts;
    let total = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
    let out = Array.make (total * Shape.numel inner) 0. in
    let pos = ref 0 in
    List.iter
      (fun t ->
        Array.blit t.data 0 out !pos (numel t);
        pos := !pos + numel t)
      ts;
    create (Array.append [| total |] inner) out

let slice_row t i =
  if rank t = 0 then invalid_arg "Tensor.slice_row: scalar tensor";
  if i < 0 || i >= t.shape.(0) then
    invalid_arg (Printf.sprintf "Tensor.slice_row: row %d out of %d" i t.shape.(0));
  let rn = row_numel t in
  let out = Array.make rn 0. in
  Array.blit t.data (i * rn) out 0 rn;
  create (Shape.drop_outer t.shape) out

let broadcast_rows t z =
  let rn = numel t in
  let out = Array.make (z * rn) 0. in
  for i = 0 to z - 1 do
    Array.blit t.data 0 out (i * rn) rn
  done;
  create (Array.append [| z |] t.shape) out

(* Comparison *)

let float_eq_with_nan x y = x = y || (Float.is_nan x && Float.is_nan y)

let allclose ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Shape.equal a.shape b.shape
  && begin
    let ok = ref true in
    for i = 0 to numel a - 1 do
      let x = a.data.(i) and y = b.data.(i) in
      let close =
        float_eq_with_nan x y
        || Float.abs (x -. y) <= atol +. (rtol *. Float.abs y)
      in
      if not close then ok := false
    done;
    !ok
  end

let equal a b =
  Shape.equal a.shape b.shape
  && begin
    let ok = ref true in
    for i = 0 to numel a - 1 do
      if not (float_eq_with_nan a.data.(i) b.data.(i)) then ok := false
    done;
    !ok
  end

let fold f acc t = Array.fold_left f acc t.data

let pp ppf t =
  let n = numel t in
  let elide = n > 16 in
  let shown = if elide then 16 else n in
  Format.fprintf ppf "@[<hov 2>tensor%s[" (Shape.to_string t.shape);
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf ppf ";@ ";
    Format.fprintf ppf "%g" t.data.(i)
  done;
  if elide then Format.fprintf ppf ";@ ...(%d)" n;
  Format.fprintf ppf "]@]"

let to_string t = Format.asprintf "%a" pp t
