(* The control corpus: the seven example programs plus a recursive fib,
   each with a seeded input generator. Every range is chosen so trip
   counts or recursion depths differ across batch members (the divergence
   the autobatchers exist for), and sized so each program's batch costs
   about the same wall time on [Pc_vm] at z=1024: no program dominates
   the run, and each carries its own weight in the geometric mean. *)

type entry = {
  name : string;
  program : Lang.program;
  n_inputs : int;
  gen : Splitmix.Stream.t -> float array;  (** one member's arguments *)
}

let programs_dir = "examples/programs"

let fib_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

let int_in s lo hi = float_of_int (lo + Splitmix.Stream.int_below s (hi - lo + 1))
let uniform_in s lo hi = lo +. ((hi -. lo) *. Splitmix.Stream.uniform s)

(* Why each range:
   - ackermann: m in 0..2 mixes constant-depth (m=0), linear (m=1) and
     quadratic (m=2) recursion; n up to 8 keeps ack(2,n) near the other
     programs' cost. m=3 would dominate.
   - binomial: n up to 8 with any k gives call trees from 1 node to
     about 2*C(8,4); bushy, unbalanced recursion. The batch waits for its
     largest tree, so n=11 already costs six times the other programs.
   - collatz: n up to 2000 gives stopping times 0..181 with a long tail.
   - gcd: operands up to 10^6 give 1..30 Euclid steps, each a recursive
     call, so stack depths diverge. Larger operands would lose exactness
     in [floor(a / b)]; gcd stays the cheapest program.
   - mandelbrot: points drawn over the whole view [-2,0.5]x[-1.25,1.25]
     mix 1-step escapes with 100-step interior points.
   - newton_sqrt: x log-uniform over 10^-2..10^6 gives 3..25 iterations
     at tol 1e-6 (rounding error stays below tol over this range, so
     every member converges).
   - primes: n up to 90; the nested trial-division loop makes cost grow
     like n^1.5, with early exits for composites.
   - fib: n up to 11 gives 1..287 calls per member, the classic
     divergent-recursion-depth example. *)
let generators =
  [
    ("ackermann", 2, fun s -> [| int_in s 0 2; int_in s 0 8 |]);
    ("binomial", 2, fun s ->
        let n = int_in s 1 8 in
        [| n; int_in s 0 (int_of_float n) |]);
    ("collatz", 1, fun s -> [| int_in s 1 2000 |]);
    ("gcd", 2, fun s -> [| int_in s 1 1_000_000; int_in s 1 1_000_000 |]);
    ("mandelbrot", 2, fun s -> [| uniform_in s (-2.) 0.5; uniform_in s (-1.25) 1.25 |]);
    ("newton_sqrt", 2, fun s -> [| 10. ** uniform_in s (-2.) 6.; 1e-6 |]);
    ("primes", 1, fun s -> [| int_in s 2 90 |]);
    ("fib", 1, fun s -> [| int_in s 0 11 |]);
  ]

let load_program name =
  if name = "fib" then fib_program
  else
    let path = Filename.concat programs_dir (name ^ ".ab") in
    match Parser.parse_file path with
    | Ok p -> p
    | Error e -> failwith (Printf.sprintf "%s: %s" path (Parser.string_of_error e))

(* Parse every program. Raises when the example programs are missing. *)
let load () =
  List.map
    (fun (name, n_inputs, gen) -> { name; program = load_program name; n_inputs; gen })
    generators

(* Batched inputs for [z] members: one tensor of shape [z] per argument.
   Each program draws from its own stream, derived from the seed and the
   program's position, so adding a program never shifts another's
   inputs. *)
let inputs ~seed ~z i entry =
  let s = Splitmix.Stream.create (Splitmix.hash2 (Int64.of_int seed) (Int64.of_int i)) in
  let rows = Array.init z (fun _ -> entry.gen s) in
  List.init entry.n_inputs (fun a -> Tensor.init [| z |] (fun idx -> rows.(idx.(0)).(a)))
