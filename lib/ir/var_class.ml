type t = Temp | Masked | Stacked

let to_string = function
  | Temp -> "temp"
  | Masked -> "masked"
  | Stacked -> "stacked"

let equal (a : t) b = a = b
