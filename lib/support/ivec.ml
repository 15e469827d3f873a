open Bigarray

type t = (int32, int32_elt, c_layout) Array1.t

let fits n = n >= Int32.to_int Int32.min_int && n <= Int32.to_int Int32.max_int

let count_bytes n = Metrics.inc ~by:n "taco_index_bytes_total"

let create n =
  let a = Array1.create int32 c_layout n in
  Array1.fill a 0l;
  count_bytes (4 * n);
  a

let empty : t = Array1.create int32 c_layout 0

let length (a : t) = Array1.dim a

let get (a : t) i = Int32.to_int (Array1.get a i)

let set (a : t) i v = Array1.set a i (Int32.of_int v)

let of_array src =
  let n = Array.length src in
  let a = create n in
  for i = 0 to n - 1 do
    let v = src.(i) in
    if not (fits v) then
      invalid_arg (Printf.sprintf "Ivec.of_array: %d at %d does not fit int32" v i);
    Array1.unsafe_set a i (Int32.of_int v)
  done;
  a

let to_array (a : t) = Array.init (Array1.dim a) (fun i -> Int32.to_int (Array1.unsafe_get a i))

let sub (a : t) off len =
  let b = create len in
  Array1.blit (Array1.sub a off len) b;
  b

let copy a = sub a 0 (length a)
