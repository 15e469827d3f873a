module Int = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 8) () =
    { data = Array.make (max capacity 1) 0; len = 0 }

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Dyn_array.Int.get";
    t.data.(i)

  let set t i v =
    if i < 0 || i >= t.len then invalid_arg "Dyn_array.Int.set";
    t.data.(i) <- v

  let grow t n =
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    if !cap > Array.length t.data then begin
      let data = Array.make !cap 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t v =
    grow t (t.len + 1);
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let ensure t n =
    if n > t.len then begin
      grow t n;
      Array.fill t.data t.len (n - t.len) 0;
      t.len <- n
    end

  let clear t = t.len <- 0

  let to_array t = Array.sub t.data 0 t.len

  let to_ivec t =
    let a = Ivec.create t.len in
    for i = 0 to t.len - 1 do
      Ivec.set a i t.data.(i)
    done;
    a

  let of_array a = { data = Array.copy (if Array.length a = 0 then [| 0 |] else a); len = Array.length a }

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let sort t =
    let a = to_array t in
    Array.sort compare a;
    Array.blit a 0 t.data 0 t.len

  let unsafe_backing t = t.data
end

module Float = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 8) () =
    { data = Array.make (max capacity 1) 0.; len = 0 }

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Dyn_array.Float.get";
    t.data.(i)

  let set t i v =
    if i < 0 || i >= t.len then invalid_arg "Dyn_array.Float.set";
    t.data.(i) <- v

  let grow t n =
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    if !cap > Array.length t.data then begin
      let data = Array.make !cap 0. in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t v =
    grow t (t.len + 1);
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let ensure t n =
    if n > t.len then begin
      grow t n;
      Array.fill t.data t.len (n - t.len) 0.;
      t.len <- n
    end

  let clear t = t.len <- 0

  let to_array t = Array.sub t.data 0 t.len

  let of_array a =
    { data = Array.copy (if Array.length a = 0 then [| 0. |] else a); len = Array.length a }

  let unsafe_backing t = t.data
end
