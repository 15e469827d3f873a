module Imp = Taco_lower.Imp
module Diag = Taco_support.Diag
module Trace = Taco_support.Trace
module Metrics = Taco_support.Metrics
module Fault = Taco_support.Faultinject
module Memo = Taco_support.Memo
module Util = Taco_support.Util
module Ivec = Taco_support.Ivec

type arg =
  | Aint of int
  | Afloat of float
  | Aint_array of Ivec.t
  | Afloat_array of float array

type extent = Len of int | Len_at of string * int

type env = {
  ints : int array;
  floats : float array;
  bools : bool array;
  iarr : Ivec.t array;  (* read with [islot] *)
  farr : float array array;
  barr : bool array array;
  mutable par_domains : int;
      (* Requested chunk count for ParallelFor regions in this run.
         Determines the deterministic chunking, not the number of
         domains actually spawned (that is Budget-limited). *)
  mutable deadline_ns : int64;
      (* Cooperative-cancellation deadline on the Trace.now_ns clock;
         [Int64.max_int] means none. Outermost loops poll it every 256
         iterations and abort with E_EXEC_CANCELLED once it passes. *)
}

type slot = { s_dtype : Imp.dtype; s_array : bool; s_index : int }

type run_stats = {
  iterations : int;
  scalar_ops : int;
  allocs : int;
  alloc_elems : int;
  zero_bytes : int;
  reallocs : int;
  sorts : int;
}

(* Which executor runs the kernel. [`Closure] interprets the Imp IR
   through the compiled OCaml closures below; [`Native] renders the
   kernel to C, builds it with the system compiler and calls it through
   dlopen (see {!Native}), falling back to the closures — with a
   counted, traced downgrade — whenever the native path is unavailable. *)
type backend = [ `Closure | `Native ]

type backend_stats = {
  native_builds : int;  (** successful emit+cc+dlopen builds, tier-ups included *)
  native_runs : int;  (** kernel executions through the native entry *)
  closure_runs : int;  (** kernel executions through closures *)
  downgrades : int;  (** native requests served by closures instead *)
}

let backend_stats () =
  {
    native_builds = Metrics.counter ~labels:[ ("outcome", "ok") ] "taco_native_builds_total";
    native_runs = Metrics.counter ~labels:[ ("backend", "native") ] "taco_exec_runs_total";
    closure_runs = Metrics.counter ~labels:[ ("backend", "closure") ] "taco_exec_runs_total";
    downgrades = Metrics.counter "taco_exec_downgrades_total";
  }

type compiled = {
  c_kernel : Imp.kernel;
  c_prof : int Atomic.t array option;
      (* A profiled kernel's counters, summed over its runs, in
         [Opt.profile] slot order *)
  c_requested : backend;  (* what the caller asked for (part of cache validity) *)
  c_native : Native.loaded option;  (* Some when the native build succeeded *)
  c_downgrade : string option;  (* why a [`Native] request fell back, if it did *)
  slots : (string, slot) Hashtbl.t;
  n_ints : int;
  n_floats : int;
  n_bools : int;
  n_iarr : int;
  n_farr : int;
  n_barr : int;
  code : env -> unit;
}

(* The executor that will actually run this kernel. *)
let backend_of c : backend = if c.c_native = None then `Closure else `Native

let downgrade_reason c = c.c_downgrade

let native_phases c = Option.map Native.phases c.c_native

let native_tier c = Option.map Native.tier c.c_native

let promote c = Option.iter Native.promote c.c_native

let kernel c = c.c_kernel

exception Type_error of string

let terror fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* Compilation context: the slot table plus the kernel name (so bounds
   diagnostics can name their kernel). *)
type ctx = {
  slots : (string, slot) Hashtbl.t;
  kname : string;
  depth : int;
      (* Loop-nesting depth at this statement. Only depth-0 loops carry
         the deadline watchdog, keeping the poll out of inner hot loops
         (an outermost loop iterates often enough to bound latency). *)
}

(* Raised on an out-of-bounds array access. *)
let oob ~kname ~var ~index ~len =
  Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_BOUNDS"
    ~context:
      [
        ("kernel", kname);
        ("variable", var);
        ("index", string_of_int index);
        ("length", string_of_int len);
      ]
    "array access out of bounds: %s[%d] with %d elements" var index len

(* The bounds test in front of every array load and store, and its
   diagnostic. Each closure tests [out arr k] itself and raises from a
   tail call, so its fast path keeps the code of OCaml's own bounds
   check: no frame, no spills, and the typed access after the test. *)
let[@inline] out arr k = k < 0 || k >= Array.length arr

let oob_at ~kname ~var arr k = oob ~kname ~var ~index:k ~len:(Array.length arr)

(* The same for int arrays, which are int32 Bigarrays ({!Ivec}). With
   the type named, each access compiles to an inline 32-bit load or
   store; a store keeps the low 32 bits of its value, as the C does. *)
let[@inline] iout (arr : Ivec.t) k = k < 0 || k >= Bigarray.Array1.dim arr

let[@inline] iload (arr : Ivec.t) k = Int32.to_int (Bigarray.Array1.unsafe_get arr k)

let[@inline] istore (arr : Ivec.t) k x = Bigarray.Array1.unsafe_set arr k (Int32.of_int x)

let ioob_at ~kname ~var (arr : Ivec.t) k =
  oob ~kname ~var ~index:k ~len:(Bigarray.Array1.dim arr)

let ilength (arr : Ivec.t) = Bigarray.Array1.dim arr

(* [env.iarr.(i)] as one load. [Ivec.t] is abstract, so OCaml reads an
   [Ivec.t array] as a generic array: it tests the array's tag for a
   float array and keeps a frame for the boxing path that test guards,
   neither of which a table of Bigarrays can need. Read through
   [int array array], whose elements it knows are never floats, the
   access is the plain load an [int array array] had. *)
let[@inline] islot env i : Ivec.t =
  Obj.magic (Array.unsafe_get (Obj.magic env.iarr : int array array) i)

(* A Memset/Fill length: the first [n] of [len] elements. *)
let prefix ~kname ~var ~len n = if n < 0 || n > len then oob ~kname ~var ~index:n ~len else n

(* Raised by the cooperative watchdog when a run's deadline passes while
   a kernel loop is still going. *)
let cancelled ~kname =
  Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_CANCELLED"
    ~context:[ ("kernel", kname) ]
    "deadline expired: cancelled kernel %s mid-execution" kname

(* Iterations between watchdog clock reads in guarded loops. *)
let watchdog_mask = 255

(* Pre-allocation memory guard: every executor allocation estimates its
   footprint (8 bytes per element for int/float/bool slots alike — a
   deliberate over-estimate for bools) and rejects with E_EXEC_MEM
   before touching the allocator when it exceeds [Budget.mem_limit]. *)
let check_alloc ~kname ~var elems =
  let limit = Budget.mem_limit () in
  if limit <> max_int && elems > limit / 8 then
    Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_MEM"
      ~context:
        [
          ("kernel", kname);
          ("variable", var);
          ("bytes", string_of_int (elems * 8));
          ("limit_bytes", string_of_int limit);
        ]
      "allocation of %d elements (%d bytes) for %s exceeds the memory budget (%d bytes)"
      elems (elems * 8) var limit

(* ------------------------------------------------------------------ *)
(* Slot assignment                                                     *)
(* ------------------------------------------------------------------ *)

let assign_slots (k : Imp.kernel) =
  let slots = Hashtbl.create 64 in
  let counters = [| 0; 0; 0; 0; 0; 0 |] in
  let category dtype arr =
    match (dtype, arr) with
    | Imp.Int, false -> 0
    | Imp.Float, false -> 1
    | Imp.Bool, false -> 2
    | Imp.Int, true -> 3
    | Imp.Float, true -> 4
    | Imp.Bool, true -> 5
  in
  let declare name dtype arr =
    match Hashtbl.find_opt slots name with
    | Some s ->
        if s.s_dtype <> dtype || s.s_array <> arr then
          terror "variable %s redeclared with a different type" name
    | None ->
        let c = category dtype arr in
        Hashtbl.replace slots name { s_dtype = dtype; s_array = arr; s_index = counters.(c) };
        counters.(c) <- counters.(c) + 1
  in
  List.iter (fun p -> declare p.Imp.p_name p.Imp.p_dtype p.Imp.p_array) k.k_params;
  let rec scan = function
    | Imp.Decl (t, v, _) -> declare v t false
    | Imp.Alloc (t, v, _) -> declare v t true
    | Imp.For (v, _, _, body) | Imp.ParallelFor (v, _, _, body, _) ->
        declare v Imp.Int false;
        List.iter scan body
    | Imp.While (_, body) -> List.iter scan body
    | Imp.If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | Imp.Assign _ | Imp.Store _ | Imp.Store_add _ | Imp.Store_reduce _ | Imp.Realloc _
    | Imp.Memset _ | Imp.Fill _ | Imp.Sort _ | Imp.Comment _ -> ()
  in
  List.iter scan k.k_body;
  (slots, counters)

let find_slot ctx v =
  match Hashtbl.find_opt ctx.slots v with
  | Some s -> s
  | None -> terror "unknown variable %s" v

(* ------------------------------------------------------------------ *)
(* Typing                                                              *)
(* ------------------------------------------------------------------ *)

let rec infer ctx = function
  | Imp.Var v -> (
      match Hashtbl.find_opt ctx.slots v with
      | Some s when not s.s_array -> s.s_dtype
      | Some _ -> terror "array %s used as a scalar" v
      | None -> terror "unknown variable %s" v)
  | Imp.Int_lit _ -> Imp.Int
  | Imp.Float_lit _ -> Imp.Float
  | Imp.Bool_lit _ -> Imp.Bool
  | Imp.Load (a, _) -> (
      match Hashtbl.find_opt ctx.slots a with
      | Some s when s.s_array -> s.s_dtype
      | Some _ -> terror "scalar %s indexed as an array" a
      | None -> terror "unknown array %s" a)
  | Imp.Binop ((Imp.Add | Imp.Sub | Imp.Mul | Imp.Div | Imp.Min | Imp.Max), a, b) -> (
      match (infer ctx a, infer ctx b) with
      | Imp.Int, Imp.Int -> Imp.Int
      | Imp.Float, Imp.Float -> Imp.Float
      | ta, tb ->
          if ta <> tb then terror "arithmetic on mixed types" else terror "arithmetic on bools")
  | Imp.Binop ((Imp.Eq | Imp.Ne | Imp.Lt | Imp.Le | Imp.Gt | Imp.Ge), a, b) ->
      if infer ctx a <> infer ctx b then terror "comparison on mixed types" else Imp.Bool
  | Imp.Binop ((Imp.And | Imp.Or), a, b) ->
      if infer ctx a <> Imp.Bool || infer ctx b <> Imp.Bool then
        terror "logical operator on non-bool"
      else Imp.Bool
  | Imp.Not e -> if infer ctx e <> Imp.Bool then terror "not on non-bool" else Imp.Bool
  | Imp.Round_single e ->
      if infer ctx e <> Imp.Float then terror "round_single on non-float" else Imp.Float
  | Imp.Ternary (c, a, b) ->
      if infer ctx c <> Imp.Bool then terror "ternary condition not bool"
      else
        let ta = infer ctx a in
        if ta <> infer ctx b then terror "ternary branches of mixed type" else ta

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(*                                                                     *)
(* Every compiled expression node is a closure, so the interpreter's   *)
(* unit of cost is the closure call. Operands that are slot reads or   *)
(* literals are therefore folded into their consumer instead of being  *)
(* compiled to their own closure: a binop over two scalars or a load   *)
(* at a scalar index is one call, not three. The optimizer leans on    *)
(* this directly — reducing operands to Var/literal shape (copy        *)
(* propagation, CSE, LICM temporaries) is what moves an expression     *)
(* onto these fast paths.                                              *)
(* ------------------------------------------------------------------ *)

(* Operand shape: a direct int-slot read, an int constant, or a
   general compiled subexpression. *)
type ishape = ISlot of int | ILit of int | IGen of (env -> int)

type fshape = FSlot of int | FLit of float | FGen of (env -> float)

let rec cint ctx (e : Imp.expr) : env -> int =
  match e with
  | Imp.Var v ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Int || s.s_array then terror "expected int scalar %s" v;
      let i = s.s_index in
      fun env -> Array.unsafe_get env.ints i
  | Imp.Int_lit n -> fun _ -> n
  | Imp.Load (a, idx) -> (
      let s = find_slot ctx a in
      if s.s_dtype <> Imp.Int || not s.s_array then terror "expected int array %s" a;
      let i = s.s_index and kname = ctx.kname in
      match ishape ctx idx with
      | ISlot j ->
          fun env ->
            let arr = islot env i and k = Array.unsafe_get env.ints j in
            if iout arr k then ioob_at ~kname ~var:a arr k else iload arr k
      | ILit k ->
          fun env ->
            let arr = islot env i in
            if iout arr k then ioob_at ~kname ~var:a arr k else iload arr k
      | IGen g ->
          fun env ->
            let arr = islot env i and k = g env in
            if iout arr k then ioob_at ~kname ~var:a arr k else iload arr k)
  | Imp.Binop (op, a, b) -> (
      (* Arithmetic keeps the uniform one-closure-per-node scheme:
         canonicalizing repeated index arithmetic into scalar slots is
         the optimizer's job (CSE/LICM), and the slot reads it produces
         hit the operand fast paths of the consumers below (loads,
         stores, comparisons). *)
      let ca = cint ctx a and cb = cint ctx b in
      match op with
      | Imp.Add -> fun env -> ca env + cb env
      | Imp.Sub -> fun env -> ca env - cb env
      | Imp.Mul -> fun env -> ca env * cb env
      | Imp.Div -> fun env -> ca env / cb env
      | Imp.Min -> fun env -> min (ca env) (cb env)
      | Imp.Max -> fun env -> max (ca env) (cb env)
      | Imp.Eq | Imp.Ne | Imp.Lt | Imp.Le | Imp.Gt | Imp.Ge | Imp.And | Imp.Or ->
          terror "boolean expression in int context")
  | Imp.Ternary (c, a, b) ->
      let cc = cbool ctx c and ca = cint ctx a and cb = cint ctx b in
      fun env -> if cc env then ca env else cb env
  | Imp.Float_lit _ | Imp.Bool_lit _ | Imp.Not _ | Imp.Round_single _ ->
      terror "expected an int expression"

and ishape ctx (e : Imp.expr) : ishape =
  match e with
  | Imp.Var v ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Int || s.s_array then terror "expected int scalar %s" v;
      ISlot s.s_index
  | Imp.Int_lit n -> ILit n
  | _ -> IGen (cint ctx e)

and iget = function
  | ISlot i -> fun env -> Array.unsafe_get env.ints i
  | ILit n -> fun _ -> n
  | IGen g -> g

and cfloat ctx (e : Imp.expr) : env -> float =
  match e with
  | Imp.Var v ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Float || s.s_array then terror "expected float scalar %s" v;
      let i = s.s_index in
      fun env -> Array.unsafe_get env.floats i
  | Imp.Float_lit v -> fun _ -> v
  | Imp.Load (a, idx) -> (
      let s = find_slot ctx a in
      if s.s_dtype <> Imp.Float || not s.s_array then terror "expected float array %s" a;
      let i = s.s_index and kname = ctx.kname in
      match ishape ctx idx with
      | ISlot j ->
          fun env ->
            let arr = Array.unsafe_get env.farr i and k = Array.unsafe_get env.ints j in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k
      | ILit k ->
          fun env ->
            let arr = Array.unsafe_get env.farr i in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k
      | IGen g ->
          fun env ->
            let arr = Array.unsafe_get env.farr i and k = g env in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k)
  | Imp.Binop (op, a, b) -> (
      let sa = fshape ctx a and sb = fshape ctx b in
      match (op, sa, sb) with
      | Imp.Add, FSlot i, FSlot j ->
          fun env -> Array.unsafe_get env.floats i +. Array.unsafe_get env.floats j
      | Imp.Add, FSlot i, FGen g -> fun env -> Array.unsafe_get env.floats i +. g env
      | Imp.Add, FGen g, FSlot j -> fun env -> g env +. Array.unsafe_get env.floats j
      | Imp.Add, FGen g, FGen h -> fun env -> g env +. h env
      | Imp.Add, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> ga env +. gb env
      | Imp.Sub, FSlot i, FSlot j ->
          fun env -> Array.unsafe_get env.floats i -. Array.unsafe_get env.floats j
      | Imp.Sub, FSlot i, FGen g -> fun env -> Array.unsafe_get env.floats i -. g env
      | Imp.Sub, FGen g, FSlot j -> fun env -> g env -. Array.unsafe_get env.floats j
      | Imp.Sub, FGen g, FGen h -> fun env -> g env -. h env
      | Imp.Sub, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> ga env -. gb env
      | Imp.Mul, FSlot i, FSlot j ->
          fun env -> Array.unsafe_get env.floats i *. Array.unsafe_get env.floats j
      | Imp.Mul, FSlot i, FGen g -> fun env -> Array.unsafe_get env.floats i *. g env
      | Imp.Mul, FGen g, FSlot j -> fun env -> g env *. Array.unsafe_get env.floats j
      | Imp.Mul, FGen g, FGen h -> fun env -> g env *. h env
      | Imp.Mul, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> ga env *. gb env
      | Imp.Div, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> ga env /. gb env
      | Imp.Min, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> Float.min (ga env) (gb env)
      | Imp.Max, _, _ ->
          let ga = fget sa and gb = fget sb in
          fun env -> Float.max (ga env) (gb env)
      | (Imp.Eq | Imp.Ne | Imp.Lt | Imp.Le | Imp.Gt | Imp.Ge | Imp.And | Imp.Or), _, _ ->
          terror "boolean expression in float context")
  | Imp.Ternary (c, a, b) ->
      let cc = cbool ctx c and ca = cfloat ctx a and cb = cfloat ctx b in
      fun env -> if cc env then ca env else cb env
  | Imp.Round_single e ->
      let ce = cfloat ctx e in
      fun env -> Int32.float_of_bits (Int32.bits_of_float (ce env))
  | Imp.Int_lit _ | Imp.Bool_lit _ | Imp.Not _ -> terror "expected a float expression"

and fshape ctx (e : Imp.expr) : fshape =
  match e with
  | Imp.Var v ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Float || s.s_array then terror "expected float scalar %s" v;
      FSlot s.s_index
  | Imp.Float_lit v -> FLit v
  | _ -> FGen (cfloat ctx e)

and fget = function
  | FSlot i -> fun env -> Array.unsafe_get env.floats i
  | FLit v -> fun _ -> v
  | FGen g -> g

and cbool ctx (e : Imp.expr) : env -> bool =
  match e with
  | Imp.Var v ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Bool || s.s_array then terror "expected bool scalar %s" v;
      let i = s.s_index in
      fun env -> Array.unsafe_get env.bools i
  | Imp.Bool_lit b -> fun _ -> b
  | Imp.Load (a, idx) -> (
      let s = find_slot ctx a in
      if s.s_dtype <> Imp.Bool || not s.s_array then terror "expected bool array %s" a;
      let i = s.s_index and kname = ctx.kname in
      match ishape ctx idx with
      | ISlot j ->
          fun env ->
            let arr = Array.unsafe_get env.barr i and k = Array.unsafe_get env.ints j in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k
      | ILit k ->
          fun env ->
            let arr = Array.unsafe_get env.barr i in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k
      | IGen g ->
          fun env ->
            let arr = Array.unsafe_get env.barr i and k = g env in
            if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_get arr k)
  | Imp.Binop ((Imp.And | Imp.Or) as op, a, b) -> (
      let ca = cbool ctx a and cb = cbool ctx b in
      match op with
      | Imp.And -> fun env -> ca env && cb env
      | Imp.Or -> fun env -> ca env || cb env
      | _ -> assert false)
  | Imp.Binop (((Imp.Eq | Imp.Ne | Imp.Lt | Imp.Le | Imp.Gt | Imp.Ge) as op), a, b) -> (
      match infer ctx a with
      | Imp.Int -> (
          let sa = ishape ctx a and sb = ishape ctx b in
          match (op, sa, sb) with
          | Imp.Eq, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i = Array.unsafe_get env.ints j
          | Imp.Eq, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i = n
          | Imp.Eq, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env = gb env
          | Imp.Ne, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i <> Array.unsafe_get env.ints j
          | Imp.Ne, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i <> n
          | Imp.Ne, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env <> gb env
          | Imp.Lt, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i < Array.unsafe_get env.ints j
          | Imp.Lt, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i < n
          | Imp.Lt, IGen g, ISlot j -> fun env -> g env < Array.unsafe_get env.ints j
          | Imp.Lt, ISlot i, IGen g -> fun env -> Array.unsafe_get env.ints i < g env
          | Imp.Lt, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env < gb env
          | Imp.Le, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i <= Array.unsafe_get env.ints j
          | Imp.Le, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i <= n
          | Imp.Le, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env <= gb env
          | Imp.Gt, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i > Array.unsafe_get env.ints j
          | Imp.Gt, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i > n
          | Imp.Gt, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env > gb env
          | Imp.Ge, ISlot i, ISlot j ->
              fun env -> Array.unsafe_get env.ints i >= Array.unsafe_get env.ints j
          | Imp.Ge, ISlot i, ILit n -> fun env -> Array.unsafe_get env.ints i >= n
          | Imp.Ge, _, _ ->
              let ga = iget sa and gb = iget sb in
              fun env -> ga env >= gb env
          | _ -> assert false)
      | Imp.Float -> (
          let ca = cfloat ctx a and cb = cfloat ctx b in
          match op with
          | Imp.Eq -> fun env -> ca env = cb env
          | Imp.Ne -> fun env -> ca env <> cb env
          | Imp.Lt -> fun env -> ca env < cb env
          | Imp.Le -> fun env -> ca env <= cb env
          | Imp.Gt -> fun env -> ca env > cb env
          | Imp.Ge -> fun env -> ca env >= cb env
          | _ -> assert false)
      | Imp.Bool -> terror "comparison on bools")
  | Imp.Not e ->
      let ce = cbool ctx e in
      fun env -> not (ce env)
  | Imp.Ternary (c, a, b) ->
      let cc = cbool ctx c and ca = cbool ctx a and cb = cbool ctx b in
      fun env -> if cc env then ca env else cb env
  | Imp.Int_lit _ | Imp.Float_lit _ | Imp.Binop _ | Imp.Round_single _ ->
      terror "expected a bool expression"

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let seq (fs : (env -> unit) array) : env -> unit =
  match Array.length fs with
  | 0 -> fun _ -> ()
  | 1 -> fs.(0)
  | 2 ->
      let a = fs.(0) and b = fs.(1) in
      fun env -> a env; b env
  | _ ->
      fun env ->
        for i = 0 to Array.length fs - 1 do
          (Array.unsafe_get fs i) env
        done

(* In-place monomorphic sort of the int slice [lo, hi): Sort runs once
   per assembled row, on slices that are usually tiny, so the generic
   sort path (an allocation, a blit and a polymorphic comparison per
   step) is measurable kernel overhead. Insertion sort below a small
   cutoff, median-of-three quicksort above it. *)
let sort_int_range (arr : Ivec.t) lo hi =
  let swap a b =
    let t = iload arr a in
    istore arr a (iload arr b);
    istore arr b t
  in
  let insertion lo hi =
    for idx = lo + 1 to hi - 1 do
      let x = iload arr idx in
      let j = ref (idx - 1) in
      while !j >= lo && iload arr !j > x do
        istore arr (!j + 1) (iload arr !j);
        decr j
      done;
      istore arr (!j + 1) x
    done
  in
  let rec qsort lo hi =
    if hi - lo <= 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* Median of first/middle/last as the pivot, parked at [lo]. *)
      if iload arr mid < iload arr lo then swap mid lo;
      if iload arr (hi - 1) < iload arr lo then swap (hi - 1) lo;
      if iload arr (hi - 1) < iload arr mid then swap (hi - 1) mid;
      swap lo mid;
      let pivot = iload arr lo in
      let i = ref (lo + 1) and j = ref (hi - 1) in
      while !i <= !j do
        while !i <= !j && iload arr !i <= pivot do incr i done;
        while !i <= !j && iload arr !j > pivot do decr j done;
        if !i < !j then swap !i !j
      done;
      swap lo !j;
      qsort lo !j;
      qsort (!j + 1) hi
    end
  in
  if hi - lo > 1 then qsort lo hi

let rec cstmt ctx (s : Imp.stmt) : env -> unit =
  match s with
  | Imp.Decl (_, v, e) | Imp.Assign (v, e) -> (
      let s = find_slot ctx v in
      let i = s.s_index in
      match s.s_dtype with
      | Imp.Int ->
          let ce = cint ctx e in
          fun env -> Array.unsafe_set env.ints i (ce env)
      | Imp.Float ->
          let ce = cfloat ctx e in
          fun env -> Array.unsafe_set env.floats i (ce env)
      | Imp.Bool ->
          let ce = cbool ctx e in
          fun env -> Array.unsafe_set env.bools i (ce env))
  | Imp.Store (a, idx, v) -> (
      let s = find_slot ctx a in
      let i = s.s_index and kname = ctx.kname in
      let sh = ishape ctx idx in
      match s.s_dtype with
      | Imp.Float -> (
          let cv = cfloat ctx v in
          match sh with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = Array.unsafe_get env.ints j in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = g env in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x)
      | Imp.Int -> (
          let cv = cint ctx v in
          match sh with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = islot env i and k = Array.unsafe_get env.ints j in
                if iout arr k then ioob_at ~kname ~var:a arr k else istore arr k x
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = islot env i in
                if iout arr k then ioob_at ~kname ~var:a arr k else istore arr k x
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = islot env i and k = g env in
                if iout arr k then ioob_at ~kname ~var:a arr k else istore arr k x)
      | Imp.Bool -> (
          let cv = cbool ctx v in
          match sh with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.barr i and k = Array.unsafe_get env.ints j in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.barr i in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.barr i and k = g env in
                if out arr k then oob_at ~kname ~var:a arr k else Array.unsafe_set arr k x))
  | Imp.Store_add (a, idx, v) -> (
      let s = find_slot ctx a in
      let i = s.s_index and kname = ctx.kname in
      let sh = ishape ctx idx in
      match s.s_dtype with
      | Imp.Float -> (
          let cv = cfloat ctx v in
          match sh with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = Array.unsafe_get env.ints j in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (Array.unsafe_get arr k +. x)
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (Array.unsafe_get arr k +. x)
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = g env in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (Array.unsafe_get arr k +. x))
      | Imp.Int -> (
          let cv = cint ctx v in
          match sh with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = islot env i and k = Array.unsafe_get env.ints j in
                if iout arr k then ioob_at ~kname ~var:a arr k
                else istore arr k (iload arr k + x)
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = islot env i in
                if iout arr k then ioob_at ~kname ~var:a arr k
                else istore arr k (iload arr k + x)
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = islot env i and k = g env in
                if iout arr k then ioob_at ~kname ~var:a arr k
                else istore arr k (iload arr k + x))
      | Imp.Bool -> terror "+= on bool array %s" a)
  | Imp.Store_reduce (r, a, idx, v) -> (
      let s = find_slot ctx a in
      let i = s.s_index and kname = ctx.kname in
      let combine =
        match r with
        | Imp.Red_min -> fun a v -> if v < a then v else a
        | Imp.Red_max -> fun a v -> if v > a then v else a
        | Imp.Red_or -> fun a v -> if a <> 0. || v <> 0. then 1. else 0.
      in
      match s.s_dtype with
      | Imp.Float -> (
          let cv = cfloat ctx v in
          match ishape ctx idx with
          | ISlot j ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = Array.unsafe_get env.ints j in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (combine (Array.unsafe_get arr k) x)
          | ILit k ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (combine (Array.unsafe_get arr k) x)
          | IGen g ->
              fun env ->
                let x = cv env in
                let arr = Array.unsafe_get env.farr i and k = g env in
                if out arr k then oob_at ~kname ~var:a arr k
                else Array.unsafe_set arr k (combine (Array.unsafe_get arr k) x))
      | Imp.Int | Imp.Bool -> terror "reduce-store on non-float array %s" a)
  | Imp.Alloc (t, v, n) -> (
      let i = (find_slot ctx v).s_index in
      let cn = cint ctx n in
      let kname = ctx.kname in
      let size env =
        let m = max 1 (cn env) in
        Fault.hit ~stage:Diag.Execute "exec.alloc";
        check_alloc ~kname ~var:v m;
        m
      in
      match t with
      | Imp.Int -> fun env -> env.iarr.(i) <- Ivec.create (size env)
      | Imp.Float -> fun env -> env.farr.(i) <- Array.make (size env) 0.
      | Imp.Bool -> fun env -> env.barr.(i) <- Array.make (size env) false)
  | Imp.Realloc (v, n) -> (
      let s = find_slot ctx v in
      let i = s.s_index in
      let cn = cint ctx n in
      let kname = ctx.kname in
      let size env old_len =
        let m = max old_len (cn env) in
        check_alloc ~kname ~var:v m;
        m
      in
      match s.s_dtype with
      | Imp.Int ->
          fun env ->
            let old = env.iarr.(i) in
            let fresh = Ivec.create (size env (ilength old)) in
            Bigarray.Array1.(blit old (sub fresh 0 (dim old)));
            env.iarr.(i) <- fresh
      | Imp.Float ->
          fun env ->
            let old = env.farr.(i) in
            let fresh = Array.make (size env (Array.length old)) 0. in
            Array.blit old 0 fresh 0 (Array.length old);
            env.farr.(i) <- fresh
      | Imp.Bool ->
          fun env ->
            let old = env.barr.(i) in
            let fresh = Array.make (size env (Array.length old)) false in
            Array.blit old 0 fresh 0 (Array.length old);
            env.barr.(i) <- fresh)
  | Imp.Memset (v, n) -> (
      let s = find_slot ctx v in
      let i = s.s_index in
      let cn = cint ctx n and kname = ctx.kname in
      match s.s_dtype with
      | Imp.Float ->
          fun env ->
            let arr = env.farr.(i) in
            Array.fill arr 0 (prefix ~kname ~var:v ~len:(Array.length arr) (cn env)) 0.
      | Imp.Int ->
          fun env ->
            let arr = env.iarr.(i) in
            Bigarray.Array1.(fill (sub arr 0 (prefix ~kname ~var:v ~len:(dim arr) (cn env))) 0l)
      | Imp.Bool ->
          fun env ->
            let arr = env.barr.(i) in
            Array.fill arr 0 (prefix ~kname ~var:v ~len:(Array.length arr) (cn env)) false)
  | Imp.Fill (v, n, x) -> (
      let s = find_slot ctx v in
      let i = s.s_index in
      let cn = cint ctx n and kname = ctx.kname in
      match s.s_dtype with
      | Imp.Float ->
          let cx = cfloat ctx x in
          fun env ->
            let arr = env.farr.(i) in
            Array.fill arr 0 (prefix ~kname ~var:v ~len:(Array.length arr) (cn env)) (cx env)
      | Imp.Int | Imp.Bool -> terror "fill on non-float array %s" v)
  | Imp.For (v, lo, hi, body) ->
      let i = (find_slot ctx v).s_index in
      let clo = cint ctx lo and chi = cint ctx hi in
      let bctx = { ctx with depth = ctx.depth + 1 } in
      let cbody = seq (Array.of_list (List.map (cstmt bctx) body)) in
      let kname = ctx.kname in
      let guarded = ctx.depth = 0 in
      fun env ->
        let hi = chi env in
        let ints = env.ints in
        let deadline = env.deadline_ns in
        if guarded && deadline <> Int64.max_int then
          for x = clo env to hi - 1 do
            if x land watchdog_mask = 0 && Trace.now_ns () > deadline then
              cancelled ~kname;
            Array.unsafe_set ints i x;
            cbody env
          done
        else
          (* The loop variable may be read but not written by the body, so
             the native for counter can own the induction. *)
          for x = clo env to hi - 1 do
            Array.unsafe_set ints i x;
            cbody env
          done
  | Imp.ParallelFor (v, lo, hi, body, info) ->
      let i = (find_slot ctx v).s_index in
      let clo = cint ctx lo and chi = cint ctx hi in
      let bctx = { ctx with depth = ctx.depth + 1 } in
      let cbody = seq (Array.of_list (List.map (cstmt bctx) body)) in
      let kname = ctx.kname in
      (* Resolve the merge metadata to slots up front so a malformed
         annotation fails at compile time. *)
      let array_slot what name =
        let s = find_slot ctx name in
        if not s.s_array then terror "parallel %s %s is not an array" what name;
        (s.s_dtype, s.s_index)
      in
      let priv = List.map (array_slot "private") info.Imp.par_private in
      let stage =
        Option.map
          (fun stg ->
            let cs = find_slot ctx stg.Imp.pa_counter in
            if cs.s_array || cs.s_dtype <> Imp.Int then
              terror "parallel append counter %s is not an int scalar" stg.Imp.pa_counter;
            let arrs = List.map (array_slot "staged array") stg.Imp.pa_arrays in
            let pos =
              Option.map
                (fun p ->
                  match array_slot "pos array" p with
                  | Imp.Int, si -> si
                  | _ -> terror "parallel pos array %s is not an int array" p)
                stg.Imp.pa_pos
            in
            (cs.s_index, arrs, pos))
          info.Imp.par_stage
      in
      let copy_slot penv (t, si) =
        match t with
        | Imp.Int -> penv.iarr.(si) <- Ivec.copy penv.iarr.(si)
        | Imp.Float -> penv.farr.(si) <- Array.copy penv.farr.(si)
        | Imp.Bool -> penv.barr.(si) <- Array.copy penv.barr.(si)
      in
      fun env ->
        let lo = clo env and hi = chi env in
        let total = hi - lo in
        let want = env.par_domains in
        if want <= 1 || total <= 1 then begin
          let ints = env.ints in
          let deadline = env.deadline_ns in
          let guarded = deadline <> Int64.max_int in
          for x = lo to hi - 1 do
            if guarded && x land watchdog_mask = 0 && Trace.now_ns () > deadline
            then cancelled ~kname;
            Array.unsafe_set ints i x;
            cbody env
          done
        end
        else begin
          (* Deterministic chunking: [want] contiguous chunks of the
             iteration space, regardless of how many domains the
             budget actually grants. Every chunk starts from a
             private copy of the pre-loop environment — scalars and
             slot tables are copied wholesale (so in-body
             Alloc/Realloc stay private), the annotated private and
             staged arrays are deep-copied, and everything else
             shares storage: inputs are read-only and non-staged
             output writes are disjoint across chunks. *)
          let nchunks = min want total in
          let bounds = Array.init (nchunks + 1) (fun k -> lo + (total * k / nchunks)) in
          let c0 = match stage with None -> 0 | Some (ci, _, _) -> env.ints.(ci) in
          let mk_penv () =
            let p =
              {
                ints = Array.copy env.ints;
                floats = Array.copy env.floats;
                bools = Array.copy env.bools;
                iarr = Array.copy env.iarr;
                farr = Array.copy env.farr;
                barr = Array.copy env.barr;
                par_domains = 1;
                deadline_ns = env.deadline_ns;
              }
            in
            List.iter (copy_slot p) priv;
            (match stage with
            | None -> ()
            | Some (_, arrs, pos) ->
                List.iter (copy_slot p) arrs;
                Option.iter (fun pi -> p.iarr.(pi) <- Ivec.copy p.iarr.(pi)) pos);
            p
          in
          let penvs = Array.init nchunks (fun _ -> mk_penv ()) in
          let run_chunk d =
            Fault.hit ~stage:Diag.Execute "par.chunk";
            let p = penvs.(d) in
            let ints = p.ints in
            let deadline = p.deadline_ns in
            let guarded = deadline <> Int64.max_int in
            for x = bounds.(d) to bounds.(d + 1) - 1 do
              if guarded && x land watchdog_mask = 0 && Trace.now_ns () > deadline
              then cancelled ~kname;
              Array.unsafe_set ints i x;
              cbody p
            done
          in
          (* Chunks run on 1 + however many extra domains the budget
             grants; chunk-to-domain placement cannot affect results
             (each chunk is self-contained until the merge). *)
          let extra = Budget.acquire (nchunks - 1) in
          Fun.protect
            ~finally:(fun () -> Budget.release extra)
            (fun () ->
              if extra = 0 then
                for d = 0 to nchunks - 1 do
                  run_chunk d
                done
              else begin
                let groups = extra + 1 in
                let group g =
                  let glo = nchunks * g / groups and ghi = nchunks * (g + 1) / groups in
                  for d = glo to ghi - 1 do
                    run_chunk d
                  done
                in
                let workers =
                  List.init extra (fun g -> Domain.spawn (fun () -> group (g + 1)))
                in
                (* Join every worker even when one raises: a chunk
                   failure (watchdog, injected fault, bounds) must
                   not leak live domains or skew the Budget pot.
                   The first failure wins; ours takes precedence
                   since it fired first in program order. *)
                let own = (try group 0; None with e -> Some e) in
                let failed =
                  List.fold_left
                    (fun acc w ->
                      match (try Domain.join w; None with e -> Some e) with
                      | Some _ as e when acc = None -> e
                      | _ -> acc)
                    own workers
                in
                Option.iter raise failed
              end);
          (* Merge, in chunk order. Stage concatenation first (it
             reads the pre-loop arrays still referenced by [env]'s
             own tables), then scalars and tables from the last
             chunk (sequential semantics: the final environment is
             the one the last iteration leaves behind). *)
          let merged = ref [] in
          let tot = ref c0 in
          (match stage with
          | None -> ()
          | Some (ci, arrs, pos) ->
              let counts = Array.init nchunks (fun d -> penvs.(d).ints.(ci) - c0) in
              let bases = Array.make (nchunks + 1) c0 in
              for d = 0 to nchunks - 1 do
                bases.(d + 1) <- bases.(d) + counts.(d)
              done;
              tot := bases.(nchunks);
              (* Concatenate a staged array: chunk [d] appended its
                 entries at [c0..c0+counts d) of its private copy;
                 they land at [bases d ..) of the merged array. The
                 original pre-loop array still holds the [0, c0)
                 prefix untouched (every chunk wrote only to its
                 copy), so it can be reused when large enough. *)
              let blit_segments ~get ~make ~length ~blit si =
                let orig = get env si in
                let dst =
                  if length orig >= !tot then orig
                  else begin
                    let grown = make (max !tot (2 * length orig)) in
                    blit orig 0 grown 0 c0;
                    grown
                  end
                in
                for d = 0 to nchunks - 1 do
                  if counts.(d) > 0 then blit (get penvs.(d) si) c0 dst bases.(d) counts.(d)
                done;
                dst
              in
              let segments ~get ~make = blit_segments ~get ~make ~length:Array.length ~blit:Array.blit in
              List.iter
                (fun (t, si) ->
                  match t with
                  | Imp.Int ->
                      let a =
                        blit_segments ~get:(fun e k -> e.iarr.(k)) ~make:Ivec.create ~length:ilength
                          ~blit:(fun src so dst d n ->
                            Bigarray.Array1.(blit (sub src so n) (sub dst d n)))
                          si
                      in
                      merged := `I (si, a) :: !merged
                  | Imp.Float ->
                      let a = segments ~get:(fun e k -> e.farr.(k)) ~make:(fun n -> Array.make n 0.) si in
                      merged := `F (si, a) :: !merged
                  | Imp.Bool ->
                      let a =
                        segments ~get:(fun e k -> e.barr.(k)) ~make:(fun n -> Array.make n false) si
                      in
                      merged := `B (si, a) :: !merged)
                arrs;
              Option.iter
                (fun pi ->
                  (* Each chunk closed its own rows' pos entries
                     against its local counter (which started at
                     [c0]); rebase them by the chunk's global start
                     offset into the shared pre-loop array. *)
                  let orig_pos = env.iarr.(pi) in
                  for d = 0 to nchunks - 1 do
                    let src = penvs.(d).iarr.(pi) in
                    let delta = bases.(d) - c0 in
                    for k = bounds.(d) + 1 to bounds.(d + 1) do
                      Ivec.set orig_pos k (Ivec.get src k + delta)
                    done
                  done;
                  merged := `I (pi, orig_pos) :: !merged)
                pos);
          let last = penvs.(nchunks - 1) in
          Array.blit last.ints 0 env.ints 0 (Array.length env.ints);
          Array.blit last.floats 0 env.floats 0 (Array.length env.floats);
          Array.blit last.bools 0 env.bools 0 (Array.length env.bools);
          Array.blit last.iarr 0 env.iarr 0 (Array.length env.iarr);
          Array.blit last.farr 0 env.farr 0 (Array.length env.farr);
          Array.blit last.barr 0 env.barr 0 (Array.length env.barr);
          List.iter
            (function
              | `I (k, a) -> env.iarr.(k) <- a
              | `F (k, a) -> env.farr.(k) <- a
              | `B (k, a) -> env.barr.(k) <- a)
            !merged;
          match stage with
          | None -> ()
          | Some (ci, _, _) -> env.ints.(ci) <- !tot
        end
  | Imp.While (c, body) ->
      let cc = cbool ctx c in
      let bctx = { ctx with depth = ctx.depth + 1 } in
      let cbody = seq (Array.of_list (List.map (cstmt bctx) body)) in
      let kname = ctx.kname in
      let guarded = ctx.depth = 0 in
      fun env ->
        if guarded && env.deadline_ns <> Int64.max_int then begin
          let deadline = env.deadline_ns in
          let n = ref 0 in
          while cc env do
            incr n;
            if !n land watchdog_mask = 0 && Trace.now_ns () > deadline then
              cancelled ~kname;
            cbody env
          done
        end
        else
          while cc env do
            cbody env
          done
  | Imp.If (c, t, []) ->
      let cc = cbool ctx c in
      let ct = seq (Array.of_list (List.map (cstmt ctx) t)) in
      fun env -> if cc env then ct env
  | Imp.If (c, [], e) ->
      (* Else-only shape, produced by the optimizer's branch flip. *)
      let cc = cbool ctx c in
      let ce = seq (Array.of_list (List.map (cstmt ctx) e)) in
      fun env -> if not (cc env) then ce env
  | Imp.If (c, t, e) ->
      let cc = cbool ctx c in
      let ct = seq (Array.of_list (List.map (cstmt ctx) t)) in
      let ce = seq (Array.of_list (List.map (cstmt ctx) e)) in
      fun env -> if cc env then ct env else ce env
  | Imp.Sort (v, lo, hi) ->
      let s = find_slot ctx v in
      if s.s_dtype <> Imp.Int || not s.s_array then terror "sort expects an int array";
      let i = s.s_index in
      let clo = cint ctx lo and chi = cint ctx hi and kname = ctx.kname in
      fun env ->
        let arr = env.iarr.(i) in
        let lo = clo env and hi = chi env in
        let len = ilength arr in
        (* [lo] must lie in [0, hi] and [hi] in [lo, len]; the
           diagnostic names the bound that does not. *)
        if lo < 0 || hi < lo then oob ~kname ~var:v ~index:lo ~len
        else if hi > len then oob ~kname ~var:v ~index:hi ~len;
        sort_int_range arr lo hi
  | Imp.Comment _ -> fun _ -> ()

(* ------------------------------------------------------------------ *)
(* Building a batch                                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  s_kernel : Imp.kernel;  (* as lowered, before the optimizer *)
  s_digest : Digest.t;
      (* of [s_kernel], computed once, eagerly: a spec reused across
         requests is read from several domains, where forcing a [Lazy]
         would raise *)
  s_profile : bool;
  s_opt : Taco_lower.Opt.config;
  s_backend : backend;
  s_rid : int option;  (* the request it serves, stamped on its spans *)
}

let spec ?(profile = false) ?(opt = Taco_lower.Opt.all) ?(backend = `Closure) k =
  {
    s_kernel = k;
    s_digest = Digest.string (Marshal.to_string k []);
    s_profile = profile;
    s_opt = opt;
    s_backend = backend;
    s_rid = Trace.request_id ();
  }

let restamp s = { s with s_rid = Trace.request_id () }

(* Run [f] with the domain's request id set to [rid]. *)
let with_rid rid f =
  let outer = Trace.request_id () in
  if rid = outer then f ()
  else begin
    Trace.set_request_id rid;
    Fun.protect ~finally:(fun () -> Trace.set_request_id outer) f
  end

(* The closure half of a build: optimize, instrument a profiled kernel
   and compile the closures. The result's [c_kernel] is the optimized
   kernel; a profiled compilation executes its {!Taco_lower.Opt.profile}
   rewrite instead, on either backend, which is returned alongside for
   the native build. The closures are always built: they are the
   fallback when the native path degrades, and cheap next to a gcc
   invocation. Raises [Invalid_argument] or [Type_error] on malformed
   IR. *)
let build_closures s =
  let k =
    match Taco_lower.Opt.optimize ~config:s.s_opt s.s_kernel with
    | Ok k' -> k'
    | Error msg -> invalid_arg ("Compile.compile: optimizer " ^ msg)
  in
  Trace.with_span ~cat:"compile" ~args:[ ("kernel", k.Imp.k_name) ] "compile.build" (fun () ->
      let exec_k =
        if not s.s_profile then k
        else
          match Taco_lower.Opt.profile k with
          | Ok k' -> k'
          | Error msg -> invalid_arg ("Compile.compile: profile " ^ msg)
      in
      let slots, counters = assign_slots exec_k in
      let ctx = { slots; kname = k.Imp.k_name; depth = 0 } in
      let code = seq (Array.of_list (List.map (cstmt ctx) exec_k.Imp.k_body)) in
      ( exec_k,
        {
          c_kernel = k;
          c_prof =
            (if s.s_profile then
               Some (Array.init Taco_lower.Opt.profile_slots (fun _ -> Atomic.make 0))
             else None);
          c_requested = s.s_backend;
          c_native = None;
          c_downgrade = None;
          slots;
          n_ints = counters.(0);
          n_floats = counters.(1);
          n_bools = counters.(2);
          n_iarr = counters.(3);
          n_farr = counters.(4);
          n_barr = counters.(5);
          code;
        } ))

let type_error s msg =
  Diag.make ~stage:Diag.Compile ~code:"E_COMPILE_TYPE"
    ~context:[ ("kernel", s.s_kernel.Imp.k_name) ]
    msg

(* Build every spec: closures one by one, then the native ones in one
   {!Native.load} (one cc for the lot). A native request that did not
   load keeps its closures, with the downgrade counted and traced. *)
let build_all specs =
  let halves =
    List.map
      (fun s ->
        with_rid s.s_rid (fun () ->
            match build_closures s with
            | half -> Ok half
            | exception Invalid_argument msg -> Error (type_error s msg)
            | exception Type_error msg -> Error (type_error s ("Compile.compile: " ^ msg))
            | exception Diag.Error d -> Error d))
      specs
  in
  let load natives =
    List.map2
      (fun (s, _, c) -> function
        | Ok l -> Ok { c with c_native = Some l }
        | Error reason ->
            Metrics.inc "taco_exec_downgrades_total";
            with_rid s.s_rid (fun () ->
                Trace.instant
                  ~args:[ ("kernel", c.c_kernel.Imp.k_name); ("backend_downgrade", reason) ]
                  "exec.backend.downgrade");
            Ok { c with c_downgrade = Some reason })
      natives
      (Native.load
         ~rids:(List.map (fun (s, _, _) -> s.s_rid) natives)
         (List.map (fun (_, exec_k, _) -> exec_k) natives))
  in
  List.map2
    (fun s h ->
      match (s.s_backend, h) with
      | `Native, Ok (exec_k, c) -> Either.Left (s, exec_k, c)
      | _ -> Either.Right (Result.map snd h))
    specs halves
  |> Util.map_lefts load

(* ------------------------------------------------------------------ *)
(* Compiled-kernel cache                                               *)
(*                                                                     *)
(* Keyed by a digest of the kernel as lowered (before the optimizer,   *)
(* taken once per spec) plus every input that shapes the compiled      *)
(* result: the optimizer config, the profile flag and the backend tag  *)
(* with its compiler id. A hit therefore skips the optimizer as well   *)
(* as closure compilation and cc. The digest is only a lookup key:     *)
(* each entry keeps its source kernel and config, a hit compares them  *)
(* (physically first, then structurally), and a mismatch (digest       *)
(* collision, or NaN literals defeating structural equality) falls     *)
(* back to a fresh compile. Only                                       *)
(* kernels that optimized and built cleanly are inserted. Compiled     *)
(* closures are immutable and reusable across runs; [Memo] keeps the   *)
(* table safe under domains and single-flights each build.             *)
(* ------------------------------------------------------------------ *)

type cache_stats = Memo.stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  coalesced : int;
}

(* An entry: the kernel as lowered, the optimizer config it was
   compiled under, and the result. *)
type entry = { e_source : Imp.kernel; e_opt : Taco_lower.Opt.config; e_compiled : compiled }

let kernels : entry Memo.t = Memo.create ~name:"compile" ~capacity:512

let cache_key s =
  (* The compiler string joins the key for native entries: a cached .so
     built by one TACO_CC must not be served when the variable changes
     (the downgraded form of a native entry is compiler-specific too —
     a bogus compiler's fallback must not mask a working one). *)
  let btag =
    match s.s_backend with
    | `Closure -> "closure"
    | `Native -> "native:" ^ Native.compiler_id ()
  in
  Digest.string (Marshal.to_string (s.s_opt, s.s_profile, btag, s.s_digest) [])

(* A spec reused from the service's front cache holds the very kernel
   its entry was built from, so the physical test settles most hits
   without walking the kernel. *)
let valid s e =
  let c = e.e_compiled in
  c.c_prof <> None = s.s_profile
  && c.c_requested = s.s_backend
  && e.e_opt = s.s_opt
  && (e.e_source == s.s_kernel || e.e_source = s.s_kernel)

let cache_stats () = Memo.stats kernels

let cache_clear () = Memo.clear kernels

(* The specs that passed the [compile.build] fault point, built through
   the cache: every miss is claimed at once (single-flight per key, see
   [Memo.find_or_build_all]) and built by one [build_all]. *)
let cached specs =
  let by_index = Array.of_list specs in
  Memo.find_or_build_all kernels
    (List.map (fun s -> (cache_key s, valid s)) specs)
    (fun claimed ->
      let claimed = List.map (fun i -> by_index.(i)) claimed in
      List.map2
        (fun s r ->
          Result.map (fun c -> { e_source = s.s_kernel; e_opt = s.s_opt; e_compiled = c }) r)
        claimed (build_all claimed))
  |> List.map (Result.map (fun e -> e.e_compiled))

(* The [compile.build] fault point, which every compile passes once,
   hit or miss. *)
let fault_point s =
  with_rid s.s_rid (fun () ->
      match Fault.hit ~stage:Diag.Compile "compile.build" with
      | () -> Ok ()
      | exception Diag.Error d -> Error d)

(* A kernel's "compile" span: the time since [t0] its request spent
   waiting for its compiled kernel. *)
let compile_span ~t0 ~now s =
  if Trace.active () then
    with_rid s.s_rid (fun () ->
        Trace.span_complete ~cat:"compile"
          ~args:[ ("kernel", s.s_kernel.Imp.k_name) ]
          ~ts:t0 ~dur_ns:(Int64.sub now t0) "compile")

let compile_batch ?(cache = true) specs =
  let t0 = Trace.now_ns () in
  (* Before the cache lookup, so an armed rule fires on hits too. *)
  let faults =
    List.map
      (fun s ->
        match fault_point s with Ok () -> Either.Left s | Error d -> Either.Right (Error d))
      specs
  in
  let results = Util.map_lefts (if cache then cached else build_all) faults in
  let now = Trace.now_ns () in
  List.iter (compile_span ~t0 ~now) specs;
  results

let lookup s =
  let t0 = Trace.now_ns () in
  Memo.find ~valid:(valid s) kernels (cache_key s)
  |> Option.map (fun e ->
         let r = Result.map (fun () -> e.e_compiled) (fault_point s) in
         compile_span ~t0 ~now:(Trace.now_ns ()) s;
         r)

(* The batch of one. Only malformed IR is a result: any other
   diagnostic (an injected fault) is raised, as a single compile always
   has. *)
let compile_res ?profile ?opt ?cache ?backend k =
  match compile_batch ?cache [ spec ?profile ?opt ?backend k ] with
  | [ Error d ] when d.Diag.code <> "E_COMPILE_TYPE" -> raise (Diag.Error d)
  | [ r ] -> r
  | _ -> assert false

let compile ?profile ?opt ?cache ?backend k =
  match compile_res ?profile ?opt ?cache ?backend k with
  | Ok c -> c
  | Error d -> invalid_arg d.Diag.message

(* Counters in [Opt.profile] slot order. *)
let stats_of (n : int array) =
  {
    iterations = n.(0);
    scalar_ops = n.(1);
    allocs = n.(2);
    alloc_elems = n.(3);
    zero_bytes = 8 * n.(4);
    reallocs = n.(5);
    sorts = n.(6);
  }

let profile_stats c = Option.map (fun acc -> stats_of (Array.map Atomic.get acc)) c.c_prof

let profile_reset c = Option.iter (Array.iter (fun a -> Atomic.set a 0)) c.c_prof

let empty_float_array : float array = [||]

(* The read-back rule both executors share: an out-of-range length is
   the same stage-Execute diagnostic whichever backend ran the kernel. *)
let bad_length ~kname ~var ~len ~cap =
  Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_NATIVE"
    ~context:
      [
        ("kernel", kname);
        ("variable", var);
        ("length", string_of_int len);
        ("capacity", string_of_int cap);
      ]
    "read-back of %s in kernel %s: length %d outside its capacity %d" var kname len cap

let bad_length_index ~kname ~var ~src ~index ~len =
  Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_NATIVE"
    ~context:
      [
        ("kernel", kname);
        ("variable", var);
        ("source", src);
        ("index", string_of_int index);
        ("length", string_of_int len);
      ]
    "read-back of %s in kernel %s: length index %s[%d] outside its %d elements" var kname
    src index len

let not_allocated name =
  invalid_arg (Printf.sprintf "Compile.run: %s is not an array the kernel allocates" name)

let not_read_back name =
  invalid_arg (Printf.sprintf "Compile.run: %s was not read back" name)

(* An int scalar argument: native kernels declare int scalars int32, so
   a value past that range is refused on both backends alike. *)
let int_arg ~kname name v =
  if Ivec.fits v then v
  else
    Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_RANGE"
      ~context:[ ("kernel", kname); ("variable", name); ("value", string_of_int v) ]
      "argument %s = %d of kernel %s does not fit int32" name v kname

(* Execute through the native entry point. Bindings are validated with
   the same messages as the closure path; array parameters cross by
   pointer, the kernel reading and writing them in place. Of the arrays
   the kernel allocates, the stub hands back only the read list, each
   at its exact length (an int array becomes an index array with no
   copy, a float array is copied into the heap), and frees the rest in
   C.
   Runtime failures map to the closure executor's diagnostics and are
   deliberately NOT downgraded: by the time the kernel runs, output
   parameters may be partially written, so retrying through closures
   could double-apply work — and both failure modes (budget, deadline)
   are client-visible semantics, not environment problems. *)
let run_native c l ~deadline_ns ~read ~args =
  let kname = c.c_kernel.Imp.k_name in
  let ints = ref [] and arrays = ref [] in
  List.iter
    (fun p ->
      let name = p.Imp.p_name in
      match (List.assoc_opt name args, p.Imp.p_dtype, p.Imp.p_array) with
      | Some (Aint v), Imp.Int, false -> ints := int_arg ~kname name v :: !ints
      | Some (Aint_array v), Imp.Int, true -> arrays := Obj.repr v :: !arrays
      | Some (Afloat_array v), Imp.Float, true -> arrays := Obj.repr v :: !arrays
      | Some _, _, _ -> invalid_arg (Printf.sprintf "Compile.run: bad binding for %s" name)
      | None, _, _ -> invalid_arg (Printf.sprintf "Compile.run: missing binding for %s" name))
    c.c_kernel.k_params;
  let escape name =
    match List.assoc_opt name l.Native.l_escapes with
    | Some i -> i
    | None -> not_allocated name
  in
  (* Without a read list every escape comes back at its capacity. *)
  let reads =
    match read with
    | Some r -> List.map (fun (name, ext) -> (name, escape name, Some ext)) r
    | None -> List.map (fun (name, e) -> (name, e, None)) l.Native.l_escapes
  in
  let n_read = List.length reads in
  let read_esc = Array.make n_read 0
  and read_src = Array.make n_read (-2)
  and read_arg = Array.make n_read 0 in
  List.iteri
    (fun r (_, e, ext) ->
      read_esc.(r) <- e;
      match ext with
      | None -> ()
      | Some (Len n) ->
          read_src.(r) <- -1;
          read_arg.(r) <- n
      | Some (Len_at (src, i)) ->
          let k = escape src in
          if l.Native.l_esc_kinds.(k) <> 0 then not_allocated src;
          read_src.(r) <- k;
          read_arg.(r) <- i)
    reads;
  let spec =
    {
      Native.cs_ints = Array.of_list (List.rev !ints);
      cs_floats = [||];
      cs_arrays = Array.of_list (List.rev !arrays);
      cs_kinds = l.Native.l_arr_kinds;
      cs_esc_kinds = l.Native.l_esc_kinds;
      cs_mem_limit =
        (let lim = Budget.mem_limit () in
         if lim = max_int then Int64.max_int else Int64.of_int lim);
      cs_deadline = deadline_ns;
      cs_read_esc = read_esc;
      cs_read_src = read_src;
      cs_read_arg = read_arg;
    }
  in
  let rc, escs = Native.run l spec in
  (match rc with
  | 0 -> ()
  | 1 ->
      (* The refused element count, when the runtime table saw it: the
         same [bytes] the closure executor reports. *)
      let elems : int = Obj.obj escs.(0) in
      Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_MEM"
        ~context:
          ([ ("kernel", kname); ("backend", "native") ]
          @ (if elems >= 0 then [ ("bytes", string_of_int (elems * 8)) ] else [])
          @ [ ("limit_bytes", string_of_int (Budget.mem_limit ())) ])
        "allocation exceeds the memory budget in native kernel %s" kname
  | 2 -> cancelled ~kname
  | 3 | 4 -> (
      let fault k : int = Obj.obj escs.(k) in
      let var, _, ext = List.nth reads (fault 0) in
      match (rc, ext) with
      | 4, Some (Len_at (src, _)) ->
          bad_length_index ~kname ~var ~src ~index:(fault 1) ~len:(fault 2)
      | _ -> bad_length ~kname ~var ~len:(fault 1) ~cap:(fault 2))
  | n ->
      Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_NATIVE"
        ~context:[ ("kernel", kname); ("rc", string_of_int n) ]
        "native kernel %s failed with unexpected return code %d" kname n);
  let handed = ref 0 in
  let boxed =
    List.mapi
      (fun r (name, e, _) ->
        ( name,
          if l.Native.l_esc_kinds.(e) = 0 then begin
            let a : Ivec.t = Obj.obj escs.(r) in
            handed := !handed + ilength a;
            Aint_array a
          end
          else Afloat_array (Obj.obj escs.(r) : float array) ))
      reads
  in
  Ivec.count_bytes (4 * !handed);
  fun name ->
    match List.assoc_opt name boxed with
    | Some v -> v
    | None -> (
        if List.mem_assoc name l.Native.l_escapes then not_read_back name
        else
          match List.assoc_opt name args with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "Compile.run: unknown variable %s" name))

(* An int or float array the kernel allocates itself (not a parameter):
   fresh on every closure run, so a read can hand it back uncut. *)
let allocated_slot (c : compiled) name =
  match Hashtbl.find_opt c.slots name with
  | Some ({ s_array = true; s_dtype = Imp.Int | Imp.Float; _ } as s)
    when not (List.exists (fun p -> p.Imp.p_name = name) c.c_kernel.k_params) ->
      Some s
  | Some _ | None -> None

let run_closure ~domains ~deadline_ns ~read c ~args =
  let kname = c.c_kernel.Imp.k_name in
  let slot name = match allocated_slot c name with Some s -> s | None -> not_allocated name in
  let reads =
    Option.map
      (List.map (fun (name, ext) ->
           (match ext with
           | Len_at (src, _) when (slot src).s_dtype <> Imp.Int -> not_allocated src
           | Len_at _ | Len _ -> ());
           (name, slot name, ext)))
      read
  in
  let env =
    {
      ints = Array.make (max 1 c.n_ints) 0;
      floats = Array.make (max 1 c.n_floats) 0.;
      bools = Array.make (max 1 c.n_bools) false;
      iarr = Array.make (max 1 c.n_iarr) Ivec.empty;
      farr = Array.make (max 1 c.n_farr) empty_float_array;
      barr = Array.make (max 1 c.n_barr) [||];
      par_domains = max 1 domains;
      deadline_ns;
    }
  in
  List.iter
    (fun p ->
      let name = p.Imp.p_name in
      match (List.assoc_opt name args, p.Imp.p_dtype, p.Imp.p_array) with
      | Some (Aint v), Imp.Int, false ->
          env.ints.((Hashtbl.find c.slots name).s_index) <- int_arg ~kname name v
      | Some (Aint_array v), Imp.Int, true ->
          env.iarr.((Hashtbl.find c.slots name).s_index) <- v
      | Some (Afloat_array v), Imp.Float, true ->
          env.farr.((Hashtbl.find c.slots name).s_index) <- v
      | Some _, _, _ -> invalid_arg (Printf.sprintf "Compile.run: bad binding for %s" name)
      | None, _, _ -> invalid_arg (Printf.sprintf "Compile.run: missing binding for %s" name))
    c.c_kernel.k_params;
  c.code env;
  let lookup name =
    match Hashtbl.find_opt c.slots name with
    | None -> invalid_arg (Printf.sprintf "Compile.run: unknown variable %s" name)
    | Some s -> (
        match (s.s_dtype, s.s_array) with
        | Imp.Int, false -> Aint env.ints.(s.s_index)
        | Imp.Int, true -> Aint_array env.iarr.(s.s_index)
        | Imp.Float, true -> Afloat_array env.farr.(s.s_index)
        | Imp.Bool, false -> Aint (if env.bools.(s.s_index) then 1 else 0)
        | Imp.Float, false -> Afloat env.floats.(s.s_index)
        | Imp.Bool, true -> invalid_arg "Compile.run: bool array read-back unsupported")
  in
  match reads with
  | None -> lookup
  | Some reads ->
      let length name = function
        | Len n -> n
        | Len_at (src, i) ->
            let a = env.iarr.((slot src).s_index) in
            if i < 0 || i >= ilength a then
              bad_length_index ~kname ~var:name ~src ~index:i ~len:(ilength a)
            else Ivec.get a i
      and cap s =
        if s.s_dtype = Imp.Int then ilength env.iarr.(s.s_index)
        else Array.length env.farr.(s.s_index)
      in
      let boxed =
        List.map
          (fun (name, s, ext) ->
            let len = length name ext in
            if len < 0 || len > cap s then bad_length ~kname ~var:name ~len ~cap:(cap s);
            (* An int array is cut as a view: the buffer is this run's
               own, so it needs no copy. *)
            ( name,
              if s.s_dtype = Imp.Int then
                let a = env.iarr.(s.s_index) in
                Aint_array (if len = ilength a then a else Bigarray.Array1.sub a 0 len)
              else
                let a = env.farr.(s.s_index) in
                Afloat_array (if len = Array.length a then a else Array.sub a 0 len) ))
          reads
      in
      fun name ->
        match List.assoc_opt name boxed with
        | Some v -> v
        | None ->
            if Option.is_some (allocated_slot c name) then not_read_back name else lookup name

(* A profiled run also reads back its counter array, adds it into the
   kernel's accumulator and returns it beside the reader. *)
let run_plain ?(domains = 1) ?(deadline_ns = Int64.max_int) ?read c ~args =
  let counters = Taco_lower.Opt.profile_counters in
  let read =
    match (c.c_prof, read) with
    | Some _, Some r -> Some ((counters, Len Taco_lower.Opt.profile_slots) :: r)
    | _ -> read
  in
  (* A read hands the kernel's own buffer over, so it can have one
     reader. *)
  let rec once = function
    | [] -> ()
    | (name, _) :: rest ->
        if List.mem_assoc name rest then
          invalid_arg (Printf.sprintf "Compile.run: %s is read twice" name);
        once rest
  in
  Option.iter once read;
  let reader =
    match c.c_native with
    | Some l ->
        (* [domains] is a closure-chunking knob; the native path hands
           parallel loops to OpenMP, whose thread count is the runtime's
           business. Results are bit-identical either way. *)
        Metrics.inc ~labels:[ ("backend", "native") ] "taco_exec_runs_total";
        run_native c l ~deadline_ns ~read ~args
    | None ->
        Metrics.inc ~labels:[ ("backend", "closure") ] "taco_exec_runs_total";
        run_closure ~domains ~deadline_ns ~read c ~args
  in
  let counts =
    Option.map
      (fun acc ->
        match reader counters with
        | Aint_array a ->
            let n = Ivec.to_array a in
            Array.iteri (fun i a -> ignore (Atomic.fetch_and_add a n.(i) : int)) acc;
            n
        | _ -> assert false)
      c.c_prof
  in
  (reader, counts)

let run ?domains ?deadline_ns ?read c ~args =
  if not (Trace.active ()) then fst (run_plain ?domains ?deadline_ns ?read c ~args)
  else
    Trace.with_span ~cat:"exec"
      ~args:[ ("kernel", c.c_kernel.Imp.k_name) ]
      "exec.run"
      (fun () ->
        let reader, counts = run_plain ?domains ?deadline_ns ?read c ~args in
        Option.iter
          (fun n ->
            let s = stats_of n in
            Trace.set_args
              [
                ("iterations", string_of_int s.iterations);
                ("scalar_ops", string_of_int s.scalar_ops);
                ("allocs", string_of_int s.allocs);
                ("alloc_elems", string_of_int s.alloc_elems);
                ("zero_bytes", string_of_int s.zero_bytes);
                ("reallocs", string_of_int s.reallocs);
                ("sorts", string_of_int s.sorts);
              ])
          counts;
        reader)
