/* OCaml <-> dlopen bridge for the native execution backend.
 *
 * The generated translation unit (Codegen_c.emit_exec) exports one
 * entry point per kernel it holds, each with the same flat ABI:
 *
 *   int taco_entry_<i>(const int64_t* iargs, const double* fargs,
 *                      void** aargs, void** esc, int64_t* esc_len,
 *                      int64_t mem_limit, int64_t deadline_ns,
 *                      const taco_rt_t* rt);
 *
 * rt is the kernel runtime table below: allocation, growth, sorting
 * and the clock, built once with the library instead of being compiled
 * into every kernel. Generated kernels include no header and are
 * linked without libc; the memset/memcpy/malloc calls the compiler
 * emits for their builtins resolve against this process's libc when
 * the kernel is loaded. Every buffer a kernel hands
 * back was allocated by this table, so it is released here with
 * free().
 *
 * taco_nat_call marshals an OCaml call_spec record into that shape.
 * No argument is copied:
 *   - int arrays are int32 Bigarrays (Taco_support.Ivec), whose data
 *     lives outside the OCaml heap: the kernel reads and writes it in
 *     place through Caml_ba_data_val;
 *   - float arrays cross with no copy too: an OCaml float array is a
 *     flat double buffer, so its value pointer IS the double*. The call
 *     performs no OCaml allocation before the kernel returns, so the
 *     GC cannot move the buffers while the kernel runs. The cost of the
 *     zero-copy path arises only where another domain exists: a
 *     stop-the-world collection it asks for waits until this call
 *     returns. Threads of this domain wait anyway, as the call holds
 *     the domain's lock, and a process whose service runs its workers
 *     as threads of one domain (no spare core) has no other domain;
 *   - arrays the kernel allocates come back through esc/esc_len
 *     (esc_len is each buffer's capacity). Only the escapes named by
 *     the read list are handed back, each at the exact length the
 *     caller asked for (a constant, or the int value one escape holds
 *     at a given index: the kernel's own pos[parent_size]). An int
 *     escape is trimmed with realloc to that length and becomes a
 *     CAML_BA_MANAGED Bigarray, which the GC frees with free() as
 *     release does; a float escape is copied into a fresh float array.
 *     Every other escape is freed here without ever becoming an OCaml
 *     value.
 *
 * The call_spec record layout is fixed by lib/exec/native.ml — field
 * order there is field order here:
 *   0 cs_ints      int array      (int scalar params, in order)
 *   1 cs_floats    float array    (float scalar params, in order)
 *   2 cs_arrays    Obj.t array    (array params, in order)
 *   3 cs_kinds     int array      (0 = int32 Bigarray, 1 = float array)
 *   4 cs_esc_kinds int array      (0 = int escape, 1 = float escape)
 *   5 cs_mem_limit int64
 *   6 cs_deadline  int64
 *   7 cs_read_esc  int array      (escape boxed by each read, in order)
 *   8 cs_read_src  int array      (-2 = whole capacity, -1 = length is
 *                                  cs_read_arg, k >= 0 = length is int
 *                                  escape k at index cs_read_arg)
 *   9 cs_read_arg  int array
 *
 * Return: (rc, arrays). rc 0 hands back one array per read, in read
 * order. rc 1 (allocation refused or failed) returns [| refused
 * element count, or -1 |]. rc 3 (length outside the capacity) and rc 4
 * (length index outside its source escape) are read-back failures,
 * checked before anything is handed back; arrays is then [| read
 * index; offending value; bound |].
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>

/* Layout contract with the typedef Codegen_c.emit_exec writes into
 * every kernel: field order and signatures must match. Each call runs
 * against its own copy of the table, whose refused field points at the
 * call's refusal record, so alloc and grow reach the call that owns
 * them from whichever thread runs them (an OpenMP worker included). */
typedef struct taco_rt {
  void *(*alloc)(const struct taco_rt *rt, void *p, int64_t *cap, int64_t n, size_t size,
                 int64_t limit);
  void *(*grow)(const struct taco_rt *rt, void *p, int64_t *cap, int64_t n, size_t size,
                int64_t limit);
  void (*sort_i32)(int32_t *a, int64_t n);
  int64_t (*now_ns)(void);
  void (*release)(void *p);
  int64_t *refused;
} taco_rt_t;

typedef int (*taco_entry_fn)(const int64_t *, const double *, void **, void **,
                             int64_t *, int64_t, int64_t, const taco_rt_t *);

/* The closure executor's budget rule: an allocation of n elements is
   refused when n > limit/8 (8 bytes per element whatever the type). */
static int over_budget(int64_t n, int64_t limit)
{
  return limit != INT64_MAX && n > limit / 8;
}

/* Record the element count the budget refused in the call's record,
   -1 until then: reported with E_EXEC_MEM as the closure executor
   reports it. The first refusal of a call is kept, whichever thread
   makes it. */
static void refuse(const taco_rt_t *rt, int64_t n)
{
  int64_t none = -1;
  __atomic_compare_exchange_n(rt->refused, &none, n, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED);
}

/* Imp.Alloc: release p, then max(1, n) zeroed elements. NULL when the
   budget refuses or calloc fails; *cap is the element count. */
static void *rt_alloc(const taco_rt_t *rt, void *p, int64_t *cap, int64_t n, size_t size,
                      int64_t limit)
{
  free(p);
  *cap = 0;
  if (n < 1) n = 1;
  if (over_budget(n, limit)) {
    refuse(rt, n);
    return NULL;
  }
  p = calloc((size_t)n, size);
  if (p) *cap = n;
  return p;
}

/* Imp.Realloc: grow to max(*cap, n) elements with a zeroed tail. On
   failure p is released and NULL returned, so the kernel's failure
   path has nothing left to free. */
static void *rt_grow(const taco_rt_t *rt, void *p, int64_t *cap, int64_t n, size_t size,
                     int64_t limit)
{
  int64_t old = *cap;
  if (n < old) n = old;
  if (over_budget(n, limit)) {
    refuse(rt, n);
    free(p);
    return NULL;
  }
  if (n == old) return p;
  void *q = realloc(p, (size_t)n * size);
  if (!q) {
    free(p);
    return NULL;
  }
  memset((char *)q + (size_t)old * size, 0, (size_t)(n - old) * size);
  *cap = n;
  return q;
}

static void swap_i32(int32_t *a, int64_t i, int64_t j)
{
  int32_t t = a[i];
  a[i] = a[j];
  a[j] = t;
}

static void sift_i32(int32_t *a, int64_t i, int64_t n)
{
  for (int64_t c; (c = 2 * i + 1) < n; i = c) {
    if (c + 1 < n && a[c + 1] > a[c]) c++;
    if (a[i] >= a[c]) return;
    swap_i32(a, i, c);
  }
}

/* Imp.Sort: ascending int32 sort. Introsort: median-of-three
   three-way quicksort, insertion sort below 17 elements, heapsort once
   the recursion is deeper than 2 log2 n. */
static void sort_i32_depth(int32_t *a, int64_t n, int depth)
{
  while (n > 16) {
    if (depth-- == 0) {
      for (int64_t i = n / 2; i-- > 0;) sift_i32(a, i, n);
      for (int64_t e = n - 1; e > 0; e--) {
        swap_i32(a, 0, e);
        sift_i32(a, 0, e);
      }
      return;
    }
    int32_t x = a[0], y = a[n / 2], z = a[n - 1];
    int32_t p = x < y ? (y < z ? y : (x < z ? z : x)) : (x < z ? x : (y < z ? z : y));
    /* [0, lt) < p, [lt, i) == p, [gt, n) > p; p occurs in a, so the
       middle band is never empty and both sides shrink. */
    int64_t lt = 0, i = 0, gt = n;
    while (i < gt) {
      if (a[i] < p) swap_i32(a, lt++, i++);
      else if (a[i] > p) swap_i32(a, i, --gt);
      else i++;
    }
    if (lt < n - gt) {
      sort_i32_depth(a, lt, depth);
      a += gt;
      n -= gt;
    } else {
      sort_i32_depth(a + gt, n - gt, depth);
      n = lt;
    }
  }
  for (int64_t i = 1; i < n; i++) {
    int32_t v = a[i];
    int64_t j = i;
    for (; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1];
    a[j] = v;
  }
}

/* The bounded-range path of Imp.Sort: each value of a slice spanning
   `range` values from lo sets one bit of a stack bitmap, and scanning
   the set bits with ctz writes the slice back in order. Returns 0 with
   the slice untouched when a value repeats, for the introsort to take. */
#define SORT_BITMAP_BITS 32768

static int bitmap_sort_i32(int32_t *a, int64_t n, int32_t lo, int64_t range)
{
  uint64_t bits[SORT_BITMAP_BITS / 64];
  int64_t words = (range + 63) / 64;
  memset(bits, 0, (size_t)words * sizeof bits[0]);
  for (int64_t i = 0; i < n; i++) {
    int64_t d = (int64_t)a[i] - lo;
    uint64_t m = (uint64_t)1 << (d & 63);
    if (bits[d >> 6] & m) return 0;
    bits[d >> 6] |= m;
  }
  int32_t *out = a;
  for (int64_t w = 0; w < words; w++)
    for (uint64_t b = bits[w]; b; b &= b - 1)
      *out++ = (int32_t)(lo + w * 64 + __builtin_ctzll(b));
  return 1;
}

/* Slices of 16 or fewer go straight to insertion sort. A longer slice
   whose values span at most 64 per element and at most
   SORT_BITMAP_BITS values takes the bitmap; everything else, and a
   bitmap slice with a repeated value, takes the introsort. A workspace
   coordinate list is distinct and bounded by the workspace dimension,
   so its rows usually take the bitmap. */
static void rt_sort_i32(int32_t *a, int64_t n)
{
  if (n > 16) {
    int32_t lo = a[0], hi = a[0];
    for (int64_t i = 1; i < n; i++) {
      if (a[i] < lo) lo = a[i];
      if (a[i] > hi) hi = a[i];
    }
    int64_t range = (int64_t)hi - lo + 1;
    if (range <= SORT_BITMAP_BITS && range <= 64 * n && bitmap_sort_i32(a, n, lo, range))
      return;
  }
  int depth = 0;
  for (int64_t m = n; m > 1; m >>= 1) depth += 2;
  sort_i32_depth(a, n, depth);
}

/* The deadline clock: CLOCK_MONOTONIC, the clock Trace.now_ns reads. */
static int64_t rt_now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000LL + (int64_t)ts.tv_nsec;
}

static const taco_rt_t taco_rt = { rt_alloc, rt_grow, rt_sort_i32, rt_now_ns, free, NULL };

CAMLprim value taco_nat_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value taco_nat_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *)Nativeint_val(vhandle);
  void *fn = h ? dlsym(h, String_val(vname)) : NULL;
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value taco_nat_dlclose(value vhandle)
{
  CAMLparam1(vhandle);
  void *h = (void *)Nativeint_val(vhandle);
  if (h) dlclose(h);
  CAMLreturn(Val_unit);
}

static void *xmalloc(size_t n) { return malloc(n ? n : 1); }

/* Hand int escape e over as an int32 Bigarray of len elements: the
   buffer is trimmed to len (a failed trim keeps the larger buffer) and
   the Bigarray owns it from here, freed with free() when collected. */
static value hand_over_ints(void **esc, mlsize_t e, mlsize_t len)
{
  void *p = realloc(esc[e], (len ? len : 1) * sizeof(int32_t));
  if (p) esc[e] = p;
  p = esc[e];
  esc[e] = NULL;
  return caml_ba_alloc_dims(CAML_BA_INT32 | CAML_BA_C_LAYOUT | CAML_BA_MANAGED, 1, p,
                            (intnat)len);
}

CAMLprim value taco_nat_call(value vfn, value vspec)
{
  CAMLparam2(vfn, vspec);
  CAMLlocal3(vres, vescs, varr);

  taco_entry_fn fn = (taco_entry_fn)Nativeint_val(vfn);

  mlsize_t n_ints = Wosize_val(Field(vspec, 0));
  mlsize_t n_floats = Wosize_val(Field(vspec, 1));
  mlsize_t n_arr = Wosize_val(Field(vspec, 2));
  mlsize_t n_esc = Wosize_val(Field(vspec, 4));
  int64_t mem_limit = Int64_val(Field(vspec, 5));
  int64_t deadline = Int64_val(Field(vspec, 6));

  int64_t *iargs = xmalloc(sizeof(int64_t) * n_ints);
  double *fargs = xmalloc(sizeof(double) * n_floats);
  void **aargs = xmalloc(sizeof(void *) * n_arr);
  void **esc = xmalloc(sizeof(void *) * n_esc);
  int64_t *esc_len = xmalloc(sizeof(int64_t) * n_esc);
  if (!iargs || !fargs || !aargs || !esc || !esc_len) {
    free(iargs); free(fargs); free(aargs); free(esc); free(esc_len);
    caml_failwith("taco_nat_call: out of memory");
  }
  memset(esc, 0, sizeof(void *) * n_esc);
  memset(esc_len, 0, sizeof(int64_t) * n_esc);

  for (mlsize_t i = 0; i < n_ints; i++)
    iargs[i] = Long_val(Field(Field(vspec, 0), i));
  for (mlsize_t i = 0; i < n_floats; i++)
    fargs[i] = Double_flat_field(Field(vspec, 1), i);
  /* Both kinds cross by pointer: an int32 Bigarray's data, or a float
     array's unboxed double buffer. */
  for (mlsize_t i = 0; i < n_arr; i++) {
    value a = Field(Field(vspec, 2), i);
    aargs[i] = Long_val(Field(Field(vspec, 3), i)) == 1 ? (void *)((double *)a) : Caml_ba_data_val(a);
  }

  int64_t refused = -1;
  taco_rt_t rt = taco_rt;
  rt.refused = &refused;
  int rc = fn(iargs, fargs, aargs, esc, esc_len, mem_limit, deadline, &rt);

  /* Resolve every read length before the first allocation, so a bad
     length hands nothing back. */
  mlsize_t n_read = Wosize_val(Field(vspec, 7));
  int64_t *lens = xmalloc(sizeof(int64_t) * n_read);
  int64_t fault[3] = {0, 0, 0};
  if (rc == 0 && !lens) rc = 1; /* E_EXEC_MEM */
  for (mlsize_t r = 0; rc == 0 && r < n_read; r++) {
    long e = Long_val(Field(Field(vspec, 7), r));
    long src = Long_val(Field(Field(vspec, 8), r));
    int64_t arg = (int64_t)Long_val(Field(Field(vspec, 9), r));
    int64_t len;
    if (src == -2) {
      len = esc_len[e];
    } else if (src == -1) {
      len = arg;
    } else if (arg < 0 || arg >= esc_len[src]) {
      rc = 4; fault[0] = (int64_t)r; fault[1] = arg; fault[2] = esc_len[src];
      break;
    } else {
      len = ((int32_t *)esc[src])[arg];
    }
    if (len < 0 || len > esc_len[e]) {
      rc = 3; fault[0] = (int64_t)r; fault[1] = len; fault[2] = esc_len[e];
      break;
    }
    lens[r] = len;
  }

  /* Hand back exactly the requested prefixes (the read list names each
     escape once). Allocation happens here, so every OCaml value is
     re-read through the registered roots vspec/vescs/varr. */
  if (rc == 0 && n_read > 0) {
    vescs = caml_alloc(n_read, 0);
    for (mlsize_t r = 0; r < n_read; r++) {
      long e = Long_val(Field(Field(vspec, 7), r));
      mlsize_t len = (mlsize_t)lens[r];
      if (Long_val(Field(Field(vspec, 4), e)) == 1) {
        varr = caml_alloc_float_array(len);
        if (len > 0) memcpy((double *)varr, esc[e], len * sizeof(double));
      } else {
        varr = hand_over_ints(esc, e, len);
      }
      Store_field(vescs, r, varr);
    }
  } else if (rc == 3 || rc == 4) {
    vescs = caml_alloc(3, 0);
    for (int k = 0; k < 3; k++) Store_field(vescs, k, Val_long((intnat)fault[k]));
  } else if (rc == 1) {
    vescs = caml_alloc(1, 0);
    Store_field(vescs, 0, Val_long((intnat)refused));
  } else {
    vescs = Atom(0);
  }
  free(lens);
  /* On success the kernel handed ownership of the escape buffers to
     us, and the ones handed over above are NULL now; on failure it
     already freed everything and esc[] is NULL. */
  for (mlsize_t i = 0; i < n_esc; i++) free(esc[i]);
  free(iargs); free(fargs); free(aargs); free(esc); free(esc_len);

  vres = caml_alloc_tuple(2);
  Store_field(vres, 0, Val_long(rc));
  Store_field(vres, 1, vescs);
  CAMLreturn(vres);
}
