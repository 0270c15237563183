/* C stubs for Obs.

   Monotonic clock: CLOCK_MONOTONIC seconds as a double. The OCaml-side
   external is declared [@@noalloc] with an unboxed float return, so the
   common call compiles to a plain C call with no GC interaction; the
   boxed variant exists only for bytecode.

   GC collection counts: the runtime's process-wide minor and major
   collection counters, read directly. Gc.quick_stat reports the same
   numbers but sums every domain's statistics to do it (~1.5 us), too
   slow to bracket each request on the serving path.

   Major words: the calling domain's words allocated directly in or
   promoted to the major heap — the sum Gc.counters reports as promoted
   plus major words, without allocating the triple. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/minor_gc.h>
#include <caml/gc_ctrl.h>
#include <time.h>

double xseed_obs_monotonic_s_unboxed(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

CAMLprim value xseed_obs_monotonic_s(value unit)
{
  return caml_copy_double(xseed_obs_monotonic_s_unboxed(unit));
}

value xseed_obs_minor_collections(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&caml_minor_collections_count));
}

value xseed_obs_major_collections(value unit)
{
  (void)unit;
  return Val_long(caml_major_cycles_completed);
}

double xseed_obs_major_words_unboxed(value unit)
{
  (void)unit;
  return (double)Caml_state->stat_promoted_words
         + Caml_state->stat_major_words
         + (double)Caml_state->allocated_words;
}

CAMLprim value xseed_obs_major_words(value unit)
{
  return caml_copy_double(xseed_obs_major_words_unboxed(unit));
}
