/* Monotonic clock in integer nanoseconds. Unix.gettimeofday resolves
   microseconds only, too coarse for sub-microsecond query classes. */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}
