/* Peak resident set size of the benchmark process, from getrusage(2):
 * the same high-water mark as VmHWM, without reading anything under /proc.
 * Linux reports ru_maxrss in KiB. */

#include <caml/mlvalues.h>
#include <sys/resource.h>

CAMLprim value sdbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
