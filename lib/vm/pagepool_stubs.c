/* Byte copy between a pool page and an OCaml [bytes] for Sds_vm.Pagepool.
 *
 * One entry point serves both directions: each side is either a [bytes]
 * block (String_tag) or the pool's Bigarray (a custom block), and the
 * OCaml side binds the symbol twice with the two argument orders.  The
 * stub checks nothing: Pagepool's blits validate the page, its liveness
 * and both ranges before calling it, and the sdlint rule c-stub-confined
 * keeps the binding out of every other module.  Declared [@@noalloc]: it
 * never touches the OCaml heap, so no GC can move the [bytes] mid-copy. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static inline unsigned char *sds_base(value v)
{
  return Tag_val(v) == String_tag ? Bytes_val(v) : (unsigned char *)Caml_ba_data_val(v);
}

CAMLprim value sds_pagepool_memcpy(value dst, value dst_off, value src, value src_off,
                                   value len)
{
  memcpy(sds_base(dst) + Long_val(dst_off), sds_base(src) + Long_val(src_off),
         (size_t)Long_val(len));
  return Val_unit;
}
