/* Address arithmetic for Graft's walk (see graft.ml). Both stubs are
   [noalloc]: they read one header at most and allocate nothing. */

#include <caml/mlvalues.h>

/* The block's address in words, as an immediate. */
value sw_graft_key(value v)
{
  return Val_long((uintnat) v / sizeof(value));
}

/* The closure block that the infix pointer [v] points into. */
value sw_graft_enclosing_closure(value v)
{
  return v - Infix_offset_val(v);
}
