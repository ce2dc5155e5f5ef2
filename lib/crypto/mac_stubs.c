/* Truncated HMAC-MD5 tags from prepared per-key MD5 states.

   A prepared key holds two MD5 contexts: one that has absorbed the
   64-byte inner pad [key ^ ipad] and one that has absorbed the outer pad
   [key ^ opad]. Each pad is exactly one MD5 block, so both contexts sit
   on a block boundary with an empty input buffer. A tag then copies the
   two contexts and hashes [nonce_le || msg] and the 16-byte inner digest:
   the pad blocks are never hashed again, and the message is read straight
   from the OCaml string.

   No entry point allocates on the OCaml heap, raises, or calls back into
   OCaml, so every one is declared [@@noalloc]; the [_byte] variants are
   the bytecode entry points of the functions taking an unboxed nonce. */

#define CAML_INTERNALS
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/md5.h>

#define PAD_LEN 64
#define TAG_LEN 8

struct prepared {
  struct MD5Context inner;
  struct MD5Context outer;
};

/* Size of the byte buffer [Mac.prepare] allocates for a prepared key. */
value bft_mac_prepared_size(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct prepared));
}

/* [ipad] and [opad] are the 64-byte pads of a normalised key. */
value bft_mac_prepare(value ipad, value opad, value dst)
{
  struct prepared p;
  caml_MD5Init(&p.inner);
  caml_MD5Update(&p.inner, (unsigned char *)String_val(ipad), PAD_LEN);
  caml_MD5Init(&p.outer);
  caml_MD5Update(&p.outer, (unsigned char *)String_val(opad), PAD_LEN);
  memcpy(Bytes_val(dst), &p, sizeof p);
  return Val_unit;
}

static void tag16(value prepared, int64_t nonce, value msg,
                  unsigned char out[16])
{
  struct prepared p;
  unsigned char nonce_le[8];
  unsigned char inner[16];
  int i;
  memcpy(&p, Bytes_val(prepared), sizeof p);
  for (i = 0; i < 8; i++)
    nonce_le[i] = (unsigned char)((uint64_t)nonce >> (8 * i));
  caml_MD5Update(&p.inner, nonce_le, sizeof nonce_le);
  caml_MD5Update(&p.inner, (unsigned char *)String_val(msg),
                 caml_string_length(msg));
  caml_MD5Final(inner, &p.inner);
  caml_MD5Update(&p.outer, inner, sizeof inner);
  caml_MD5Final(out, &p.outer);
}

value bft_mac_tag_into(value prepared, int64_t nonce, value msg, value dst)
{
  unsigned char full[16];
  tag16(prepared, nonce, msg, full);
  memcpy(Bytes_val(dst), full, TAG_LEN);
  return Val_unit;
}

value bft_mac_tag_into_byte(value prepared, value nonce, value msg, value dst)
{
  return bft_mac_tag_into(prepared, Int64_val(nonce), msg, dst);
}

/* Constant time over the tag bytes; a tag of any other length fails. */
value bft_mac_verify(value prepared, int64_t nonce, value msg, value tag)
{
  unsigned char full[16];
  const unsigned char *t;
  unsigned int acc = 0;
  int i;
  if (caml_string_length(tag) != TAG_LEN) return Val_false;
  tag16(prepared, nonce, msg, full);
  t = (const unsigned char *)String_val(tag);
  for (i = 0; i < TAG_LEN; i++) acc |= (unsigned int)(full[i] ^ t[i]);
  return Val_bool(acc == 0);
}

value bft_mac_verify_byte(value prepared, value nonce, value msg, value tag)
{
  return bft_mac_verify(prepared, Int64_val(nonce), msg, tag);
}
