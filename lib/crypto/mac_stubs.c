/* Truncated HMAC-MD5 tags from prepared per-key MD5 states.

   A prepared key is the MD5 chaining value after the 64-byte inner pad
   [key ^ ipad] and the one after the outer pad [key ^ opad]. Each pad is
   exactly one MD5 block, so after it a context is fully described by its
   chaining value: the bit count is 512 and the input buffer is empty. A
   tag resumes both contexts from those 32 bytes and hashes
   [nonce_le || msg] and the 16-byte inner digest: the pad blocks are never
   hashed again, and the message is read straight from the OCaml string.

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
  uint32_t inner[4];
  uint32_t outer[4];
};

/* Size of the byte buffer [Mac.prepare] allocates for a prepared key. */
value bft_mac_prepared_size(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct prepared));
}

static void absorb_pad(uint32_t state[4], value pad)
{
  struct MD5Context ctx;
  caml_MD5Init(&ctx);
  caml_MD5Update(&ctx, (unsigned char *)String_val(pad), PAD_LEN);
  memcpy(state, ctx.buf, sizeof ctx.buf);
}

/* [ipad] and [opad] are the 64-byte pads of a normalised key. */
value bft_mac_prepare(value ipad, value opad, value dst)
{
  struct prepared p;
  absorb_pad(p.inner, ipad);
  absorb_pad(p.outer, opad);
  memcpy(Bytes_val(dst), &p, sizeof p);
  return Val_unit;
}

/* The context right after one pad block with chaining value [state]. */
static void resume(struct MD5Context *ctx, const uint32_t state[4])
{
  memcpy(ctx->buf, state, sizeof ctx->buf);
  ctx->bits[0] = PAD_LEN * 8;
  ctx->bits[1] = 0;
}

static void tag16(value prepared, int64_t nonce, value msg,
                  unsigned char out[16])
{
  struct prepared p;
  struct MD5Context ctx;
  unsigned char nonce_le[8];
  unsigned char inner[16];
  int i;
  memcpy(&p, Bytes_val(prepared), sizeof p);
  for (i = 0; i < 8; i++)
    nonce_le[i] = (unsigned char)((uint64_t)nonce >> (8 * i));
  resume(&ctx, p.inner);
  caml_MD5Update(&ctx, nonce_le, sizeof nonce_le);
  caml_MD5Update(&ctx, (unsigned char *)String_val(msg),
                 caml_string_length(msg));
  caml_MD5Final(inner, &ctx);
  resume(&ctx, p.outer);
  caml_MD5Update(&ctx, inner, sizeof inner);
  caml_MD5Final(out, &ctx);
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
