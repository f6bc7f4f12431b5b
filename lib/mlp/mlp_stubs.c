/* Batched MLP inference kernel behind Mlp.Network.forward_batch, the
   planning hot path (see network.mli for the float contract).

   The network runs over one block of BLOCK rows at a time, all layers,
   before moving to the next block. The block is transposed to
   feature-major order on entry, so each layer's activations are a
   (width x BLOCK) tile that stays in L1 and the innermost loop runs
   across BLOCK independent rows: BLOCK accumulator chains per output
   neuron, which the compiler keeps in vector registers.

   Bit-identity with the Tensor pipeline (Tensor.matmul_nt, then
   add_row_inplace, then relu_inplace) rests on three rules:
   - each output element is [acc = acc + x * w] with a separate multiply
     and add, in ascending k, from 0.0; the dune rule compiles this file
     with -ffp-contract=off so the pair is never fused into an FMA;
   - the bias is added after the dot product;
   - hidden layers apply [v < 0.0 ? 0.0 : v] (NaN and -0.0 pass through).
   Blocking changes which rows are computed together, never the
   operations within one row, and the zero padding of a ragged last
   block only feeds rows that are never written back. */

#include <stdlib.h>
#include <string.h>

#define CAML_NAME_SPACE
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#define BLOCK 32

/* On x86-64 GCC the loader picks the widest clone the CPU supports
   (ifunc dispatch, hence glibc); every clone obeys the same float
   rules. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__GLIBC__)
#define ISAAC_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ISAAC_CLONES
#endif

/* [params] holds, per layer, the (fan_out x fan_in) row-major weights
   followed by the fan_out biases. [cur] and [next] each hold
   max-width x BLOCK doubles. */
ISAAC_CLONES static void
forward_rows(const double *restrict x, double *restrict out, long n,
             long nlayers, const long *widths, const double *params,
             double *cur, double *next)
{
  const long in0 = widths[0], out_w = widths[nlayers];
  for (long row0 = 0; row0 < n; row0 += BLOCK) {
    const long rows = n - row0 < BLOCK ? n - row0 : BLOCK;
    double *a = cur, *z = next;
    for (long k = 0; k < in0; k++) {
      const double *src = x + row0 * in0 + k;
      double *dst = a + k * BLOCK;
      long r = 0;
      for (; r < rows; r++) dst[r] = src[r * in0];
      for (; r < BLOCK; r++) dst[r] = 0.0;
    }
    const double *p = params;
    for (long l = 0; l < nlayers; l++) {
      const long fan_in = widths[l], fan_out = widths[l + 1];
      const double *w = p, *b = p + fan_in * fan_out;
      p = b + fan_out;
      const int relu = l < nlayers - 1;
      for (long j = 0; j < fan_out; j++) {
        const double *wj = w + j * fan_in;
        double acc[BLOCK];
        for (int r = 0; r < BLOCK; r++) acc[r] = 0.0;
        for (long k = 0; k < fan_in; k++) {
          const double wk = wj[k];
          const double *ak = a + k * BLOCK;
          for (int r = 0; r < BLOCK; r++) acc[r] = acc[r] + ak[r] * wk;
        }
        const double bj = b[j];
        double *zj = z + j * BLOCK;
        if (relu)
          for (int r = 0; r < BLOCK; r++) {
            const double v = acc[r] + bj;
            zj[r] = v < 0.0 ? 0.0 : v;
          }
        else
          for (int r = 0; r < BLOCK; r++) zj[r] = acc[r] + bj;
      }
      double *t = a;
      a = z;
      z = t;
    }
    for (long r = 0; r < rows; r++)
      for (long j = 0; j < out_w; j++)
        out[(row0 + r) * out_w + j] = a[j * BLOCK + r];
  }
}

static long float_array_length(value v)
{
  if (Wosize_val(v) == 0) return 0;
  if (Tag_val(v) != Double_array_tag)
    caml_invalid_argument("Mlp.Network.forward_batch: parameters are not a float array");
  return (long)(Wosize_val(v) / Double_wosize);
}

/* isaac_mlp_forward input n arch params output: run the network over
   rows [0, n) of [input] (n x arch.(0), row-major) into [output]
   (n x arch.(last)). [params] alternates each layer's weight and bias
   arrays. The parameters are copied out of the OCaml heap first, so
   the block loop runs with the runtime lock released; the two
   Bigarrays live outside the heap and are kept alive as roots. */
CAMLprim value isaac_mlp_forward(value v_input, value v_n, value v_arch,
                                 value v_params, value v_output)
{
  CAMLparam5(v_input, v_n, v_arch, v_params, v_output);
  const long n = Long_val(v_n);
  const long nwidths = (long)Wosize_val(v_arch);
  if (nwidths < 2 || (long)Wosize_val(v_params) != 2 * (nwidths - 1) || n < 0)
    caml_invalid_argument("Mlp.Network.forward_batch: malformed network");
  const long nlayers = nwidths - 1;
  long *widths = malloc(nwidths * sizeof(long));
  if (widths == NULL) caml_raise_out_of_memory();
  long total = 0, maxw = 0;
  for (long i = 0; i < nwidths; i++) {
    widths[i] = Long_val(Field(v_arch, i));
    if (widths[i] < 1) {
      free(widths);
      caml_invalid_argument("Mlp.Network.forward_batch: malformed network");
    }
    if (widths[i] > maxw) maxw = widths[i];
  }
  for (long l = 0; l < nlayers; l++) {
    const long nw = widths[l] * widths[l + 1], nb = widths[l + 1];
    if (float_array_length(Field(v_params, 2 * l)) != nw
        || float_array_length(Field(v_params, 2 * l + 1)) != nb) {
      free(widths);
      caml_invalid_argument("Mlp.Network.forward_batch: weight shape mismatch");
    }
    total += nw + nb;
  }
  if ((long)Caml_ba_array_val(v_input)->dim[0] < n * widths[0]
      || (long)Caml_ba_array_val(v_output)->dim[0] < n * widths[nlayers]) {
    free(widths);
    caml_invalid_argument("Mlp.Network.forward_batch: buffer too small");
  }
  /* One 64-byte-aligned buffer: parameters, then the two activation
     tiles. */
  const long params_len = (total + 7) & ~7L;
  double *buf = NULL;
  if (posix_memalign((void **)&buf, 64,
                     (params_len + 2 * maxw * BLOCK) * sizeof(double)) != 0) {
    free(widths);
    caml_raise_out_of_memory();
  }
  double *p = buf;
  for (long l = 0; l < nlayers; l++) {
    const long nw = widths[l] * widths[l + 1], nb = widths[l + 1];
    memcpy(p, (const double *)Field(v_params, 2 * l), nw * sizeof(double));
    p += nw;
    memcpy(p, (const double *)Field(v_params, 2 * l + 1), nb * sizeof(double));
    p += nb;
  }
  const double *x = (const double *)Caml_ba_data_val(v_input);
  double *out = (double *)Caml_ba_data_val(v_output);
  caml_enter_blocking_section();
  forward_rows(x, out, n, nlayers, widths, buf, buf + params_len,
               buf + params_len + maxw * BLOCK);
  caml_leave_blocking_section();
  free(buf);
  free(widths);
  CAMLreturn(Val_unit);
}
