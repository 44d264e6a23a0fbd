/* The arithmetic of netblocks.f_mult and of the tent network
   (netblocks._hat_network) over C-contiguous float64 arrays.

   f_mult runs in four passes: fm_halves, or fm_gather_halves, which
   reads its operands through a fold level's index arrays, writes the
   expm1 arguments of the two halves, numpy's own np.expm1 runs in place
   on each, and fm_combine forms the product from the two expm1 values.
   A tent runs as hat_args, numpy's np.expm1 and np.exp in place,
   hat_units, one f_mult and hat_sum.  Every operation is the IEEE
   operation, on the same operands in the same order, that the numpy
   paths perform, so the two give the same bits.  That holds only when
   no operation is contracted or reassociated: build with
   -ffp-contract=off -fno-fast-math (see fixnet._kernel).  No output
   array overlaps an input one (restrict), which lets the gathering loop
   vectorize.

   On x86-64 each exported loop is cloned for AVX-512F and AVX2, and the
   loader picks the clone the CPU runs, so one library serves every
   x86-64 CPU.  A vector lane does the same IEEE operation as a scalar
   one, so every clone gives the same bits.  Define FIXNET_NO_CLONES
   before this file to build the single generic version. */

#include <math.h>
#include <stddef.h>

#if defined(__x86_64__) && defined(__has_attribute) \
    && !defined(FIXNET_NO_CLONES)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* m[i] = (x[i] + y[i]) / -r and e[i] = (y[i] - x[i]) / r. */
CLONES
void fm_halves(const double *restrict x, const double *restrict y,
               double *restrict m, double *restrict e, size_t n, double r)
{
    const double neg_r = -r;
    for (size_t i = 0; i < n; i++) {
        m[i] = (x[i] + y[i]) / neg_r;
        e[i] = (y[i] - x[i]) / r;
    }
}

/* fm_halves on the gathers x[:, left] and y[:, right], read in place:
   x and y have rows rows of stride entries, and m and e rows rows of
   cols entries.  Returns -1, having written nothing, when an index lies
   outside [0, stride), else 0. */
CLONES
int fm_gather_halves(const double *restrict x, const double *restrict y,
                     size_t stride, const ptrdiff_t *restrict left,
                     const ptrdiff_t *restrict right, double *restrict m,
                     double *restrict e, size_t rows, size_t cols, double r)
{
    for (size_t j = 0; j < cols; j++) {
        if (left[j] < 0 || (size_t)left[j] >= stride
                || right[j] < 0 || (size_t)right[j] >= stride) {
            return -1;
        }
    }
    const double neg_r = -r;
    for (size_t row = 0; row < rows; row++) {
        const double *xr = x + row * stride, *yr = y + row * stride;
        double *mr = m + row * cols, *er = e + row * cols;
        for (size_t j = 0; j < cols; j++) {
            const double a = xr[left[j]], b = yr[right[j]];
            mr[j] = (a + b) / neg_r;
            er[j] = (b - a) / r;
        }
    }
    return 0;
}

/* The second difference of netblocks._second_diff_into, from m = expm1
   of the argument, with z = exp(-base), one_z = 1 + z and neg_z = -z. */
static double second_diff(double m, double z, double one_z, double neg_z)
{
    double e = 1.0 + m;              /* E */
    const double ze = z * e;         /* zE */
    e = ze * e;
    e = 1.0 + e;                     /* 1 + zE*E */
    double t = 1.0 + ze;
    t = one_z * t;                   /* (1+z)(1+zE) */
    e = t * e;                       /* denominator */
    const double one_ze = 1.0 - ze;  /* 1 - zE */
    t = neg_z * m;
    t = t * m;
    t = t * one_ze;                  /* numerator */
    return t / e;
}

/* out[i] = scale * (second_diff(m[i]) - second_diff(e[i])). */
CLONES
void fm_combine(const double *restrict m, const double *restrict e,
                double *restrict out, size_t n, double z, double one_z,
                double neg_z, double scale)
{
    for (size_t i = 0; i < n; i++) {
        const double u = second_diff(m[i], z, one_z, neg_z);
        const double v = second_diff(e[i], z, one_z, neg_z);
        out[i] = scale * (u - v);
    }
}

/* The relu units of a tent are u = t + 1, t and t - 1: unit k of t[i]
   sits at k*n + i in id and sg.  Each loop is inlined once per k, so k
   is a constant in it. */
INLINE double unit(double t, int k)
{
    return k == 0 ? t + 1.0 : k == 1 ? t : t - 1.0;
}

INLINE void args_of(const double *restrict t, double *restrict id,
                    double *restrict sg, size_t n, double r, int k)
{
    for (size_t i = 0; i < n; i++) {
        const double u = unit(t[i], k);
        id[i] = -(u / r);
        sg[i] = -fabs(r * u);
    }
}

/* The arguments of f_id's expm1, -(u / r), into id, and of sigma's exp
   at r*u, -|r*u|, into sg. */
CLONES
void hat_args(const double *restrict t, double *restrict id,
              double *restrict sg, size_t n, double r)
{
    args_of(t, id, sg, n, r, 0);
    args_of(t, id + n, sg + n, n, r, 1);
    args_of(t, id + 2 * n, sg + 2 * n, n, r, 2);
}

INLINE void units_of(const double *restrict t, double *restrict id,
                     double *restrict sg, size_t n, double r,
                     double id_scale, double z, double one_z, double neg_z,
                     int k)
{
    for (size_t i = 0; i < n; i++) {
        const double m = id[i];
        double den = 1.0 + m;            /* E */
        den = z * den;
        den = 1.0 + den;
        den = one_z * den;               /* (1+z)(1+zE) */
        const double num = neg_z * m;
        id[i] = id_scale * (num / den);
        const double e = sg[i];
        const double s_den = e + 1.0;
        sg[i] = (r * unit(t[i], k) >= 0.0 ? 1.0 : e) / s_den;
    }
}

/* From id = expm1 and sg = exp of hat_args' arguments: f_id(u) into id,
   id_scale times netblocks._sigma_diff at base 0 with z = exp(-0), and
   sigma(r*u) into sg, as activation.sigma forms it. */
CLONES
void hat_units(const double *restrict t, double *restrict id,
               double *restrict sg, size_t n, double r, double id_scale,
               double z, double one_z, double neg_z)
{
    units_of(t, id, sg, n, r, id_scale, z, one_z, neg_z, 0);
    units_of(t, id + n, sg + n, n, r, id_scale, z, one_z, neg_z, 1);
    units_of(t, id + 2 * n, sg + 2 * n, n, r, id_scale, z, one_z, neg_z, 2);
}

/* The tent (p1 - 2*p2) + p3 from the products of its three units. */
CLONES
void hat_sum(const double *restrict p, double *restrict out, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        out[i] = (p[i] - 2.0 * p[n + i]) + p[2 * n + i];
    }
}
