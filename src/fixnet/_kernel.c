/* The arithmetic of netblocks.f_mult over C-contiguous float64 arrays.

   f_mult runs in four passes: fm_halves writes the expm1 arguments of
   the two halves, numpy's own np.expm1 runs in place on each, and
   fm_combine forms the product from the two expm1 values.  Every
   operation is the IEEE operation, on the same operands in the same
   order, that the numpy path of f_mult performs, so the two give the
   same bits.  That holds only when no operation is contracted or
   reassociated: build with -ffp-contract=off -fno-fast-math (see
   fixnet._kernel). */

#include <stddef.h>

/* m[i] = (x[i] + y[i]) / -r and e[i] = (y[i] - x[i]) / r. */
void fm_halves(const double *x, const double *y, double *m, double *e,
               size_t n, double r)
{
    const double neg_r = -r;
    for (size_t i = 0; i < n; i++) {
        m[i] = (x[i] + y[i]) / neg_r;
        e[i] = (y[i] - x[i]) / r;
    }
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
void fm_combine(const double *m, const double *e, double *out, size_t n,
                double z, double one_z, double neg_z, double scale)
{
    for (size_t i = 0; i < n; i++) {
        const double u = second_diff(m[i], z, one_z, neg_z);
        const double v = second_diff(e[i], z, one_z, neg_z);
        out[i] = scale * (u - v);
    }
}
