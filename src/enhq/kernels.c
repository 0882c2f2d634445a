/* Stepping kernels of enhq.dynamics, loaded by enhq/kernels.py through ctypes.
 *
 * Each kernel takes one bulk of steps and its run's state, and is the
 * Python loop of the same name in dynamics.py (_toy_gravity_bulk,
 * _newton_bulk) written in C: every float operation in the same order on
 * IEEE doubles, and every check the same, so both give the same bits.
 * That holds only when each operation is rounded once, to double: the
 * library is built with -ffp-contract=off, so that no a * b + c becomes a
 * fused multiply-add, and never with -ffast-math, which would reorder sums
 * and assume that no NaN occurs.  Any change to the arithmetic of a step
 * is made here, in dynamics.py and in tests/references.py together.
 */
#include <float.h>
#include <math.h>

#if FLT_EVAL_METHOD != 0 || defined(__FAST_MATH__)
#error "the kernels need each double operation rounded once, to double"
#endif

/* toy_gravity_bulk's state s: read on entry, and all but the first five
   written back on return, with the last step's dt */
enum { C, FLOOR, THROTTLE, DT_MIN, DT0, T, LOST, P, Q, HI, LO, LOW, DT };

/* Up to n exact midpoint steps of H = q p^2 + c / q (see _toy_gravity_bulk).
   The steps k = 0 mod stride, counted down by left, go to kept[0..m),
   kept[n..n + m) and kept[2n..2n + m) as t, p and q, with m in *n_kept.
   Returns the number of good steps: n, or the index of the step that has
   no midpoint solution or leaves floor < q < inf. */
long toy_gravity_bulk(double *s, long n, long left, long stride, double *kept, long *n_kept)
{
    const double c = s[C], q_floor = s[FLOOR], throttle = s[THROTTLE], dt_min = s[DT_MIN];
    const double dt0 = s[DT0];
    double t = s[T], lost = s[LOST], p = s[P], q = s[Q];
    double hi = s[HI], lo = s[LO], low = s[LOW];
    double cq = c / q, dt = dt0;
    long i, m = 0;

    for (i = 0; i < n; i++) {
        dt = dt0;
        if (p < 0.0) {
            double v = -2.0 * q * p;
            if (v > 0.0) {
                double cap = throttle * q / v;
                if (cap < dt_min)
                    cap = dt_min;
                if (cap < dt)
                    dt = cap;
            }
        }
        double r = cq / q;
        double rdt2 = r * dt * dt;
        double a = 0.5 * dt * (1.0 - rdt2);
        double b = 1.0 + rdt2;
        double k = p + 0.5 * dt * r;
        double disc = b * b + 4.0 * a * k;
        if (disc < 0.0)
            break;
        double pm = 2.0 * k / (b + sqrt(disc));
        double u = 1.0 - dt * pm;
        if (u <= 0.0)
            break;
        double q1 = 2.0 * q / u - q;
        if (!(q_floor < q1 && q1 < INFINITY))
            break;
        p = 2.0 * pm - p;
        q = q1;
        double y = dt - lost;
        double sum = t + y;
        lost = (sum - t) - y;
        t = sum;
        cq = c / q;
        double e = q * p * p + cq;
        if (e > hi)
            hi = e;
        else if (e < lo)
            lo = e;
        if (q < low)
            low = q;
        if (!--left) {
            left = stride;
            kept[m] = t;
            kept[n + m] = p;
            kept[2 * n + m] = q;
            m++;
        }
    }
    s[T] = t;
    s[LOST] = lost;
    s[P] = p;
    s[Q] = q;
    s[HI] = hi;
    s[LO] = lo;
    s[LOW] = low;
    s[DT] = dt;
    *n_kept = m;
    return i;
}

/* newton_bulk's parameters */
enum { GPP, GPQ, GQQ, STEP, K0, W, TOL };

/* Up to n Newton plane steps of rotsym (see _newton_bulk).  x[0..4) holds
   the plane coefficients (pp, pq, qp, qq) of the step before the bulk, and
   each good step writes its own four after them.  Returns the number of
   good steps: n, or the index of the step whose start overflows or whose
   Newton solve does not converge in max_iter iterations. */
long newton_bulk(double *x, long n, const double *par, long max_iter)
{
    const double gpp = par[GPP], gpq = par[GPQ], gqq = par[GQQ];
    const double dt = par[STEP], k0 = par[K0], w = par[W], tol = par[TOL];
    const double dt2 = 2.0 * dt;
    double pp = x[0], pq = x[1], qp = x[2], qq = x[3];
    long k;

    for (k = 0; k < n; k++) {
        double ap = qp + dt * pp, aq = qq + dt * pq;
        double A = w * (ap * ap * gpp + 2.0 * ap * aq * gpq + aq * aq * gqq);
        double s = 1.0 + k0 + A;
        s *= s;
        if (s == INFINITY)
            break;
        double kappa = k0 + A / s;
        long left = max_iter;
        int solved = 0;
        while (left) {
            left--;
            s = 1.0 + kappa;
            double g = A / (s * s);
            double step = (kappa - k0 - g) / (1.0 + 2.0 * g / s);
            kappa -= step;
            double bound = tol * kappa;
            if (-bound <= step && step <= bound) {
                solved = 1;
                break;
            }
        }
        if (!solved)
            break;
        double f = kappa / (dt * (1.0 + kappa));
        double fp = f * ap, fq = f * aq;
        double pp1 = pp - 2.0 * fp, pq1 = pq - 2.0 * fq;
        qp = qp + dt2 * (pp - fp);
        qq = qq + dt2 * (pq - fq);
        pp = pp1;
        pq = pq1;
        x += 4;
        x[0] = pp;
        x[1] = pq;
        x[2] = qp;
        x[3] = qq;
    }
    return k;
}
