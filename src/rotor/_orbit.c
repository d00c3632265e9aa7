/* Word step, orbit loop, grid merge and affine orbit scan of the "c"
 * backend: a statement-for-statement port of the numpy code in _kernels.py
 * (_apply_word_np, _orbit_mean_np, _grid_merge_np, _affine_orbit_np), one
 * point at a time, except for three shortcuts of the word step that change
 * no bit.  _kernels builds this file with -ffp-contract=off and defines
 * TWO_PI, SNAP, NEWTON_TOL and NEWTON_MAX from its own constants, so
 * results match numpy bit for bit wherever numpy's sin and cos round like
 * this C library's.
 *
 * The shortcuts: frac() takes x - floor(x) without the floor on [+0, 1),
 * where it equals x + 0.0 (see frac); a letter without trig terms takes no
 * fractional part, since nothing reads it; and the memo.  The memo keeps,
 * per letter position and trig term of a program, the bits of the term's
 * last argument and the values computed from it.  Many arguments repeat
 * from step to step: a shear never moves the coordinate its terms read, a
 * constant term's argument is always its phase, and a Newton solve often
 * keeps one coordinate.  A term that misses its own entry also looks at
 * the same term of the letter's twin, the position of the same slot and
 * mode that ran most recently before it: in "twist h twist" the last twist
 * of one step hands its y unchanged to the first twist of the next.  A
 * Newton letter also keeps one entry per term and iteration, which the
 * term asks after those two: points that give a solve the same start
 * repeat its iterates bit for bit, as the h' of "h skew h'" does on a
 * torus_grid, whose consecutive points share the x that h reads.  sin
 * and cos are functions of their argument's bits, the argument is computed
 * as before and the sums take the values in the same order, so the memo
 * changes no bit of any result.  Each call of apply_batch owns its memo,
 * and so does each block of seeds of an orbit_mean call, so the threads
 * that run the blocks share nothing they write.  Callers check all sizes;
 * nothing here checks bounds. */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A compiled word program: the fields of _kernels.Program, which holds the
 * arrays under the same names (see maps._compile_letters for their
 * content).  One program is shared by every lift of its word and by the
 * threads of an orbit_mean call, so it is never written: the deck
 * translation (vx, vy) is an argument. */
typedef struct {
    int64_t nletters;
    const int64_t *slot, *mode;
    const double *lin, *lin_inv;        /* (slots, 2, 2) */
    const int64_t *tstart, *tend;
    const double *amps, *fkx, *fky, *phase;
    const int64_t *row;
} program;

/* The memo entry of one trig term at one letter position: the bits of the
 * last argument, amps * sin(arg), for an inverse letter also
 * amps * cos(arg) * TWO_PI, and the offset to the same term's entry at the
 * letter's twin.  The entries of one term and Newton iteration have no
 * twin. */
typedef struct {
    uint64_t key;
    double sv, cv;
    int64_t twin;
} memo_entry;

/* A signalling NaN: arithmetic never gives one, so no argument matches it. */
#define UNSET UINT64_C(0x7ff0000000000001)

/* A memo for w, one entry per letter position and term in the order the
 * letters run, every key unset; NULL when it cannot be allocated.  The
 * caller frees it.  *iters points into it at the entries per iteration:
 * NEWTON_MAX rows of nterms entries per Newton letter, in the same order.
 * They sit apart from the others, so a forward letter's walk over its
 * entries is the same whatever inverse letters the word has.  The twin of
 * a letter is the letter of the same slot and mode that ran most recently
 * before it: the letters run last to first and wrap from one step to the
 * next, so for letter li it is the first of li+1, ..., L-1, 0, ..., li-1
 * with li's slot and mode.  A forward entry holds no cv, so forward and
 * Newton letters are never twins.  A letter without a twin is its own, at
 * offset 0. */
static memo_entry *memo_new(const program *w, memo_entry **iters)
{
    int64_t n = 0, ni = 0, slots = 0;
    for (int64_t li = 0; li < w->nletters; li++) {
        int64_t nterms = w->tend[w->slot[li]] - w->tstart[w->slot[li]];
        n += nterms;
        if (w->mode[li])
            ni += NEWTON_MAX * nterms;
        if (w->slot[li] >= slots)
            slots = w->slot[li] + 1;
    }
    /* the entries, those per iteration, then per slot and mode the first
     * entry of the letter of that slot and mode that ran last */
    size_t size = (n + ni) * sizeof(memo_entry)
                  + 2 * slots * sizeof(int64_t);
    memo_entry *memo = malloc(size > 0 ? size : 1);
    if (memo == NULL)
        return NULL;
    /* only the keys: a row entry is read after its key matched, and only
     * a whole entry ever gives it a key */
    *iters = memo + n;
    for (int64_t i = n; i < n + ni; i++)
        memo[i].key = UNSET;
    int64_t *last = (int64_t *)(memo + n + ni);
    /* two steps in running order: the first sees every letter, so in the
     * second each letter finds its twin */
    for (int round = 0; round < 2; round++) {
        int64_t off = 0;
        for (int64_t li = w->nletters - 1; li >= 0; li--) {
            int64_t s = w->slot[li], nterms = w->tend[s] - w->tstart[s];
            int64_t *seen = last + 2 * s + w->mode[li];
            if (round == 1)
                for (int64_t i = off; i < off + nterms; i++)
                    memo[i] = (memo_entry){UNSET, 0.0, 0.0, *seen - off};
            *seen = off;
            off += nterms;
        }
    }
    return memo;
}

/* The argument of term t at (rx, ry), and whether entry e now holds its
 * values: already, or copied from the same term's entry at the letter's
 * twin.  A miss stores the argument's bits as e's key.  The twin is asked
 * before e's key changes, so a letter that is its own twin never copies.
 * Forced inline: with the twin check gcc -O2 no longer inlines it, and the
 * call costs every term. */
static inline __attribute__((always_inline)) int
memo_hit(const program *w, int64_t t, double rx, double ry, memo_entry *e,
         double *arg)
{
    uint64_t bits;
    *arg = TWO_PI * (w->fkx[t] * rx + w->fky[t] * ry) + w->phase[t];
    memcpy(&bits, arg, sizeof bits);
    if (bits == e->key)
        return 1;
    const memo_entry *tw = e + e->twin;
    if (bits == tw->key) {
        e->sv = tw->sv;
        e->cv = tw->cv;
        e->key = bits;
        return 1;
    }
    e->key = bits;
    return 0;
}

/* x - floor(x), bit for bit, without the floor on [+0, 1): there floor(x)
 * is +0 and x - 0.0 is x, and for x = -0 (which passes x >= 0.0) both
 * x - floor(x) and x + 0.0 are +0.  NaN, inf and every other value take the
 * full expression.  Without -ffast-math the compiler may not fold x + 0.0
 * to x, since that would keep the sign of -0. */
static inline double frac(double x)
{
    return (x >= 0.0 && x < 1.0) ? x + 0.0 : x - floor(x);
}

/* One step of the lift; a failed Newton solve gives NaN coordinates.  The
 * letters run last to first, and their memo entries and entries per
 * iteration in that order.  Forced inline, so the point stays in registers
 * in the orbit loops. */
static inline __attribute__((always_inline)) void
apply_word(const program *w, memo_entry *memo, memo_entry *iters, double vx,
           double vy, double *x, double *y)
{
    double px = *x, py = *y;
    for (int64_t li = w->nletters - 1; li >= 0; li--) {
        int64_t s = w->slot[li];
        const double *a = w->lin + 4 * s, *ai = w->lin_inv + 4 * s;
        int64_t nterms = w->tend[s] - w->tstart[s];
        memo_entry *lm = memo;          /* this letter's entries */
        memo += nterms;
        if (w->mode[li] == 0) {
            double ax = a[0] * px + a[1] * py;
            double ay = a[2] * px + a[3] * py;
            double rx = 0.0, ry = 0.0;
            if (nterms > 0) {           /* dehn, phi, anosov have none */
                rx = frac(px);
                ry = frac(py);
            }
            double dx = 0.0, dy = 0.0;
            memo_entry *e = lm;
            for (int64_t t = w->tstart[s]; t < w->tend[s]; t++, e++) {
                double arg;
                if (!memo_hit(w, t, rx, ry, e, &arg))
                    e->sv = w->amps[t] * sin(arg);
                if (w->row[t] == 0)
                    dx += e->sv;
                else
                    dy += e->sv;
            }
            px = ax + dx;
            py = ay + dy;
        } else {
            double qx = px, qy = py;
            int ok = 0;
            memo_entry *row = iters;    /* this iteration's entries */
            iters += NEWTON_MAX * nterms;
            px = ai[0] * qx + ai[1] * qy;
            py = ai[2] * qx + ai[3] * qy;
            for (int it = 0; it < NEWTON_MAX; it++, row += nterms) {
                double rx = 0.0, ry = 0.0;
                if (nterms > 0) {
                    rx = frac(px);
                    ry = frac(py);
                }
                double dx = 0.0, dy = 0.0;
                double j00 = 0.0, j01 = 0.0, j10 = 0.0, j11 = 0.0;
                memo_entry *e = lm, *r = row;
                for (int64_t t = w->tstart[s]; t < w->tend[s];
                     t++, e++, r++) {
                    double arg;
                    /* a miss left the argument's bits in e->key */
                    if (!memo_hit(w, t, rx, ry, e, &arg)) {
                        if (e->key == r->key) {
                            e->sv = r->sv;
                            e->cv = r->cv;
                        } else {
                            e->sv = w->amps[t] * sin(arg);
                            e->cv = w->amps[t] * cos(arg) * TWO_PI;
                        }
                    }
                    double sv = e->sv, cv = e->cv;
                    /* r takes this iteration's argument and values when
                     * they are new to it (r's twin is never read): a store
                     * at every term made the torus_grid(256) scan of
                     * "h skew h'" 40% slower (gcc -O2, x86-64) */
                    if (r->key != e->key)
                        *r = *e;
                    if (w->row[t] == 0) {
                        dx += sv;
                        j00 += cv * w->fkx[t];
                        j01 += cv * w->fky[t];
                    } else {
                        dy += sv;
                        j10 += cv * w->fkx[t];
                        j11 += cv * w->fky[t];
                    }
                }
                double fx = a[0] * px + a[1] * py + dx - qx;
                double fy = a[2] * px + a[3] * py + dy - qy;
                if (fabs(fx) < NEWTON_TOL && fabs(fy) < NEWTON_TOL) {
                    ok = 1;
                    break;
                }
                if (isnan(fx) || isnan(fy))     /* px can only end NaN */
                    break;
                double a00 = a[0] + j00, a01 = a[1] + j01;
                double a10 = a[2] + j10, a11 = a[3] + j11;
                double det = a00 * a11 - a01 * a10;
                if (det == 0.0)
                    break;
                px -= (a11 * fx - a01 * fy) / det;
                py -= (-a10 * fx + a00 * fy) / det;
            }
            if (!ok) {
                *x = *y = NAN;
                return;
            }
        }
    }
    *x = px + vx;
    *y = py + vy;
}

/* The lift at m plane points (m, 2) into out (m, 2).  Returns 0; 1, and
 * evaluates nothing, when a coordinate is not finite; -1 when the memo
 * cannot be allocated. */
int apply_batch(const double *pts, int64_t m, const program *w, double vx,
                double vy, double *out)
{
    for (int64_t i = 0; i < 2 * m; i++)
        if (!isfinite(pts[i]))
            return 1;
    memo_entry *iters, *memo = memo_new(w, &iters);
    if (memo == NULL)
        return -1;
    for (int64_t i = 0; i < m; i++) {
        double x = pts[2 * i], y = pts[2 * i + 1];
        apply_word(w, memo, iters, vx, vy, &x, &y);
        out[2 * i] = x;
        out[2 * i + 1] = y;
    }
    free(memo);
    return 0;
}

/* Torus representative in [0,1), with values a hair under 1 snapped to 0. */
static double reduce(double x)
{
    double r = frac(x);
    return 1.0 - r < SNAP ? 0.0 : r;
}

/* One seed's orbit in orbit_mean: the seed, the current point, and the
 * displacement sum with its compensation. */
typedef struct {
    double sx, sy, px, py, ax, ay, cx, cy;
} orbit;

/* One step of o.  Plane mode iterates the unreduced lift and reads the sum
 * off its travel; torus mode reduces every step and sums the displacements
 * compensated.  Forced inline, so o stays in registers. */
static inline __attribute__((always_inline)) void
orbit_step(const program *w, memo_entry *memo, memo_entry *iters, double vx,
           double vy, int plane_mode, orbit *o)
{
    double qx = o->px, qy = o->py;
    apply_word(w, memo, iters, vx, vy, &qx, &qy);
    if (plane_mode) {
        o->px = qx;
        o->py = qy;
        o->ax = qx - o->sx;
        o->ay = qy - o->sy;
    } else {
        double t = (qx - o->px) - o->cx, s = o->ax + t;
        o->cx = (s - o->ax) - t;
        o->ax = s;
        t = (qy - o->py) - o->cy;
        s = o->ay + t;
        o->cy = (s - o->ay) - t;
        o->ay = s;
        o->px = reduce(qx);
        o->py = reduce(qy);
    }
}

/* n-step displacement means of the seeds [lo, hi) of m seeds (m, 2) into
 * out (m, 2), the running means of the last `window` steps into tail
 * (window, m, 2), and the point each of the last `steps` steps starts from
 * into path (steps, m, 2), all indexed by the seed's place among the m.
 * Returns 0, or -1 when the memo cannot be allocated.  The steps before the
 * first one that records run in a loop of their own: with the recording
 * checks in it, an irrskew step took 8% longer (gcc -O2, x86-64). */
static int orbit_block(const double *seeds, int64_t m, int64_t lo,
                       int64_t hi, int64_t n, int plane_mode, double *tail,
                       int64_t window, double *path, int64_t steps,
                       const program *w, double vx, double vy, double *out)
{
    int64_t start = n - window, first = n - steps;
    int64_t quiet = start < first ? start : first;
    memo_entry *iters, *memo = memo_new(w, &iters);
    if (memo == NULL)
        return -1;
    for (int64_t i = lo; i < hi; i++) {
        double sx = seeds[2 * i], sy = seeds[2 * i + 1];
        orbit o = {sx, sy, plane_mode ? sx : reduce(sx),
                   plane_mode ? sy : reduce(sy), 0.0, 0.0, 0.0, 0.0};
        int64_t k = 1;
        for (; k <= quiet; k++)
            orbit_step(w, memo, iters, vx, vy, plane_mode, &o);
        for (; k <= n; k++) {
            if (k > first) {
                double *cell = path + 2 * ((k - first - 1) * m + i);
                cell[0] = o.px;
                cell[1] = o.py;
            }
            orbit_step(w, memo, iters, vx, vy, plane_mode, &o);
            if (k > start) {
                double *cell = tail + 2 * ((k - start - 1) * m + i);
                cell[0] = (o.ax - o.cx) / k;
                cell[1] = (o.ay - o.cy) / k;
            }
        }
        out[2 * i] = (o.ax - o.cx) / n;
        out[2 * i + 1] = (o.ay - o.cy) / n;
    }
    free(memo);
    return 0;
}

/* The arguments of one orbit_block, the thread that runs it and its
 * status. */
typedef struct {
    const double *seeds;
    double *tail, *path, *out;
    int64_t m, lo, hi, n, window, steps;
    const program *w;
    double vx, vy;
    int plane_mode, started, status;
    pthread_t thread;
} block;

static void *run_block(void *arg)
{
    block *b = arg;
    b->status = orbit_block(b->seeds, b->m, b->lo, b->hi, b->n,
                            b->plane_mode, b->tail, b->window, b->path,
                            b->steps, b->w, b->vx, b->vy, b->out);
    return NULL;
}

/* orbit_block over all m seeds, cut into `threads` contiguous blocks: the
 * calling thread runs block 0 and a thread of its own each of the others,
 * or the calling thread too when that thread cannot be started.  A block
 * changes only which memo serves a seed, so the results have the same bits
 * for every thread count.  Returns 0 once every block has finished, or -1
 * when a memo or the blocks cannot be allocated. */
int orbit_mean(const double *seeds, int64_t m, int64_t n, int plane_mode,
               double *tail, int64_t window, double *path, int64_t steps,
               int threads, const program *w, double vx, double vy,
               double *out)
{
    if (threads <= 1)
        return orbit_block(seeds, m, 0, m, n, plane_mode, tail, window, path,
                           steps, w, vx, vy, out);
    block *blocks = malloc(threads * sizeof(block));
    if (blocks == NULL)
        return -1;
    for (int b = 0; b < threads; b++) {
        block *k = &blocks[b];
        *k = (block){.seeds = seeds, .tail = tail, .path = path, .out = out,
                     .m = m, .lo = m * b / threads,
                     .hi = m * (b + 1) / threads, .n = n, .window = window,
                     .steps = steps, .w = w, .vx = vx, .vy = vy,
                     .plane_mode = plane_mode};
        k->started = b > 0 && pthread_create(&k->thread, NULL, run_block,
                                             k) == 0;
    }
    for (int b = 0; b < threads; b++)
        if (!blocks[b].started)
            run_block(&blocks[b]);
    int status = 0;
    for (int b = 0; b < threads; b++) {
        if (blocks[b].started)
            pthread_join(blocks[b].thread, NULL);
        if (blocks[b].status < 0)
            status = -1;
    }
    free(blocks);
    return status;
}

/* A grid cell key and the input row it came from. */
typedef struct {
    int64_t k0, k1, row;
} keyed;

static int key_less(const keyed *a, const keyed *b)
{
    return a->k0 < b->k0 || (a->k0 == b->k0 && a->k1 < b->k1);
}

/* Stable merge sort of a[0..n) by key, with tmp[0..n) as scratch. */
static void sort_keys(keyed *a, keyed *tmp, int64_t n)
{
    if (n <= 16) {                      /* insertion sort, stable */
        for (int64_t i = 1; i < n; i++) {
            keyed v = a[i];
            int64_t j = i;
            for (; j > 0 && key_less(&v, &a[j - 1]); j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    int64_t h = n / 2;
    sort_keys(a, tmp, h);
    sort_keys(a + h, tmp, n - h);
    if (!key_less(&a[h], &a[h - 1]))    /* the halves are already in order */
        return;
    memcpy(tmp, a, h * sizeof(keyed));
    int64_t i = 0, j = h, k = 0;
    while (i < h && j < n)              /* ties take the left half first */
        a[k++] = key_less(&a[j], &tmp[i]) ? a[j++] : tmp[i++];
    while (i < h)
        a[k++] = tmp[i++];
}

/* Merge n points (n, 2) with weights w by grid cell: each coordinate is
 * reduced, keyed nearbyint(r * scale) floor-mod cells (nearbyint rounds
 * half to even, like np.round), and the cells are written in key order as
 * key / scale into out_pts, with each cell's weight summed in input order
 * from 0.0 into out_w, as np.bincount adds.  Both outputs need room for n
 * cells.  Returns the number of cells, or -1 when the scratch memory
 * cannot be allocated. */
int64_t grid_merge(const double *pts, const double *w, int64_t n,
                   double scale, int64_t cells, double *out_pts,
                   double *out_w)
{
    if (n == 0)
        return 0;
    keyed *items = malloc(2 * n * sizeof(keyed));
    if (items == NULL)
        return -1;
    keyed *tmp = items + n;
    for (int64_t i = 0; i < n; i++) {
        int64_t k0 = (int64_t)nearbyint(reduce(pts[2 * i]) * scale) % cells;
        int64_t k1 = (int64_t)nearbyint(reduce(pts[2 * i + 1]) * scale)
                     % cells;
        items[i].k0 = k0 < 0 ? k0 + cells : k0;
        items[i].k1 = k1 < 0 ? k1 + cells : k1;
        items[i].row = i;
    }
    sort_keys(items, tmp, n);
    int64_t m = 0;
    for (int64_t j = 0; j < n; j++) {
        if (j == 0 || key_less(&items[j - 1], &items[j])) {
            out_pts[2 * m] = (double)items[j].k0 / scale;
            out_pts[2 * m + 1] = (double)items[j].k1 / scale;
            out_w[m++] = 0.0;
        }
        /* the sort is stable, so a cell's rows come in input order */
        out_w[m - 1] += w[items[j].row];
    }
    free(items);
    return m;
}

/* The affine orbit of averaging.bounded_orbit_check: rho0 = (x0, y0), then
 * P forward steps rho <- A(rho + w) with A = (a b; c d), then P backward
 * steps rho <- A^-1 rho - w from rho0 with A^-1 = (ai bi; ci di), written
 * to xs and ys, which have room for 2P + 1 points.  The scan stops at the
 * first point that is not finite, so a forward overflow skips the backward
 * half.  Returns the number of points written. */
int64_t affine_orbit(double x0, double y0, double w1, double w2, double a,
                     double b, double c, double d, double ai, double bi,
                     double ci, double di, int64_t P, double *xs, double *ys)
{
    int64_t n = 0;
    double x = x0, y = y0;
    xs[n] = x;
    ys[n++] = y;
    for (int64_t k = 0; k < P; k++) {
        double u = x + w1, v = y + w2;
        x = a * u + b * v;
        y = c * u + d * v;
        if (!(isfinite(x) && isfinite(y)))
            return n;
        xs[n] = x;
        ys[n++] = y;
    }
    x = x0;
    y = y0;
    for (int64_t k = 0; k < P; k++) {
        double u = ai * x + bi * y - w1;
        y = ci * x + di * y - w2;
        x = u;
        if (!(isfinite(x) && isfinite(y)))
            return n;
        xs[n] = x;
        ys[n++] = y;
    }
    return n;
}
