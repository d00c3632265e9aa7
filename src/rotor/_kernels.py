"""Word-program kernels: the one map evaluator and the long-orbit loops.

A word program is the flattened form built in maps.compile_program: per-letter
(slot, mode) plus per-slot linear matrices and trig-term ranges.  mode 0
applies the slot's map forward, mode 1 solves it backward by Newton iteration;
a Newton failure surfaces as NaN coordinates and the callers raise.

_apply_word_np evaluates a program on a batch of plane points, vectorized
over the points.  It is the evaluator behind maps.apply_lift_batch on every
backend, and the step of the numpy orbit kernels.

The orbit kernels have two interchangeable backends: numba-compiled scalar
loops (default), which release the GIL so seed chunks can run on threads, and
the vectorized numpy path.  ROTOR_NO_NUMBA=1 in the environment selects numpy
and skips importing numba entirely; set_backend() switches at runtime.  Both
backends implement the same word-program semantics; the deliberately separate
code paths double as cross-checks in the tests and the benchmark.

Each backend has one mean loop, _orbit_mean_nb (one seed) and _orbit_mean_np
(a batch of seeds).  It holds the plane/torus split and the compensated
summation, and fills a tail array with the running means of the last steps;
plain means pass an empty tail.  Plane mode iterates the unreduced lift and
reads the mean off its travel; torus mode reduces every step and sums the
per-step displacements.  The tail spread is computed once, in the
orbit_mean_tail dispatch, for both backends.

The seam snap and the Newton tolerance and step budget are defined here once
and shared by maps.
"""

import math
import os

import numpy as np

from .errors import RotorError

_TWO_PI = 2.0 * math.pi
_SNAP = 1e-15
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 60

_DISABLED = bool(os.environ.get("ROTOR_NO_NUMBA"))
_HAVE_NUMBA = False
if not _DISABLED:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        _HAVE_NUMBA = False

_BACKEND = "numba" if _HAVE_NUMBA else "numpy"


def get_backend() -> str:
    return _BACKEND


def set_backend(name: str):
    global _BACKEND
    if name == "numpy":
        _BACKEND = "numpy"
    elif name == "numba":
        if not _HAVE_NUMBA:
            raise RotorError(
                "numba backend unavailable"
                + (" (disabled by ROTOR_NO_NUMBA)" if _DISABLED else ""))
        _BACKEND = "numba"
    else:
        raise RotorError("backend must be 'numba' or 'numpy'")


# ---------------------------------------------------------------------------
# numba backend

if _HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _apply_word_nb(px, py, slot, mode, lin, lin_inv, tstart, tend,
                       amps, fkx, fky, phase, row, vx, vy):
        for li in range(len(slot) - 1, -1, -1):
            s = slot[li]
            if mode[li] == 0:
                ax = lin[s, 0, 0] * px + lin[s, 0, 1] * py
                ay = lin[s, 1, 0] * px + lin[s, 1, 1] * py
                rx = px - np.floor(px)
                ry = py - np.floor(py)
                dx = 0.0
                dy = 0.0
                for t in range(tstart[s], tend[s]):
                    v = amps[t] * math.sin(_TWO_PI * (fkx[t] * rx + fky[t] * ry)
                                           + phase[t])
                    if row[t] == 0:
                        dx += v
                    else:
                        dy += v
                px = ax + dx
                py = ay + dy
            else:
                qx = px
                qy = py
                px = lin_inv[s, 0, 0] * qx + lin_inv[s, 0, 1] * qy
                py = lin_inv[s, 1, 0] * qx + lin_inv[s, 1, 1] * qy
                ok = False
                for _ in range(_NEWTON_MAX):
                    rx = px - np.floor(px)
                    ry = py - np.floor(py)
                    dx = 0.0
                    dy = 0.0
                    j00 = 0.0
                    j01 = 0.0
                    j10 = 0.0
                    j11 = 0.0
                    for t in range(tstart[s], tend[s]):
                        arg = _TWO_PI * (fkx[t] * rx + fky[t] * ry) + phase[t]
                        sv = amps[t] * math.sin(arg)
                        cv = amps[t] * math.cos(arg) * _TWO_PI
                        if row[t] == 0:
                            dx += sv
                            j00 += cv * fkx[t]
                            j01 += cv * fky[t]
                        else:
                            dy += sv
                            j10 += cv * fkx[t]
                            j11 += cv * fky[t]
                    fx = lin[s, 0, 0] * px + lin[s, 0, 1] * py + dx - qx
                    fy = lin[s, 1, 0] * px + lin[s, 1, 1] * py + dy - qy
                    if abs(fx) < _NEWTON_TOL and abs(fy) < _NEWTON_TOL:
                        ok = True
                        break
                    a00 = lin[s, 0, 0] + j00
                    a01 = lin[s, 0, 1] + j01
                    a10 = lin[s, 1, 0] + j10
                    a11 = lin[s, 1, 1] + j11
                    det = a00 * a11 - a01 * a10
                    if det == 0.0:
                        break
                    px -= (a11 * fx - a01 * fy) / det
                    py -= (-a10 * fx + a00 * fy) / det
                if not ok:
                    return np.nan, np.nan
        return px + vx, py + vy

    @njit(cache=True, nogil=True)
    def _reduce_nb(x):
        r = x - np.floor(x)
        if 1.0 - r < _SNAP:
            r = 0.0
        return r

    @njit(cache=True, nogil=True)
    def _orbit_mean_nb(sx, sy, n, plane_mode, tail, slot, mode, lin, lin_inv,
                       tstart, tend, amps, fkx, fky, phase, row, vx, vy):
        start = n - tail.shape[0]
        if plane_mode:
            px = sx
            py = sy
        else:
            px = _reduce_nb(sx)
            py = _reduce_nb(sy)
        ax = 0.0
        ay = 0.0
        cx = 0.0
        cy = 0.0
        for k in range(1, n + 1):
            qx, qy = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                    tstart, tend, amps, fkx, fky, phase, row,
                                    vx, vy)
            if plane_mode:
                # the lift's own travel is the displacement sum; cx stays 0
                px = qx
                py = qy
                ax = px - sx
                ay = py - sy
            else:
                # compensated summation of the per-step displacement
                t = (qx - px) - cx
                s1 = ax + t
                cx = (s1 - ax) - t
                ax = s1
                t = (qy - py) - cy
                s2 = ay + t
                cy = (s2 - ay) - t
                ay = s2
                px = _reduce_nb(qx)
                py = _reduce_nb(qy)
            if k > start:
                tail[k - start - 1, 0] = (ax - cx) / k
                tail[k - start - 1, 1] = (ay - cy) / k
        # fold the compensation back in before dividing
        return (ax - cx) / n, (ay - cy) / n

    @njit(cache=True, nogil=True)
    def _orbit_mean_seeds_nb(seeds, n, plane_mode, slot, mode, lin, lin_inv,
                             tstart, tend, amps, fkx, fky, phase, row, vx, vy):
        out = np.empty((seeds.shape[0], 2))
        no_tail = np.empty((0, 2))
        for i in range(seeds.shape[0]):
            mx, my = _orbit_mean_nb(seeds[i, 0], seeds[i, 1], n, plane_mode,
                                    no_tail, slot, mode, lin, lin_inv, tstart,
                                    tend, amps, fkx, fky, phase, row, vx, vy)
            out[i, 0] = mx
            out[i, 1] = my
        return out

    @njit(cache=True, nogil=True)
    def _orbit_collect_nb(sx, sy, burn, count, slot, mode, lin, lin_inv,
                          tstart, tend, amps, fkx, fky, phase, row, vx, vy):
        out = np.empty((count, 2))
        px = _reduce_nb(sx)
        py = _reduce_nb(sy)
        for _ in range(burn):
            qx, qy = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                    tstart, tend, amps, fkx, fky, phase, row,
                                    vx, vy)
            px = _reduce_nb(qx)
            py = _reduce_nb(qy)
        for k in range(count):
            out[k, 0] = px
            out[k, 1] = py
            qx, qy = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                    tstart, tend, amps, fkx, fky, phase, row,
                                    vx, vy)
            px = _reduce_nb(qx)
            py = _reduce_nb(qy)
        return out


# ---------------------------------------------------------------------------
# numpy backend (vectorized across seeds)


def reduce_batch(pts):
    """Canonical torus representatives in [0,1)^2, with a snap at the seam:
    values a hair under 1 become 0."""
    out = pts - np.floor(pts)
    out[1.0 - out < _SNAP] = 0.0
    return out


def _apply_word_np(pts, slot, mode, lin, lin_inv, tstart, tend,
                   amps, fkx, fky, phase, row, vx, vy):
    x = pts[:, 0]
    y = pts[:, 1]
    for li in range(len(slot) - 1, -1, -1):
        s = slot[li]
        if mode[li] == 0:
            x, y = _forward_np(x, y, s, lin, tstart, tend, amps, fkx, fky,
                               phase, row)
        else:
            x, y = _newton_np(x, y, s, lin, lin_inv, tstart, tend, amps, fkx,
                              fky, phase, row)
    out = np.empty((len(x), 2))
    np.add(x, vx, out=out[:, 0])
    np.add(y, vy, out=out[:, 1])
    return out


def _terms_np(x, y, s, tstart, tend, amps, fkx, fky, phase, row):
    rx = x - np.floor(x)
    ry = y - np.floor(y)
    dx = np.zeros_like(x)
    dy = np.zeros_like(y)
    for t in range(tstart[s], tend[s]):
        v = amps[t] * np.sin(_TWO_PI * (fkx[t] * rx + fky[t] * ry) + phase[t])
        if row[t] == 0:
            dx += v
        else:
            dy += v
    return dx, dy


def _forward_np(x, y, s, lin, tstart, tend, amps, fkx, fky, phase, row):
    dx, dy = _terms_np(x, y, s, tstart, tend, amps, fkx, fky, phase, row)
    ax = lin[s, 0, 0] * x + lin[s, 0, 1] * y + dx
    ay = lin[s, 1, 0] * x + lin[s, 1, 1] * y + dy
    return ax, ay


def _newton_np(qx, qy, s, lin, lin_inv, tstart, tend, amps, fkx, fky,
               phase, row):
    px = lin_inv[s, 0, 0] * qx + lin_inv[s, 0, 1] * qy
    py = lin_inv[s, 1, 0] * qx + lin_inv[s, 1, 1] * qy
    ok = np.zeros(px.shape, dtype=bool)
    for _ in range(_NEWTON_MAX):
        rx = px - np.floor(px)
        ry = py - np.floor(py)
        dx = np.zeros_like(px)
        dy = np.zeros_like(px)
        j00 = np.zeros_like(px)
        j01 = np.zeros_like(px)
        j10 = np.zeros_like(px)
        j11 = np.zeros_like(px)
        for t in range(tstart[s], tend[s]):
            arg = _TWO_PI * (fkx[t] * rx + fky[t] * ry) + phase[t]
            sv = amps[t] * np.sin(arg)
            cv = amps[t] * np.cos(arg) * _TWO_PI
            if row[t] == 0:
                dx += sv
                j00 += cv * fkx[t]
                j01 += cv * fky[t]
            else:
                dy += sv
                j10 += cv * fkx[t]
                j11 += cv * fky[t]
        fx = lin[s, 0, 0] * px + lin[s, 0, 1] * py + dx - qx
        fy = lin[s, 1, 0] * px + lin[s, 1, 1] * py + dy - qy
        ok = np.maximum(np.abs(fx), np.abs(fy)) < _NEWTON_TOL
        if ok.all():
            return px, py
        a00 = lin[s, 0, 0] + j00
        a01 = lin[s, 0, 1] + j01
        a10 = lin[s, 1, 0] + j10
        a11 = lin[s, 1, 1] + j11
        det = a00 * a11 - a01 * a10
        det[det == 0.0] = np.nan
        act = ~ok
        px = np.where(act, px - (a11 * fx - a01 * fy) / det, px)
        py = np.where(act, py - (-a10 * fx + a00 * fy) / det, py)
    px = np.where(ok, px, np.nan)
    py = np.where(ok, py, np.nan)
    return px, py


def _orbit_mean_np(seeds, n, plane_mode, tail, *prog):
    # _orbit_mean_nb vectorized over the seeds; tail has shape (window, m, 2)
    start = n - len(tail)
    with np.errstate(over="ignore", invalid="ignore"):
        p = seeds.copy() if plane_mode else reduce_batch(seeds)
        acc = np.zeros_like(p)
        comp = np.zeros_like(p)
        for k in range(1, n + 1):
            q = _apply_word_np(p, *prog)
            if plane_mode:
                p = q
                acc = p - seeds
            else:
                # compensated summation of the per-step displacement
                t = (q - p) - comp
                s = acc + t
                comp = (s - acc) - t
                acc = s
                p = reduce_batch(q)
            if k > start:
                tail[k - start - 1] = (acc - comp) / k
        return (acc - comp) / n


def _orbit_collect_np(sx, sy, burn, count, *args):
    out = np.empty((count, 2))
    p = reduce_batch(np.array([[sx, sy]]))
    for _ in range(burn):
        p = reduce_batch(_apply_word_np(p, *args))
    for k in range(count):
        out[k] = p[0]
        p = reduce_batch(_apply_word_np(p, *args))
    return out


# ---------------------------------------------------------------------------
# dispatch


def orbit_mean_batch(seeds, n, plane_mode, *args):
    if _BACKEND == "numba":
        return _orbit_mean_seeds_nb(seeds, n, plane_mode, *args)
    return _orbit_mean_np(seeds, n, plane_mode, np.empty((0, len(seeds), 2)),
                          *args)


def orbit_mean_tail(sx, sy, n, plane_mode, *args):
    """The mean of one orbit and the largest distance from it of the running
    means over the last max(1, n//10) steps."""
    window = max(1, n // 10)
    if _BACKEND == "numba":
        tail = np.empty((window, 2))
        mx, my = _orbit_mean_nb(sx, sy, n, plane_mode, tail, *args)
    else:
        tail = np.empty((window, 1, 2))
        mx, my = _orbit_mean_np(np.array([[sx, sy]]), n, plane_mode, tail,
                                *args)[0]
        tail = tail[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.hypot(tail[:, 0] - mx, tail[:, 1] - my).max()
    return float(mx), float(my), float(spread)


def orbit_collect(sx, sy, burn, count, *args):
    if _BACKEND == "numba":
        return _orbit_collect_nb(sx, sy, burn, count, *args)
    return _orbit_collect_np(sx, sy, burn, count, *args)
