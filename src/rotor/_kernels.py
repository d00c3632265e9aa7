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
    def _orbit_mean_batch_nb(seeds, n, plane_mode, slot, mode, lin, lin_inv,
                             tstart, tend, amps, fkx, fky, phase, row, vx, vy):
        m = seeds.shape[0]
        out = np.empty((m, 2))
        for i in range(m):
            if plane_mode:
                x0 = seeds[i, 0]
                y0 = seeds[i, 1]
                px = x0
                py = y0
                for _ in range(n):
                    px, py = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                            tstart, tend, amps, fkx, fky,
                                            phase, row, vx, vy)
                out[i, 0] = (px - x0) / n
                out[i, 1] = (py - y0) / n
            else:
                px = _reduce_nb(seeds[i, 0])
                py = _reduce_nb(seeds[i, 1])
                ax = 0.0
                ay = 0.0
                cx = 0.0
                cy = 0.0
                for _ in range(n):
                    qx, qy = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                            tstart, tend, amps, fkx, fky,
                                            phase, row, vx, vy)
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
                # fold the compensation back in before dividing
                out[i, 0] = (ax - cx) / n
                out[i, 1] = (ay - cy) / n
        return out

    @njit(cache=True, nogil=True)
    def _orbit_mean_tail_nb(sx, sy, n, plane_mode, slot, mode, lin, lin_inv,
                            tstart, tend, amps, fkx, fky, phase, row, vx, vy):
        window = n // 10
        if window < 1:
            window = 1
        tail = np.empty((window, 2))
        if plane_mode:
            px = sx
            py = sy
            for k in range(1, n + 1):
                px, py = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                        tstart, tend, amps, fkx, fky,
                                        phase, row, vx, vy)
                if k > n - window:
                    tail[k - (n - window) - 1, 0] = (px - sx) / k
                    tail[k - (n - window) - 1, 1] = (py - sy) / k
            mx = (px - sx) / n
            my = (py - sy) / n
        else:
            px = _reduce_nb(sx)
            py = _reduce_nb(sy)
            ax = 0.0
            ay = 0.0
            cx = 0.0
            cy = 0.0
            for k in range(1, n + 1):
                qx, qy = _apply_word_nb(px, py, slot, mode, lin, lin_inv,
                                        tstart, tend, amps, fkx, fky,
                                        phase, row, vx, vy)
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
                if k > n - window:
                    tail[k - (n - window) - 1, 0] = (ax - cx) / k
                    tail[k - (n - window) - 1, 1] = (ay - cy) / k
            mx = (ax - cx) / n
            my = (ay - cy) / n
        spread = 0.0
        for i in range(window):
            d = math.sqrt((tail[i, 0] - mx) ** 2 + (tail[i, 1] - my) ** 2)
            if d > spread:
                spread = d
        return mx, my, spread

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


def _orbit_mean_batch_np(seeds, n, plane_mode, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        if plane_mode:
            p = seeds.copy()
            for _ in range(n):
                p = _apply_word_np(p, *args)
            return (p - seeds) / n
        p = reduce_batch(seeds)
        acc = np.zeros_like(p)
        comp = np.zeros_like(p)
        for _ in range(n):
            q = _apply_word_np(p, *args)
            d = q - p
            t = d - comp
            s = acc + t
            comp = (s - acc) - t
            acc = s
            p = reduce_batch(q)
        return (acc - comp) / n


def _orbit_mean_tail_np(sx, sy, n, plane_mode, *args):
    window = max(1, n // 10)
    seeds = np.array([[sx, sy]])
    tail = np.empty((window, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        if plane_mode:
            p = seeds.copy()
            for k in range(1, n + 1):
                p = _apply_word_np(p, *args)
                if k > n - window:
                    tail[k - (n - window) - 1] = (p[0] - seeds[0]) / k
            mean = (p[0] - seeds[0]) / n
        else:
            p = reduce_batch(seeds)
            acc = np.zeros(2)
            comp = np.zeros(2)
            for k in range(1, n + 1):
                q = _apply_word_np(p, *args)
                d = q[0] - p[0]
                t = d - comp
                s = acc + t
                comp = (s - acc) - t
                acc = s
                p = reduce_batch(q)
                if k > n - window:
                    tail[k - (n - window) - 1] = (acc - comp) / k
            mean = (acc - comp) / n
        spread = float(np.hypot(*(tail - mean).T).max())
    return float(mean[0]), float(mean[1]), spread


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
        return _orbit_mean_batch_nb(seeds, n, plane_mode, *args)
    return _orbit_mean_batch_np(seeds, n, plane_mode, *args)


def orbit_mean_tail(sx, sy, n, plane_mode, *args):
    if _BACKEND == "numba":
        return _orbit_mean_tail_nb(sx, sy, n, plane_mode, *args)
    return _orbit_mean_tail_np(sx, sy, n, plane_mode, *args)


def orbit_collect(sx, sy, burn, count, *args):
    if _BACKEND == "numba":
        return _orbit_collect_nb(sx, sy, burn, count, *args)
    return _orbit_collect_np(sx, sy, burn, count, *args)
