"""Word-program kernels: dispatch between the "c" and "numpy" backends.

A word program is a Program: per-letter (slot, mode), per-slot linear
matrices and trig-term ranges, built once per word by maps.compile_program.
Building one checks that its arrays hold numbers, integers for the
indices, and every index in it, on every backend, and makes the C copy of
it that the C kernels take.  Every kernel takes it with the deck
translation (vx, vy).  mode 0 applies the slot's map forward, mode 1 solves
it backward by Newton iteration; a Newton failure surfaces as NaN
coordinates and the callers raise.

Every kernel has two backends that run the same float operations in the same
order: "c", the loops of _orbit.c run one point at a time, called through
the CPython extension module that _orbit.c defines; and "numpy", the same
loops vectorized over a batch of points, which are the reference the C loops
are tested against.  Their results are bit-identical wherever numpy's sin
and cos round like the C library's; the shortcuts of the C word step (its
memo, its fractional part and its thread blocks) change no bit, and the
header of _orbit.c explains why.

apply_word evaluates a program on a batch of plane points and rejects
points that are not finite with InvalidArgument before it evaluates any,
by a check of its own: _args.POINTS would add microseconds to each call.
orbit_mean_batch, orbit_mean_tail and orbit_collect run the one orbit loop
of each backend (orbit_mean in C, _orbit_mean_np) over a batch of seeds,
in plane mode (the unreduced lift, its mean read off its travel)
or torus mode (every step reduced, the per-step displacements summed with
compensation); the tail spread is computed once, in orbit_mean_tail.
grid_merge, the one atom merge of the measures, and affine_orbit, the scan
of averaging.bounded_orbit_check, call no trig, so their backends agree bit
for bit everywhere.

At import the C file is built with the system compiler (cc) and the
interpreter's include directory (sysconfig's "include" path, where Python.h
lives) into this package's __pycache__, once per source, flags and include
directory, and loaded as an extension module; "c" is then the default.  The
built file is named by the CRC-32 of those and ends in the interpreter's ABI
tag (EXT_SUFFIX, e.g. .cpython-311-x86_64-linux-gnu.so), so a __pycache__
shared by two Python versions holds one build for each.  The module's entry
points take their sizes from the lengths of the arrays they are given and
refuse lengths that disagree with ValueError, and take only programs that
its entry point program built and checked, so no call reads or writes past
an array.  Without a compiler or without Python.h, or when the build or
the load fails, the backend is "numpy" and C_UNAVAILABLE says why.
set_backend() switches at runtime.  The seam snap and the Newton tolerance
and step budget are defined here once, shared by maps and passed to the C
build as macros.
"""

import importlib.util
import math
import os
import sysconfig
import zlib
from importlib.machinery import ExtensionFileLoader

import numpy as np

from .errors import InvalidArgument, RotorError

_TWO_PI = 2.0 * math.pi
_SNAP = 1e-15
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 60
_NOT_FINITE = "points must be finite"

_INCLUDE = sysconfig.get_paths()["include"]
# -ffp-contract=off keeps the compiler from fusing multiply-adds (the default
# on some targets), which would change the last bits of the results.
# Python.h comes in as a system header, so its warnings are not ours.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-pthread", "-ffp-contract=off",
           "-isystem", _INCLUDE, "-DTWO_PI=%r" % _TWO_PI, "-DSNAP=%r" % _SNAP,
           "-DNEWTON_TOL=%r" % _NEWTON_TOL, "-DNEWTON_MAX=%d" % _NEWTON_MAX]
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "_orbit.c")


# the arrays of a word program, in the order of _orbit.c's program(), with
# dtypes
_PROGRAM_ARRAYS = [("slot", np.int64), ("mode", np.int64), ("lin", float),
                   ("lin_inv", float), ("tstart", np.int64),
                   ("tend", np.int64), ("amps", float), ("fkx", float),
                   ("fky", float), ("phase", float), ("row", np.int64)]


def _program_array(x, name, dtype):
    """A C-contiguous dtype copy of x, or InvalidArgument unless x is an
    array of real numbers, all integers where dtype is int64 (an empty
    list is float64 to numpy).  A plain cast would truncate floats to
    int64 and raise ValueError on strings or ragged lists."""
    try:
        v = np.asarray(x)
    except ValueError:          # a ragged list
        v = np.asarray(None)
    ok = v.dtype.kind in "biuf"
    if ok and dtype is np.int64 and v.dtype.kind == "f":
        ok = bool((np.abs(v) < 2.0 ** 63).all() and (np.trunc(v) == v).all())
    if not ok:
        raise InvalidArgument("%s must be an array of %s" % (
            name, "integers" if dtype is np.int64 else "real numbers"))
    return np.array(v, dtype, order="C")


class Program:
    """A word program: read-only copies of the arrays of _PROGRAM_ARRAYS
    under their names (p.slot, p.lin, ...) for the numpy loops, and the
    program that _orbit.c's program() builds of them for the C loops
    (p.handle, None without C).  It checks the indices as program() does,
    but raises InvalidArgument, as it does for an array that is not of
    real numbers or an index array that is not of integers.  len(p) is its
    letter count and p.newton whether a letter is solved by Newton
    iteration (mode 1)."""

    def __init__(self, **arrays):
        a = {name: _program_array(arrays[name], name, dtype)
             for name, dtype in _PROGRAM_ARRAYS}
        for v in a.values():
            v.flags.writeable = False
        L, S, T = (a[k].shape[:1] for k in ("slot", "tstart", "amps"))
        want = [L, L, S + (2, 2), S + (2, 2), S, S, T, T, T, T, T]
        if len(L + S + T) < 3 or [v.shape for v in a.values()] != want:
            raise InvalidArgument(
                "slot and mode must have one length, lin and lin_inv "
                "(slots, 2, 2), tstart and tend (slots,), and the term "
                "arrays one length")
        if ((a["tstart"] < 0) | (a["tstart"] > a["tend"])
                | (a["tend"] > T[0])).any():
            raise InvalidArgument("tstart and tend must bound ranges of the "
                                  "terms")
        if ((a["row"] < 0) | (a["row"] > 1)).any():
            raise InvalidArgument("row must be 0 or 1")
        if ((a["mode"] < 0) | (a["mode"] > 1) | (a["slot"] < 0)
                | (a["slot"] >= S[0])).any():
            raise InvalidArgument("mode must be 0 or 1 and slot below the "
                                  "slots")
        vars(self).update(a, newton=bool(a["mode"].any()), handle=None
                          if _LIB is None else _LIB.program(*a.values()))

    def __len__(self):
        return len(self.slot)


def _load_module(path):
    """The extension module built from _orbit.c at path."""
    loader = ExtensionFileLoader(__package__ + "._orbit", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def _load_c():
    """The built C extension module and None, or None and why it is missing.

    The module is cached next to the .pyc files, named by the CRC-32 of
    the source, the flags and the include directory, with the interpreter's
    ABI tag; it is written under a temporary name and renamed into place, so
    concurrent imports never see a partial file.  A fresh build removes the
    builds of other sources for the same ABI tag.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    try:
        with open(_C_SOURCE, "rb") as f:
            key = zlib.crc32(f.read() + " ".join(_CFLAGS).encode())
        cache = os.path.join(os.path.dirname(_C_SOURCE), "__pycache__")
        path = os.path.join(cache, "_orbit.%08x%s" % (key, suffix))
        if not os.path.exists(path):
            if not os.path.exists(os.path.join(_INCLUDE, "Python.h")):
                return None, "no Python.h in %s" % _INCLUDE
            import subprocess

            os.makedirs(cache, exist_ok=True)
            tmp = "%s.%d.tmp" % (path, os.getpid())
            try:
                out = subprocess.run(
                    ["cc", *_CFLAGS, "-o", tmp, _C_SOURCE, "-lm"],
                    capture_output=True, text=True)
                if out.returncode != 0:
                    return None, "cc failed: %s" % out.stderr.strip()
                os.replace(tmp, path)
                for name in os.listdir(cache):  # builds of older sources
                    if (name.startswith("_orbit.") and name.endswith(suffix)
                            and name != os.path.basename(path)):
                        try:
                            os.remove(os.path.join(cache, name))
                        except OSError:  # another import removed it first
                            pass
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        return _load_module(path), None
    except (ImportError, OSError) as exc:
        return None, str(exc)


_LIB, C_UNAVAILABLE = _load_c()
_BACKEND = "numpy" if _LIB is None else "c"


def get_backend() -> str:
    return _BACKEND


def set_backend(name: str):
    global _BACKEND
    if name == "c" and _LIB is None:
        raise RotorError("C backend unavailable: %s" % C_UNAVAILABLE)
    if name not in ("c", "numpy"):
        raise RotorError("backend must be 'c' or 'numpy'")
    _BACKEND = name


# ---------------------------------------------------------------------------
# C backend


def _apply_word_c(pts, prog, vx, vy):
    out = np.empty_like(pts)
    # apply_batch checks every point before it evaluates any
    if _LIB.apply_batch(pts, prog.handle, vx, vy, out):
        raise InvalidArgument(_NOT_FINITE)
    return out


def _orbit_mean_c(seeds, n, plane_mode, tail, path, prog, vx, vy, threads=1):
    # same arguments and result as _orbit_mean_np, with the seeds cut into
    # `threads` blocks
    seeds = np.ascontiguousarray(seeds, dtype=float)
    if seeds.shape[1:] != (2,):
        raise InvalidArgument("seeds must be (m, 2)")
    for a in (tail, path):
        if (a.shape[1:] != seeds.shape or a.dtype != float
                or not a.flags.c_contiguous):
            raise InvalidArgument("tail and path must be (steps, m, 2)")
    out = np.empty_like(seeds)
    _LIB.orbit_mean(seeds, n, plane_mode, tail, path, threads, prog.handle,
                    vx, vy, out)
    return out


def _grid_merge_c(pts, w, scale, cells):
    out_pts = np.empty_like(pts)
    out_w = np.empty_like(w)
    m = _LIB.grid_merge(pts, w, scale, cells, out_pts, out_w)
    if m == len(w):
        return out_pts, out_w
    # copies, so no measure pins the n-sized buffers
    return out_pts[:m].copy(), out_w[:m].copy()


def _affine_orbit_c(x0, y0, w1, w2, mat, inv, P):
    xs = np.empty(2 * P + 1)
    ys = np.empty(2 * P + 1)
    n = _LIB.affine_orbit(x0, y0, w1, w2, *mat, *inv, xs, ys)
    return xs[:n], ys[:n]


# ---------------------------------------------------------------------------
# numpy backend (vectorized across seeds)


def reduce_batch(pts):
    """Canonical torus representatives in [0,1)^2, with a snap at the seam:
    values a hair under 1 become 0."""
    out = pts - np.floor(pts)
    out[1.0 - out < _SNAP] = 0.0
    return out


def _grid_merge_np(pts, w, scale, cells):
    # np.lexsort is stable and bincount adds in input order from 0.0
    keys = np.round(reduce_batch(pts) * scale).astype(np.int64) % cells
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    cell = np.empty(len(ordered), dtype=np.intp)
    cell[order] = np.cumsum(first) - 1
    return ordered[first] / scale, np.bincount(cell, weights=w)


def _apply_word_np(pts, p, vx, vy):
    x = pts[:, 0]
    y = pts[:, 1]
    for li in range(len(p) - 1, -1, -1):
        s = p.slot[li]
        if p.mode[li] == 0:
            x, y = _forward_np(x, y, s, p)
        else:
            x, y = _newton_np(x, y, s, p)
    out = np.empty((len(x), 2))
    np.add(x, vx, out=out[:, 0])
    np.add(y, vy, out=out[:, 1])
    return out


def _terms_np(x, y, s, p):
    rx = x - np.floor(x)
    ry = y - np.floor(y)
    dx = np.zeros_like(x)
    dy = np.zeros_like(y)
    for t in range(p.tstart[s], p.tend[s]):
        v = p.amps[t] * np.sin(_TWO_PI * (p.fkx[t] * rx + p.fky[t] * ry)
                               + p.phase[t])
        if p.row[t] == 0:
            dx += v
        else:
            dy += v
    return dx, dy


def _forward_np(x, y, s, p):
    dx, dy = _terms_np(x, y, s, p)
    ax = p.lin[s, 0, 0] * x + p.lin[s, 0, 1] * y + dx
    ay = p.lin[s, 1, 0] * x + p.lin[s, 1, 1] * y + dy
    return ax, ay


def _newton_np(qx, qy, s, p):
    px = p.lin_inv[s, 0, 0] * qx + p.lin_inv[s, 0, 1] * qy
    py = p.lin_inv[s, 1, 0] * qx + p.lin_inv[s, 1, 1] * qy
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
        for t in range(p.tstart[s], p.tend[s]):
            arg = _TWO_PI * (p.fkx[t] * rx + p.fky[t] * ry) + p.phase[t]
            sv = p.amps[t] * np.sin(arg)
            cv = p.amps[t] * np.cos(arg) * _TWO_PI
            if p.row[t] == 0:
                dx += sv
                j00 += cv * p.fkx[t]
                j01 += cv * p.fky[t]
            else:
                dy += sv
                j10 += cv * p.fkx[t]
                j11 += cv * p.fky[t]
        fx = p.lin[s, 0, 0] * px + p.lin[s, 0, 1] * py + dx - qx
        fy = p.lin[s, 1, 0] * px + p.lin[s, 1, 1] * py + dy - qy
        ok = np.maximum(np.abs(fx), np.abs(fy)) < _NEWTON_TOL
        if ok.all():
            return px, py
        # a point whose residual is NaN can only end NaN
        if (ok | np.isnan(fx) | np.isnan(fy)).all():
            break
        a00 = p.lin[s, 0, 0] + j00
        a01 = p.lin[s, 0, 1] + j01
        a10 = p.lin[s, 1, 0] + j10
        a11 = p.lin[s, 1, 1] + j11
        det = a00 * a11 - a01 * a10
        det[det == 0.0] = np.nan
        act = ~ok
        px = np.where(act, px - (a11 * fx - a01 * fy) / det, px)
        py = np.where(act, py - (-a10 * fx + a00 * fy) / det, py)
    px = np.where(ok, px, np.nan)
    py = np.where(ok, py, np.nan)
    return px, py


def _orbit_mean_np(seeds, n, plane_mode, tail, path, prog, vx, vy):
    # tail and path have shape (steps, m, 2); _orbit.c's orbit_mean runs the
    # same loop
    start, first = n - len(tail), n - len(path)
    with np.errstate(over="ignore", invalid="ignore"):
        p = seeds.copy() if plane_mode else reduce_batch(seeds)
        acc = np.zeros_like(p)
        comp = np.zeros_like(p)
        for k in range(1, n + 1):
            if k > first:
                path[k - first - 1] = p
            q = _apply_word_np(p, prog, vx, vy)
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


def _affine_orbit_np(x0, y0, w1, w2, mat, inv, P):
    # plain-float steps in the order of MCGClass.apply; the scan stops at
    # the first point that is not finite
    xs, ys = [x0], [y0]
    finite = math.isfinite
    a, b, c, d = mat
    x, y = x0, y0
    for _ in range(P):  # forward: rho_{p+1} = A(rho_p + w)
        u, v = x + w1, y + w2
        x, y = a * u + b * v, c * u + d * v
        if not (finite(x) and finite(y)):
            break
        xs.append(x)
        ys.append(y)
    else:
        a, b, c, d = inv
        x, y = x0, y0
        for _ in range(P):  # backward: rho_{p-1} = A^-1 rho_p - w
            x, y = a * x + b * y - w1, c * x + d * y - w2
            if not (finite(x) and finite(y)):
                break
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


# ---------------------------------------------------------------------------
# dispatch


def apply_word(pts, prog, vx, vy):
    """The lift of a word program at plane points pts (m, 2).  A point that
    is not finite raises InvalidArgument before any point is evaluated."""
    pts = np.ascontiguousarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidArgument("points must have shape (m, 2)")
    if _BACKEND == "c":
        return _apply_word_c(pts, prog, vx, vy)
    if not np.isfinite(pts).all():
        raise InvalidArgument(_NOT_FINITE)
    return _apply_word_np(pts, prog, vx, vy)


def grid_merge(points, weights, scale: float, cells: int):
    """Merge finite atoms (n, 2) with weights (n,) by grid cell.

    Each coordinate is reduced to [0,1) and keyed round(r * scale) mod
    cells, rounding half to even.  Returns the cells in key order, as
    key / scale, and each cell's weight summed in input order from 0.0.
    Reducing is idempotent, so merged cells merge again into themselves;
    with cells = scale a point just below 1 lands in cell 0.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    w = np.ascontiguousarray(weights, dtype=float)
    if pts.shape != (len(w), 2):
        raise InvalidArgument("points must be (n, 2) and weights (n,)")
    merge = _grid_merge_c if _BACKEND == "c" else _grid_merge_np
    return merge(pts, w, float(scale), int(cells))


def _orbit_mean(seeds, n, plane_mode, tail, path, prog, vx, vy, threads=1):
    # the numpy loop ignores threads
    if _BACKEND == "c":
        return _orbit_mean_c(seeds, n, plane_mode, tail, path, prog, vx, vy,
                             threads)
    return _orbit_mean_np(seeds, n, plane_mode, tail, path, prog, vx, vy)


def orbit_mean_batch(seeds, n, plane_mode, prog, vx, vy, *, threads=1):
    """The n-step displacement means of seeds (m, 2).  The C loop cuts the
    seeds into `threads` contiguous blocks and runs them on as many threads,
    each block with its own memo."""
    none = np.empty((0, len(seeds), 2))
    return _orbit_mean(seeds, n, plane_mode, none, none, prog, vx, vy,
                       threads)


def orbit_mean_tail(sx, sy, n, plane_mode, prog, vx, vy):
    """The mean of one orbit and the largest distance from it of the running
    means over the last max(1, n//10) steps."""
    tail = np.empty((max(1, n // 10), 1, 2))
    mx, my = _orbit_mean(np.array([[sx, sy]]), n, plane_mode, tail,
                         np.empty((0, 1, 2)), prog, vx, vy)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.hypot(tail[:, 0, 0] - mx, tail[:, 0, 1] - my).max()
    return float(mx), float(my), float(spread)


def orbit_collect(sx, sy, burn, count, prog, vx, vy):
    """Torus orbit points w^burn(p), ..., w^(burn+count-1)(p) of p = (sx, sy),
    shape (count, 2): the path of the orbit loop in torus mode."""
    path = np.empty((count, 1, 2))
    _orbit_mean(np.array([[sx, sy]]), burn + count, False,
                np.empty((0, 1, 2)), path, prog, vx, vy)
    return path.reshape(count, 2)


def affine_orbit(x0: float, y0: float, w1: float, w2: float, mat, inv,
                 P: int):
    """The points rho0, A(rho0 + w), ..., then A^-1 rho0 - w, ... of the
    affine orbit of rho0 = (x0, y0) and w = (w1, w2) with P >= 0 steps each
    way, as two float arrays xs, ys.  mat = (a, b, c, d) holds the entries
    of A and inv those of A^-1; both backends take them as floats.  The
    scan stops at the first point that is not finite, so fewer than 2P + 1
    points mean the orbit overflowed."""
    mat = [float(v) for v in mat]
    inv = [float(v) for v in inv]
    scan = _affine_orbit_c if _BACKEND == "c" else _affine_orbit_np
    return scan(x0, y0, w1, w2, mat, inv, P)
