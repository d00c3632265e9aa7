import ctypes
import math
import os
import re
import shutil
import subprocess
import sys
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rotor import _kernels, maps
from rotor.averaging import _MERGE_CELLS, _MERGE_GRID
from rotor.catalog import build_catalog
from rotor.errors import InvalidArgument, NewtonDivergence, RotorError
from rotor.maps import (Generator, LiftedWord, MapGroup, apply_lift_batch,
                        apply_torus_batch, compile_program, constant_term,
                        displacement_field_batch, orbit_displacement_means,
                        orbit_mean_with_tail, orbit_segment, torus_grid,
                        trig_term)
from rotor.mcg import MCGClass

ID = MCGClass.identity()


def build_group():
    gens = [
        Generator("skew", ID,
                  disp_x=[constant_term(math.sqrt(2) - 1)],
                  disp_y=[constant_term(0.3), trig_term(0.05, 1, 0)]),
        Generator("mix", ID,
                  disp_x=[trig_term(0.04, 1, 1)],
                  disp_y=[trig_term(0.03, 0, 1, phase=1.0)]),
        Generator("dehn", MCGClass(1, 0, 1, 1)),
    ]
    return MapGroup(gens)


G = build_group()
# skipped only without a compiler, so a broken build fails these tests
needs_c = pytest.mark.skipif(shutil.which("cc") is None,
                             reason="no C compiler")


def _numpy_trig_is_libm():
    # the two backends agree bit for bit wherever numpy's sin and cos round
    # like the libm the C kernel calls
    x = np.random.default_rng(4).uniform(-50.0, 50.0, 4096)
    return (np.array_equal(np.sin(x), [math.sin(v) for v in x])
            and np.array_equal(np.cos(x), [math.cos(v) for v in x]))


def _bad_inverse():
    # not a homeomorphism: the Newton solves of its inverse fail at some
    # points and converge at others
    g = Generator("bad", ID, disp_x=[trig_term(0.3, 1, 0)],
                  disp_y=[trig_term(0.3, 0, 1)])
    return MapGroup([g]).word("bad'")


@pytest.fixture
def restore_backend():
    before = _kernels.get_backend()
    yield
    _kernels.set_backend(before)


@needs_c
def test_default_backend_is_c():
    assert _kernels.get_backend() == "c"


@needs_c
def test_backends_agree_on_torus_orbit(restore_backend):
    # includes a Newton inverse letter
    w = G.word([(0, 1), (1, -1)])
    seeds = np.random.default_rng(0).uniform(0, 1, size=(12, 2))
    _kernels.set_backend("c")
    a = orbit_displacement_means(w, seeds, 400)
    b_seg = orbit_segment(w, (0.2, 0.7), 50)
    _kernels.set_backend("numpy")
    c = orbit_displacement_means(w, seeds, 400)
    d_seg = orbit_segment(w, (0.2, 0.7), 50)
    assert np.abs(a - c).max() < 1e-10
    assert np.abs(b_seg - d_seg).max() < 1e-10


@needs_c
def test_backends_agree_on_plane_orbit(restore_backend):
    w = G.word([(2, 1), (0, 1)])
    seeds = np.random.default_rng(1).uniform(0, 1, size=(8, 2))
    _kernels.set_backend("c")
    a = orbit_displacement_means(w, seeds, 200)
    _kernels.set_backend("numpy")
    b = orbit_displacement_means(w, seeds, 200)
    assert np.abs(a - b).max() < 1e-9


@needs_c
def test_backends_agree_on_tail_spread(restore_backend):
    w = G.word([(0, 1)])
    _kernels.set_backend("c")
    m1, s1 = orbit_mean_with_tail(w, (0.11, 0.22), 2000)
    _kernels.set_backend("numpy")
    m2, s2 = orbit_mean_with_tail(w, (0.11, 0.22), 2000)
    assert np.abs(np.array(m1) - np.array(m2)).max() < 1e-12
    assert abs(s1 - s2) < 1e-12


def _kernel_outputs(seeds, n, threads_list):
    # means per thread count, tails and a segment on a torus, a Newton and a
    # plane word
    out = []
    for word in ("skew mix", "skew mix'", "dehn skew"):
        w = G.word(word)
        for threads in threads_list:
            out.append(orbit_displacement_means(w, seeds, n, threads))
        for s in seeds[:2]:
            mean, spread = orbit_mean_with_tail(w, s, n)
            out.append(np.array(mean + (spread,)))
        out.append(orbit_segment(w, seeds[0], n, burn=7))
    return out


@needs_c
def test_c_kernels_match_numpy(restore_backend):
    seeds = np.random.default_rng(2).uniform(0, 1, size=(5, 2))
    runs = []
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        runs.append(_kernel_outputs(seeds, 150, (1, 2)))
    assert len(runs[0]) == 3 * (2 + 2 + 1)
    gaps = [np.abs(a - b).max() for a, b in zip(*runs)]
    assert max(gaps) < 1e-12
    # the two loops run the same float operations in the same order
    if _numpy_trig_is_libm():
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


def _struct(w):
    # a compiled program is its Program, then vx, vy
    return compile_program(w)[0]


def _catalog_lifts():
    cat = build_catalog()
    words = [cat.by_name(g.name) for g in cat.generators]
    words += [cat.word(s) for s in ("h' irrskew", "h' tr", "skew twist'",
                                    "h skew h'")]
    return [LiftedWord(w, v) for w in words for v in ((0, 0), (3, -2))]


@needs_c
def test_apply_lift_batch_c_matches_numpy(restore_backend):
    rng = np.random.default_rng(5)
    batches = [rng.uniform(-2.0, 3.0, (1, 2)), rng.uniform(-2.0, 3.0, (4, 2)),
               torus_grid(256)]
    runs = []
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        runs.append([apply_lift_batch(lw, pts) for lw in _catalog_lifts()
                     for pts in batches])
    assert len(runs[0]) == 2 * 13 * 3
    assert max(np.abs(a - b).max() for a, b in zip(*runs)) < 1e-12
    if _numpy_trig_is_libm():
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


@needs_c
def test_newton_failure_raises_on_both_backends(restore_backend):
    wild = MapGroup([Generator("wild", ID, disp_y=[trig_term(1.0e8, 0, 1)])]
                    ).word("wild'")
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        with pytest.raises(NewtonDivergence):
            apply_lift_batch(wild, np.array([[0.3, 0.3]]))
        with pytest.raises(NewtonDivergence):
            apply_lift_batch(_bad_inverse(), torus_grid(16))


@needs_c
def test_failed_orbits_are_nan_in_the_same_cells(restore_backend):
    # a seed stops iterating Newton at its first NaN residual; the means and
    # every tail and path cell must still come out exactly as a full run
    # gives them
    w = _bad_inverse()
    seeds = np.random.default_rng(0).random((16, 2))
    n = 60
    runs = []
    for backend, mean in (("c", _kernels._orbit_mean_c),
                          ("numpy", _kernels._orbit_mean_np)):
        _kernels.set_backend(backend)
        tail = np.empty((n // 10, len(seeds), 2))
        path = np.empty((n // 4, len(seeds), 2))
        runs.append((mean(seeds, n, False, tail, path, *compile_program(w)),
                     tail, path))
        with pytest.raises(NewtonDivergence):
            orbit_displacement_means(w, seeds, n)
        failed = np.isnan(runs[-1][0]).any(axis=1)
        with pytest.raises(NewtonDivergence):
            orbit_mean_with_tail(w, seeds[failed][0], n)
        orbit_mean_with_tail(w, seeds[~failed][0], n)
    assert 0 < np.isnan(runs[0][0]).any(axis=1).sum() < len(seeds)
    assert np.isnan(runs[0][1]).any() and np.isnan(runs[0][2]).any()
    for a, b in zip(*runs):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.abs(np.nan_to_num(a - b)).max() < 1e-12
        if _numpy_trig_is_libm():
            assert np.array_equal(a, b, equal_nan=True)


@needs_c
@pytest.mark.parametrize("n, window, steps", [
    (10, 0, 0), (10, 3, 0), (10, 0, 4), (10, 3, 7), (10, 7, 3), (10, 10, 10),
    (5, 8, 9)])
def test_tail_and_path_match_numpy(n, window, steps):
    # the C loop runs the steps before the first recording one apart; every
    # recorded cell, and every cell before n steps back left as it was, must
    # come out as numpy's one loop gives it, for m > 1 seeds
    seeds = np.random.default_rng(3).uniform(-2.0, 3.0, (5, 2))
    cat = build_catalog()
    for word, plane_mode in (("skew", False), ("h skew'", False),
                             ("dehn", True)):
        prog = compile_program(cat.word(word))
        runs = []
        for mean in (_kernels._orbit_mean_c, _kernels._orbit_mean_np):
            tail = np.full((window, len(seeds), 2), 7.0)
            path = np.full((steps, len(seeds), 2), 7.0)
            runs.append((mean(seeds, n, plane_mode, tail, path, *prog), tail,
                         path))
        for a, b in zip(*runs):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12), word
            if word == "dehn" or _numpy_trig_is_libm():
                assert a.tobytes() == b.tobytes(), word


@needs_c
def test_lifts_sharing_a_program_keep_their_translations(restore_backend):
    # both lifts run on the one cached program struct, also concurrently:
    # more threads than cores, switching as often as the interpreter allows
    _kernels.set_backend("c")
    w = build_catalog().word("h' irrskew")
    v = (5, -7)
    pts = torus_grid(64)
    base = apply_lift_batch(LiftedWord(w), pts)
    moved = base + v
    assert _struct(w) is _struct(w.lift(v))
    lifts = [LiftedWord(w), LiftedWord(w, v)] * 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            outs = list(ex.map(lambda lw: apply_lift_batch(lw, pts), lifts,
                               timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for lw, out in zip(lifts, outs):
        want = moved if lw.extra_translation == v else base
        assert out.tobytes() == want.tobytes()


@needs_c
def test_groups_do_not_share_program_structs(restore_backend):
    # same letters, different maps: each group compiles its own program
    def group(amp):
        return MapGroup([Generator("g", ID, disp_x=[trig_term(amp, 1, 1)])])

    w1, w2 = group(0.02).word("g' g'"), group(0.05).word("g' g'")
    assert w1.letters == w2.letters
    assert _struct(w1) is not _struct(w2)
    pts = torus_grid(8)
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        a, b = apply_lift_batch(w1, pts), apply_lift_batch(w2, pts)
        assert np.abs(a - b).max() > 1e-3
        for w, out in ((w1, a), (w2, b)):
            oracle = _kernels._apply_word_np(pts, *compile_program(w))
            assert np.abs(out - oracle).max() < 1e-12


@needs_c
def test_c_threads_are_bitwise_deterministic(restore_backend):
    _kernels.set_backend("c")
    seeds = np.random.default_rng(3).uniform(0, 1, size=(11, 2))
    for word in ("skew mix", "skew mix'", "dehn skew"):
        w = G.word(word)
        one = orbit_displacement_means(w, seeds, 300, threads=1)
        two = orbit_displacement_means(w, seeds, 300, threads=2)
        assert one.tobytes() == two.tobytes()


# words whose letters share memo entries with their twins: the two twists
# (or two twist's) of a step, and the last skew of one step with the first
# of the next; h and h' have the same slot but are never twins
TWIN_WORDS = ("twist h twist", "twist' h twist'", "skew halftr skew halftr",
              "h skew h'")


def _memo_outputs():
    # cases where the C word step reuses most of its sin and cos values:
    # consecutive torus_grid points share x, which is all the terms of h and
    # skew read, so the Newton solves of h' repeat their iterates from point
    # to point; twist never moves y; Newton for skew' keeps x
    cat = build_catalog()
    grid = torus_grid(256)
    seeds = np.random.default_rng(6).uniform(0, 1, size=(9, 2))
    out = [apply_lift_batch(cat.word(name), grid)
           for name in ("h", "skew", "skew'", "h skew'", "h'") + TWIN_WORDS]
    for seed in seeds[:2]:
        mean, spread = orbit_mean_with_tail(cat.word("twist"), seed, 500)
        out.append(np.array(mean + (spread,)))
    for name in ("twist", "skew'", "h skew'") + TWIN_WORDS:
        w = cat.word(name)
        for threads in (1, 2):
            out.append(orbit_displacement_means(w, seeds, 300, threads))
        out.append(orbit_segment(w, seeds[0], 100, burn=50))
    return out


@needs_c
def test_c_memo_hits_match_numpy(restore_backend):
    runs = []
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        runs.append(_memo_outputs())
    assert len(runs[0]) == 9 + 2 + 7 * 3
    assert max(np.abs(a - b).max() for a, b in zip(*runs)) < 1e-12
    if _numpy_trig_is_libm():
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


@needs_c
def test_c_memo_allocation_failure_is_a_memory_error(monkeypatch,
                                                     restore_backend):
    # each word-step entry point returns -1 when its memo cannot be
    # allocated; that is never "points must be finite"
    class NoMemory:
        def __getattr__(self, name):
            return lambda *args: -1

    prog = compile_program(G.word("skew mix'"))
    _kernels.set_backend("c")
    monkeypatch.setattr(_kernels, "_LIB", NoMemory())
    none = np.empty((0, 2, 2))
    calls = [
        lambda: _kernels._apply_word_c(np.zeros((2, 2)), *prog),
        lambda: _kernels._orbit_mean_c(np.zeros((2, 2)), 5, False, none,
                                       none, *prog),
        lambda: _kernels.orbit_collect(0.1, 0.2, 3, 4, *prog),
    ]
    for call in calls:
        with pytest.raises(MemoryError):
            call()


@needs_c
def test_orbit_pool_is_capped_at_the_usable_cpus(monkeypatch,
                                                 restore_backend):
    # a spy records the block count orbit_displacement_means hands to the
    # kernel, which then runs at most three threads
    real = _kernels.orbit_mean_batch
    blocks = []

    def spy(*args, threads=1):
        blocks.append(threads)
        return real(*args, threads=threads)

    _kernels.set_backend("c")
    monkeypatch.setattr(_kernels, "orbit_mean_batch", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    w = G.word("skew mix'")
    seeds = torus_grid(16)
    one = orbit_displacement_means(w, seeds, 20)
    many = orbit_displacement_means(w, seeds, 20, threads=100000)
    assert blocks == [1, 3]
    assert many.tobytes() == one.tobytes()
    # with one usable CPU threads > 1 still splits the seeds, into two
    # blocks, so thread_determinism compares a split run on every machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    eight = orbit_displacement_means(w, seeds, 20, threads=8)
    lone = orbit_displacement_means(w, seeds[:1], 20, threads=8)
    assert blocks == [1, 3, 2, 1]
    assert eight.tobytes() == one.tobytes()
    assert lone.tobytes() == one[:1].tobytes()


# each bad input with the exact class it raises, named <lambda>0 to
# <lambda>8 by position
BAD_ORBIT_CALLS = [
    (lambda w: orbit_displacement_means(w, [[0.1, 0.2], [math.nan, 0.2]], 5),
     InvalidArgument),
    (lambda w: orbit_displacement_means(w, [[math.inf, 0.2]], 5, threads=2),
     InvalidArgument),
    (lambda w: orbit_mean_with_tail(w, (math.nan, 0.2), 5), InvalidArgument),
    (lambda w: orbit_segment(w, (0.3, -math.inf), 5), InvalidArgument),
    (lambda w: orbit_segment(w, (0.3, 0.2), -3), InvalidArgument),
    (lambda w: orbit_segment(w, (0.3, 0.2), 3, burn=-3), InvalidArgument),
    (lambda w: orbit_segment(w, (0.3, 0.2), 3.0), InvalidArgument),
    (lambda w: orbit_mean_with_tail(w, (0.3, 0.2), 5.0), InvalidArgument),
    (lambda w: orbit_displacement_means(w, [[0.3, 0.2]], 5.0),
     InvalidArgument),
]


@pytest.mark.parametrize("call, error", BAD_ORBIT_CALLS, ids=[
    "<lambda>%d" % i for i in range(len(BAD_ORBIT_CALLS))])
def test_bad_orbit_inputs_fail_alike_on_every_backend(call, error,
                                                      restore_backend):
    # no inverse letter: a NaN seed used to be blamed on Newton
    w = MapGroup([Generator("bad", ID, disp_x=[trig_term(0.3, 1, 0)])]
                 ).by_name("bad")
    backends = ["numpy"] + ([] if _kernels.C_UNAVAILABLE else ["c"])
    messages = []
    for backend in backends:
        _kernels.set_backend(backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RotorError) as err:
                call(w)
        assert type(err.value) is error
        messages.append(str(err.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("threads", ["2", None, -4, 0, 1.5, 2.5])
def test_bad_thread_counts_raise_before_any_kernel(backend, threads,
                                                   monkeypatch,
                                                   restore_backend):
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    _kernels.set_backend(backend)
    monkeypatch.setattr(_kernels, "orbit_mean_batch", no_kernel)
    with pytest.raises(InvalidArgument, match="threads"):
        orbit_displacement_means(G.word("skew"), torus_grid(4), 5, threads)


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_c)])
def test_numpy_integer_thread_counts_are_accepted(backend, restore_backend):
    _kernels.set_backend(backend)
    w, seeds = G.word("skew mix'"), torus_grid(4)
    one = orbit_displacement_means(w, seeds, 20)
    for threads in (np.int64(2), np.int32(1), np.uint8(3)):
        got = orbit_displacement_means(w, seeds, 20, threads)
        assert got.tobytes() == one.tobytes()


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("word", ["h'", "skew"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_apply_lift_batch_rejects_nonfinite_points(backend, word, value,
                                                   restore_backend):
    # h' has an inverse letter, which blamed Newton for the input; skew has
    # none, and its C step returned NaN without a word
    _kernels.set_backend(backend)
    pts = np.array([[0.3, 0.2], [value, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RotorError, match="points must be finite") as err:
            apply_lift_batch(build_catalog().word(word), pts)
    assert type(err.value) is InvalidArgument


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("evaluate", [apply_torus_batch,
                                      displacement_field_batch])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_torus_evaluators_reject_nonfinite_points(backend, evaluate, value,
                                                  restore_backend):
    # checked before the reduction, which turned inf into NaN with a
    # RuntimeWarning
    _kernels.set_backend(backend)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RotorError, match="points must be finite") as err:
            evaluate(build_catalog().word("skew"), [[0.3, 0.2], [value, 0.2]])
    assert type(err.value) is InvalidArgument


# the grids the measures merge on: the 1e-12 atom grid, the 1e-10 stage
# grid and the 1/4096 coarse re-bin
MERGE_GRIDS = [(1e12, 10 ** 12), (1.0 / _MERGE_GRID, _MERGE_CELLS),
               (4096.0, 4096)]


def _merge_inputs(rng):
    """Point sets: random, 8x8-gridded with ties, near the grid points, at
    and across the seam, negative and above 1, from single atoms up."""
    seam = [1 - 1e-16, -1e-17, 0.0, 1.0, 1 - 1e-13, -1e-13, 0.5, 2.0]
    for n in (1, 2, 17, 40, 1000):
        yield rng.random((n, 2))
        yield rng.integers(0, 8, (n, 2)) / 8.0
        yield (rng.integers(0, 8, (n, 2)) / 8.0
               + rng.uniform(-4e-13, 4e-13, (n, 2)))
        yield rng.choice(seam, (n, 2))
        yield rng.random((n, 2)) * 10.0 - 5.0
        yield -rng.random((n, 2))
        yield 1.0 + rng.random((n, 2))
    # one cell hit many times, half a key step apart (ties round to even)
    yield np.full((33, 2), 0.5 / 4096) * np.arange(33)[:, None]


@needs_c
@pytest.mark.parametrize("scale, cells", MERGE_GRIDS)
def test_c_grid_merge_matches_numpy_bitwise(scale, cells):
    rng = np.random.default_rng(11)
    for points in _merge_inputs(rng):
        # weights over 16 decades, so each cell sum depends on the order
        weights = rng.random(len(points)) * 10.0 ** rng.uniform(
            -8, 8, len(points))
        c_pts, c_w = _kernels._grid_merge_c(points, weights, scale, cells)
        np_pts, np_w = _kernels._grid_merge_np(points, weights, scale, cells)
        assert c_pts.shape == np_pts.shape and c_w.shape == np_w.shape
        assert c_pts.tobytes() == np_pts.tobytes()
        assert c_w.tobytes() == np_w.tobytes()
        assert ((0.0 <= c_pts) & (c_pts < 1.0)).all()


@needs_c
def test_c_grid_merge_owns_its_cells():
    # merged atoms are copied out of the n-sized buffers
    pts = np.zeros((1000, 2))
    cells, sums = _kernels._grid_merge_c(pts, np.ones(1000), 1e12, 10 ** 12)
    assert cells.shape == (1, 2) and sums.tolist() == [1000.0]
    assert cells.base is None and sums.base is None


# where x - floor(x) is easy to get wrong: zeros of both signs, negatives
# so small that their fraction rounds to 1, the double below 1, integers,
# the last half-integer and the first integers past 2**52, and magnitudes
# where every double is an integer
EDGES = [-0.0, -5e-324, -1e-300, 1.0 - 2.0 ** -53, 1.0, -1.0,
         2.0 ** 52 - 0.5, 2.0 ** 52 + 1.0, 2.0 ** 53, 1e300, -1e300]


def _edge_outputs(word, plane_mode):
    # every ordered pair of edge values through the current backend's
    # kernels
    edges = np.array(EDGES)
    pts = np.stack(np.meshgrid(edges, edges, indexing="ij"), -1).reshape(-1, 2)
    prog = compile_program(build_catalog().word(word))
    tail = np.empty((3, len(pts), 2))
    path = np.empty((2, len(pts), 2))
    out = [_kernels.apply_word(pts, *prog),
           _kernels._orbit_mean(pts, 3, plane_mode, tail, path, *prog), tail,
           path]
    out += [_kernels.orbit_collect(x, y, 0, 3, *prog) for x, y in pts]
    out += _kernels.grid_merge(pts, np.ones(len(pts)), 1e12, 10 ** 12)
    return out


@needs_c
@pytest.mark.parametrize("word, plane_mode", [
    ("dehn", True), ("phi", True), ("skew", False), ("h'", False)])
def test_edge_values_match_numpy_bitwise(word, plane_mode, restore_backend):
    # the C word step and reduce take x - floor(x) by a shortcut on [+0, 1);
    # -0.0 must still come out +0.0, as numpy's subtraction gives it
    runs = []
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        runs.append(_edge_outputs(word, plane_mode))
    assert len(runs[0]) == 4 + len(EDGES) ** 2 + 2
    collected = np.concatenate(runs[0][4:-2])
    assert collected.tobytes() == np.abs(collected).tobytes()   # no -0.0
    for a, b in zip(*runs):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.abs(np.nan_to_num(a - b)).max() < 1e-12
    # dehn and phi call no trig
    if word in ("dehn", "phi") or _numpy_trig_is_libm():
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


# (rho0, w, class, P) edge cases of the affine orbit scan
AFFINE_EDGES = [
    ((-0.0, 0.3), (-0.0, -0.0), MCGClass(1, 0, 1, 1), 5),
    ((-0.0, -0.0), (-0.0, 0.0), MCGClass(0, -1, 1, 0), 4),
    ((1e308, 0.0), (0.0, 0.0), MCGClass(2, 1, 1, 1), 10),
    ((1.5e308, 0.0), (-1e307, 0.0), ID, 5),
    ((0.2, 0.7), (0.1, -0.3), MCGClass(1000001, 1000000, 1, 1), 0),
    ((0.2, 0.7), (0.1, -0.3), MCGClass(1000001, 1000000, 1, 1), 1),
    ((0.2, 0.7), (0.1, -0.3), MCGClass(1000001, 1000000, 1, 1), 60),
    ((0.2, -0.7), (-0.1, 0.3), MCGClass(-1, 1000000, 0, -1), 50),
    ((0.25, 0.5), (-0.5, 0.125), MCGClass(-1000000, 1, -1, 0), 30),
]


def _affine_outputs():
    # the points of every AFFINE_EDGES scan on the current backend
    out = []
    for rho0, w, g, P in AFFINE_EDGES:
        inv = g.inverse()
        out.extend(_kernels.affine_orbit(*rho0, *w, (g.a, g.b, g.c, g.d),
                                         (inv.a, inv.b, inv.c, inv.d), P))
    return out


@needs_c
def test_affine_orbit_backends_agree_on_edges(restore_backend):
    runs = []
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        runs.append(_affine_outputs())
    # overflow on the first forward step, in the backward half only, and
    # in the middle of the forward half; P = 0 and 1 scan 1 and 3 points
    assert [len(xs) for xs in runs[1][::2]] == [11, 9, 1, 8, 1, 3, 52, 101,
                                               61]
    assert any(np.signbit(xs[xs == 0.0]).any() for xs in runs[1])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


def _c_entry_points():
    # name -> parameter count of every function _orbit.c defines without
    # static: its comments, directives and brace bodies removed, each
    # definition is a top-level statement ending in its parameter list
    with open(_kernels._C_SOURCE) as f:
        src = f.read()
    src = re.sub(r"/\*.*?\*/|^#[^\n]*", " ", src, flags=re.S | re.M)
    while "{" in src:
        src = re.sub(r"\{[^{}]*\}", ";", src)
    out = {}
    for stmt in src.split(";"):
        m = re.search(r"(\w+)\s*\(([^()]*)\)\s*$", stmt)
        if m and stmt.split()[0] != "static":
            out[m.group(1)] = len(m.group(2).split(","))
    return out


@pytest.mark.skipif(_kernels.C_UNAVAILABLE is not None,
                    reason="C backend unavailable: %s" % _kernels.C_UNAVAILABLE)
def test_every_c_entry_point_is_typed(monkeypatch):
    # ctypes passes untyped arguments as C ints and reads a C int back by
    # default, which would truncate an int64_t count, so _load_c must set
    # argtypes and restype of every exported function
    typed = {}

    class Recorder:
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            return typed.setdefault(name, types.SimpleNamespace())

    monkeypatch.setattr(ctypes, "CDLL", Recorder)
    _, why = _kernels._load_c()
    assert why is None
    entry = _c_entry_points()
    assert set(entry) == {"apply_batch", "orbit_mean", "grid_merge",
                          "affine_orbit"}
    for name, nparams in entry.items():
        fn = vars(typed.get(name, types.SimpleNamespace()))
        assert "restype" in fn, name
        assert len(fn.get("argtypes", ())) == nparams, name


def test_every_c_entry_point_is_called():
    # an export that _kernels never calls is dead C code
    with open(_kernels.__file__) as f:
        called = set(re.findall(r"_LIB\.(\w+)\(", f.read()))
    assert called == set(_c_entry_points())


def _build_orbit_library(tmp_path, opt, *extra):
    # _orbit.c built with the package's flags but another optimisation level
    # and the extra flags, its entry points typed like the loaded library's
    flags = [f for f in _kernels._CFLAGS if not f.startswith("-O")]
    path = tmp_path / ("orbit%s%d.so" % (opt, len(extra)))
    out = subprocess.run(["cc", opt, *flags, *extra, "-o", str(path),
                          _kernels._C_SOURCE, "-lm"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lib = ctypes.CDLL(str(path))
    for name in _c_entry_points():
        fn, typed = getattr(lib, name), getattr(_kernels._LIB, name)
        fn.argtypes, fn.restype = typed.argtypes, typed.restype
    return lib


def _split_orbit_outputs(pts, n, plane_mode, prog, threads):
    # the mean, tail and path of _orbit_mean_c over threads blocks of pts
    tail = np.empty((4, len(pts), 2))
    path = np.empty((5, len(pts), 2))
    mean = _kernels._orbit_mean_c(pts, n, plane_mode, tail, path, *prog,
                                  threads=threads)
    return [mean, tail, path]


def _c_outputs(lib, monkeypatch):
    # orbit means and plane evaluations, edge values included, run on lib
    monkeypatch.setattr(_kernels, "_LIB", lib)
    cat = build_catalog()
    edges = np.array(EDGES)
    pts = np.vstack([torus_grid(8), np.random.default_rng(8).uniform(
        -3.0, 4.0, (32, 2)), np.column_stack([edges, edges[::-1]])])
    out = []
    for word in ("twist", "dehn", "h skew'", "irrskew"):
        w = cat.word(word)
        plane_mode, prog = maps._orbit_program(LiftedWord(w))
        out += _split_orbit_outputs(pts, 40, plane_mode, prog, 1)
        out.append(_kernels._apply_word_c(pts, *prog))
        # each block of seeds writes its own rows of tail and path
        for threads in (2, 3, 7):
            split = _split_orbit_outputs(pts, 40, plane_mode, prog, threads)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(split, out[-4:-1])), (word, threads)
    # Newton solves that repeat their iterates from point to point
    grid = torus_grid(64)
    for word in ("h skew h'", "h'"):
        out.append(_kernels._apply_word_c(grid, *compile_program(
            cat.word(word))))
    return out + _affine_outputs()


@pytest.mark.skipif(_kernels.C_UNAVAILABLE is not None,
                    reason="C backend unavailable: %s" % _kernels.C_UNAVAILABLE)
def test_optimisation_level_changes_no_bit(tmp_path, monkeypatch,
                                           restore_backend):
    # frac's x + 0.0 turns -0.0 into +0.0; an optimiser that folded it to x
    # (as -ffast-math allows) would change bits, so -O0 and -O3 builds must
    # agree with the loaded -O2 library
    _kernels.set_backend("c")
    want = _c_outputs(_kernels._LIB, monkeypatch)
    for opt in ("-O0", "-O3"):
        got = _c_outputs(_build_orbit_library(tmp_path, opt), monkeypatch)
        assert len(got) == len(want) == 18 + 2 * len(AFFINE_EDGES)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), opt


# makes every pthread_create of a build that includes it first fail, as it
# does when the system is out of threads, and counts the attempts
_NO_THREAD_HEADER = """\
#include <errno.h>
#include <pthread.h>
#include <stdint.h>
int64_t create_calls;
static int no_thread(pthread_t *id, const pthread_attr_t *attr,
                     void *(*run)(void *), void *arg)
{
    (void)id, (void)attr, (void)run, (void)arg;
    create_calls++;
    return EAGAIN;
}
#define pthread_create no_thread
"""


@pytest.mark.skipif(_kernels.C_UNAVAILABLE is not None,
                    reason="C backend unavailable: %s" % _kernels.C_UNAVAILABLE)
def test_blocks_without_a_thread_run_on_the_caller(tmp_path, monkeypatch,
                                                   restore_backend):
    _kernels.set_backend("c")
    header = tmp_path / "no_thread.h"
    header.write_text(_NO_THREAD_HEADER)
    loaded = _kernels._LIB
    lib = _build_orbit_library(tmp_path, "-O2", "-include", str(header))
    calls = ctypes.c_int64.in_dll(lib, "create_calls")
    pts = np.random.default_rng(9).uniform(-2.0, 3.0, (23, 2))
    for word in ("h skew'", "dehn"):
        plane_mode, prog = maps._orbit_program(
            LiftedWord(build_catalog().word(word)))
        monkeypatch.setattr(_kernels, "_LIB", loaded)
        want = _split_orbit_outputs(pts, 30, plane_mode, prog, 1)
        monkeypatch.setattr(_kernels, "_LIB", lib)
        for threads in (2, 5):
            calls.value = 0
            got = _split_orbit_outputs(pts, 30, plane_mode, prog, threads)
            assert calls.value == threads - 1
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


# counts every sin and cos call of a build that includes it first
_COUNTING_HEADER = """\
#include <math.h>
#include <stdint.h>
int64_t sin_calls, cos_calls;
static double counted_sin(double x) { sin_calls++; return sin(x); }
static double counted_cos(double x) { cos_calls++; return cos(x); }
#define sin(x) counted_sin(x)
#define cos(x) counted_cos(x)
"""

# (sin, cos) calls of orbit_mean on one seed over 1000 steps.  Without
# twins "twist h twist" made (6002, 0), "twist' h twist'" (6002, 4002) and
# "skew halftr skew halftr" (4, 0); without entries per Newton iteration
# "h skew h'" made (12003, 12000); the others are as they were
LIBM_CALLS = {
    "twist h twist": (4003, 0),         # 4 sin a step, after the first
    "twist' h twist'": (4003, 2003),
    "skew halftr skew halftr": (3, 0),
    "h skew h'": (15, 12),              # its orbits keep x
    "twist": (3, 0),
    "h skew'": (111, 37),
    "irrskew": (1002, 0),
}


# (sin, cos) calls of apply_batch on torus_grid(256).  Without entries per
# Newton iteration "h skew h'" made (639752, 638984) and "h'" (638984,
# 638984); the terms of twist' read y, which changes from point to point
GRID_LIBM_CALLS = {
    "h skew h'": (3272, 2504),
    "h'": (2504, 2504),
    "skew twist'": (196609, 131073),
}


@pytest.mark.skipif(_kernels.C_UNAVAILABLE is not None,
                    reason="C backend unavailable: %s" % _kernels.C_UNAVAILABLE)
def test_twin_memo_libm_calls(tmp_path, monkeypatch, restore_backend):
    # a 1000-point orbit segment runs the same torus loop as the 1000-step
    # mean of an identity-class word, so it makes the same calls
    _kernels.set_backend("c")
    header = tmp_path / "counting.h"
    header.write_text(_COUNTING_HEADER)
    loaded = _kernels._LIB
    counting = _build_orbit_library(tmp_path, "-O2", "-include", str(header))
    calls = [ctypes.c_int64.in_dll(counting, name)
             for name in ("sin_calls", "cos_calls")]
    cat = build_catalog()
    grid = torus_grid(256)
    for word, want in GRID_LIBM_CALLS.items():
        prog = compile_program(cat.word(word))
        for c in calls:
            c.value = 0
        outs = []
        for lib in (loaded, counting):
            monkeypatch.setattr(_kernels, "_LIB", lib)
            outs.append(_kernels._apply_word_c(grid, *prog))
        assert tuple(c.value for c in calls) == want, word
        assert outs[0].tobytes() == outs[1].tobytes(), word
    seed = np.random.default_rng(5).random((1, 2))
    for word, want in LIBM_CALLS.items():
        plane_mode, prog = maps._orbit_program(LiftedWord(cat.word(word)))
        for c in calls:
            c.value = 0
        means = []
        for lib in (loaded, counting):
            monkeypatch.setattr(_kernels, "_LIB", lib)
            none = np.empty((0, 1, 2))
            means.append(_kernels._orbit_mean_c(
                seed, 1000, plane_mode, none, none, *prog))
        assert tuple(c.value for c in calls) == want, word
        assert means[0].tobytes() == means[1].tobytes(), word
        if plane_mode:
            continue
        for c in calls:
            c.value = 0
        orbit_segment(cat.word(word), seed[0], 1000)
        assert tuple(c.value for c in calls) == want, word


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_c)])
def test_kernel_shape_checks_raise_invalid_argument(backend, restore_backend):
    _kernels.set_backend(backend)
    prog = compile_program(G.word("skew mix'"))
    calls = [
        lambda: _kernels.apply_word(np.zeros((3, 3)), *prog),
        lambda: _kernels.apply_word(np.zeros(4), *prog),
        lambda: _kernels.grid_merge(np.zeros((3, 2)), np.ones(2), 8.0, 8),
        lambda: _kernels.grid_merge(np.zeros(4), np.ones(2), 8.0, 8),
    ]
    if backend == "c":      # the C mean loop trusts these shapes
        none = np.empty((0, 2, 2))
        calls += [
            lambda: _kernels._orbit_mean_c(np.zeros((2, 3)), 5, False, none,
                                           none, *prog),
            lambda: _kernels._orbit_mean_c(np.zeros((2, 2)), 5, False,
                                           np.empty((1, 3, 2)), none, *prog),
            lambda: _kernels._orbit_mean_c(np.zeros((2, 2)), 5, False, none,
                                           np.empty((1, 3, 2)), *prog),
            lambda: _kernels._orbit_mean_c(np.zeros((2, 2)), 5, False, none,
                                           np.empty((2, 2, 2))[::-1], *prog),
        ]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()


def test_zero_length_segment_is_empty():
    assert orbit_segment(G.word("skew"), (0.3, 0.2), 0).shape == (0, 2)


def test_burn_consistency():
    w = G.word([(0, 1), (1, 1)])
    full = orbit_segment(w, (0.4, 0.9), 30)
    tail = orbit_segment(w, (0.4, 0.9), 20, burn=10)
    assert np.array_equal(full[10:], tail)


def test_set_backend_rejects_unknown():
    with pytest.raises(RotorError):
        _kernels.set_backend("gpu")
    with pytest.raises(RotorError):
        _kernels.set_backend("numba")


_PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rotor")

_BACKEND_PROBE = """\
import numpy as np
from rotor import _kernels, maps
from rotor.errors import RotorError
from rotor.maps import (Generator, MapGroup, constant_term,
                        orbit_displacement_means)
from rotor.mcg import MCGClass
print(_kernels.get_backend())
g = Generator("t", MCGClass.identity(), disp_x=[constant_term(0.25)])
m = orbit_displacement_means(MapGroup([g]).by_name("t"), [[0.0, 0.0]], 8)
assert abs(m[0, 0] - 0.25) < 1e-15, m
try:
    _kernels.set_backend("c")
except RotorError as exc:
    print(exc)
"""


def _probe_backend(root, path):
    # runs the probe on the copy of rotor under root, with PATH set to path
    env = dict(os.environ, PYTHONPATH=str(root), PATH=str(path))
    out = subprocess.run([sys.executable, "-c", _BACKEND_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@needs_c
def test_build_cache_and_fallback_without_compiler(tmp_path):
    no_cc = tmp_path / "empty-bin"
    no_cc.mkdir()
    built, fresh = tmp_path / "built", tmp_path / "fresh"
    for root in (built, fresh):
        shutil.copytree(_PACKAGE, root / "rotor",
                        ignore=shutil.ignore_patterns("__pycache__"))
    # a cold import builds the library into the package's __pycache__ and
    # removes the library of an older source
    cache = built / "rotor" / "__pycache__"
    cache.mkdir()
    (cache / "_orbit.deadbeef.so").write_bytes(b"stale")
    assert _probe_backend(built, os.environ["PATH"]) == ["c"]
    libs = [f for f in os.listdir(cache) if f.endswith(".so")]
    assert len(libs) == 1 and libs[0] != "_orbit.deadbeef.so"
    # the next import loads the cached library and needs no compiler
    assert _probe_backend(built, no_cc) == ["c"]
    # with no compiler and no cache the backend is numpy, and says why
    backend, reason = _probe_backend(fresh, no_cc)
    assert backend == "numpy"
    assert reason.startswith("C backend unavailable") and "'cc'" in reason


@needs_c
def test_orbit_source_compiles_cleanly(tmp_path):
    # the package's flags with every common warning an error
    cmd = ["cc", *_kernels._CFLAGS, "-std=c99", "-Wall", "-Wextra",
           "-Wpedantic", "-Werror", "-o", str(tmp_path / "orbit.so"),
           _kernels._C_SOURCE, "-lm"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
