import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rotor import _kernels
from rotor.maps import (Generator, LiftedWord, MapGroup, constant_term,
                        orbit_displacement_means, orbit_mean_with_tail,
                        orbit_segment, trig_term)
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
needs_numba = pytest.mark.skipif(not _kernels._HAVE_NUMBA,
                                 reason="numba backend unavailable")


@pytest.fixture
def restore_backend():
    before = _kernels.get_backend()
    yield
    _kernels.set_backend(before)


@needs_numba
def test_default_backend_is_numba():
    assert _kernels.get_backend() == "numba"


@needs_numba
def test_backends_agree_on_torus_orbit(restore_backend):
    # includes a Newton inverse letter; agreement is to fp noise, not bitwise,
    # because numba and numpy may round libm calls differently by 1 ulp
    w = G.word([(0, 1), (1, -1)])
    seeds = np.random.default_rng(0).uniform(0, 1, size=(12, 2))
    _kernels.set_backend("numba")
    a = orbit_displacement_means(w, seeds, 400)
    b_seg = orbit_segment(w, (0.2, 0.7), 50)
    _kernels.set_backend("numpy")
    c = orbit_displacement_means(w, seeds, 400)
    d_seg = orbit_segment(w, (0.2, 0.7), 50)
    assert np.abs(a - c).max() < 1e-10
    assert np.abs(b_seg - d_seg).max() < 1e-10


@needs_numba
def test_backends_agree_on_plane_orbit(restore_backend):
    w = G.word([(2, 1), (0, 1)])
    seeds = np.random.default_rng(1).uniform(0, 1, size=(8, 2))
    _kernels.set_backend("numba")
    a = orbit_displacement_means(w, seeds, 200)
    _kernels.set_backend("numpy")
    b = orbit_displacement_means(w, seeds, 200)
    assert np.abs(a - b).max() < 1e-9


@needs_numba
def test_backends_agree_on_tail_spread(restore_backend):
    w = G.word([(0, 1)])
    _kernels.set_backend("numba")
    m1, s1 = orbit_mean_with_tail(w, (0.11, 0.22), 2000)
    _kernels.set_backend("numpy")
    m2, s2 = orbit_mean_with_tail(w, (0.11, 0.22), 2000)
    assert np.abs(np.array(m1) - np.array(m2)).max() < 1e-12
    assert abs(s1 - s2) < 1e-12


def test_burn_consistency():
    w = G.word([(0, 1), (1, 1)])
    full = orbit_segment(w, (0.4, 0.9), 30)
    tail = orbit_segment(w, (0.4, 0.9), 20, burn=10)
    assert np.array_equal(full[10:], tail)


def test_set_backend_rejects_unknown():
    with pytest.raises(Exception):
        _kernels.set_backend("gpu")


def _subprocess_env(*paths):
    # the child imports rotor from this checkout, plus any extra paths first
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [*paths, os.path.abspath(src), env.get("PYTHONPATH")] if p)
    return env


def test_env_flag_disables_numba():
    code = (
        "import rotor._kernels as k\n"
        "assert k.get_backend() == 'numpy'\n"
        "assert not k._HAVE_NUMBA\n"
        "import math, numpy as np\n"
        "from rotor.maps import Generator, MapGroup, constant_term, "
        "orbit_displacement_means\n"
        "from rotor.mcg import MCGClass\n"
        "g = Generator('t', MCGClass.identity(), "
        "disp_x=[constant_term(0.25)])\n"
        "G = MapGroup([g])\n"
        "m = orbit_displacement_means(G.by_name('t'), "
        "np.array([[0.0, 0.0]]), 8)\n"
        "assert abs(m[0, 0] - 0.25) < 1e-15, m\n"
        "print('ok')\n"
    )
    env = dict(_subprocess_env(), ROTOR_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# A stand-in numba whose njit returns the function unchanged: the numba
# kernels then run as plain Python, so they are covered without numba.
_STUB_NUMBA = """\
def njit(*args, **kwargs):
    if args and callable(args[0]):
        return args[0]
    return lambda f: f
"""

_STUB_COMPARE = """\
import math
import numpy as np
from rotor import _kernels
from rotor.maps import (Generator, MapGroup, constant_term,
                        orbit_displacement_means, orbit_mean_with_tail,
                        orbit_segment, trig_term)
from rotor.mcg import MCGClass

assert _kernels._HAVE_NUMBA and _kernels.get_backend() == "numba"
ID = MCGClass.identity()
G = MapGroup([
    Generator("skew", ID, disp_x=[constant_term(math.sqrt(2) - 1)],
              disp_y=[constant_term(0.3), trig_term(0.05, 1, 0)]),
    Generator("mix", ID, disp_x=[trig_term(0.04, 1, 1)],
              disp_y=[trig_term(0.03, 0, 1, phase=1.0)]),
    Generator("dehn", MCGClass(1, 0, 1, 1)),
])
seeds = np.random.default_rng(2).uniform(0, 1, size=(5, 2))
n = 150
runs = {}
for backend in ("numba", "numpy"):
    _kernels.set_backend(backend)
    out = []
    for word in ("skew mix", "skew mix'", "dehn skew"):
        w = G.word(word)
        for threads in (1, 2):
            out.append(orbit_displacement_means(w, seeds, n, threads))
        for s in seeds[:2]:
            mean, spread = orbit_mean_with_tail(w, s, n)
            out.append(np.array(mean + (spread,)))
        out.append(orbit_segment(w, seeds[0], n, burn=7))
    runs[backend] = out
gaps = [float(np.abs(a - b).max()) for a, b in zip(*runs.values())]
print(len(gaps), max(gaps))
"""


def test_stub_numba_kernels_match_numpy(tmp_path):
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text(_STUB_NUMBA)
    out = subprocess.run([sys.executable, "-c", _STUB_COMPARE],
                         env=_subprocess_env(str(tmp_path)),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    count, gap = out.stdout.split()
    assert int(count) == 3 * (2 + 2 + 1)
    assert float(gap) < 1e-12
