"""The benchmark's tracer reads letter steps off the kernel signatures.

perfbench/tracer.py counts the letter steps of each orbit-kernel call from
its positional arguments: the seeds, the step counts and len() of the word
program.  A change of those signatures would silently change the
benchmark's per-layer metrics, so this test runs the three orbit kernels
under the tracer and checks the count.
"""

import importlib.util
import os
import threading

import rotor.cli  # the tracer patches every rotor module, cli included
from rotor.catalog import build_catalog

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("tracer", _TOOL)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_traced_letter_steps_count_every_kernel_call(backends):
    w = build_catalog().word("h skew h'")
    L = len(w.letters)
    maps = rotor.maps
    seeds = maps.torus_grid(3)
    m, n, burn, count = len(seeds), 40, 7, 5
    for backend in backends:
        rotor._kernels.set_backend(backend)
        with tracer.Tracer() as t:
            maps.orbit_displacement_means(w, seeds, n, threads=2)
            maps.orbit_mean_with_tail(w, (0.1, 0.2), n)
            maps.orbit_segment(w, (0.1, 0.2), count, burn=burn)
        metrics, calls = tracer.layer_metrics(t.spans, threading.get_ident())
        assert calls["kernels"] == 3
        assert metrics["kernels.letter_steps"] == (
            m * n * L + n * L + (burn + count) * L)
