"""The one-thread BLAS pin: engaged at import, exact, and harmless.

``import repro.control`` sets every OpenBLAS mapped into the process to
one thread (:func:`repro.utils.linalg.pin_blas_threads`), so the design
chain's small ``expm`` and DARE solves stop waking a helper thread that
then spins on another core.  These tests check that the pin engaged,
that it changes no result bit on the running platform, and that it
degrades to a no-op where it cannot read the process's mappings.
"""

import ctypes
import itertools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.control.controller import design_mode_controller
from repro.control.discretization import zoh_integrals
from repro.control.plants import CASE_STUDY_PLANTS, PLANT_REGISTRY, make_plant
from repro.experiments import traces_bitwise_equal
from repro.pipeline import DesignStudy, DwellCurveCache, get_scenario
from repro.pipeline.cache import TT_DELAY
from repro.sim.stepper import GLOBAL_ZOH_CACHE
from repro.utils import linalg
from repro.utils.linalg import pin_blas_threads

MAPS = "/proc/self/maps"


def _mapped_openblas():
    """``(basename, get_num_threads, set_num_threads)`` of every OpenBLAS
    mapped into this process, each under the names its build exports."""
    if not os.path.exists(MAPS):
        return []
    with open(MAPS) as maps:
        fields = [line.split(None, 5) for line in maps]
    paths = sorted(
        {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    )
    found = []
    for path in paths:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for prefix, suffix in itertools.product(
            ("openblas_", "scipy_openblas_"), ("", "64_", "_64")
        ):
            getter = getattr(library, f"{prefix}get_num_threads{suffix}", None)
            setter = getattr(library, f"{prefix}set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((os.path.basename(path), getter, setter))
                break
    return found


LIBRARIES = _mapped_openblas()
needs_openblas = pytest.mark.skipif(
    not LIBRARIES, reason="no OpenBLAS is mapped into this process"
)


@needs_openblas
def test_every_mapped_openblas_runs_one_thread():
    assert {name: getter() for name, getter, _ in LIBRARIES} == {
        name: 1 for name, _, _ in LIBRARIES
    }


def _results():
    """What the design chain computes with BLAS/LAPACK, as bytes: the
    delayed-ZOH integrals of every zoo plant, the fig5 roster's LQR
    designs, and a short fig5 study with its co-simulated trace, all
    from cold caches."""
    GLOBAL_ZOH_CACHE.clear()
    blobs = []
    for name in sorted(PLANT_REGISTRY):
        plant = make_plant(name)
        h = plant.period
        for tau in (0.0, h / 2, h):
            blobs += [m.tobytes() for m in zoh_integrals(plant.model.a, plant.model.b, tau)]
    for name in CASE_STUDY_PLANTS:
        plant = make_plant(name)
        for delay in (TT_DELAY, plant.period):
            mode = design_mode_controller(
                plant.model, period=plant.period, delay=delay, q=plant.q, r=plant.r
            )
            blobs += [mode.gain.tobytes(), mode.closed_loop.tobytes()]
    scenario = get_scenario("fig5-cosim-analytic").derive(wait_step=16, horizon=1.0)
    study = DesignStudy(scenario, cache=DwellCurveCache()).run()
    assert study.ok
    data = study.to_dict()
    data.pop("provenance")
    for record in data["stages"]:
        record.pop("elapsed")
    GLOBAL_ZOH_CACHE.clear()
    return blobs, json.dumps(data, sort_keys=True), study.attachments.trace


@needs_openblas
def test_the_pin_changes_no_bit():
    """Every library back on two threads, then pinned again: the same
    bytes either way, on this platform."""
    try:
        for _, _, setter in LIBRARIES:
            setter(2)
        assert all(getter() == 2 for _, getter, _ in LIBRARIES)
        threaded = _results()
        assert sorted(pin_blas_threads()) == sorted(name for name, _, _ in LIBRARIES)
        pinned = _results()
    finally:
        pin_blas_threads()
    assert pinned[0] == threaded[0]
    assert pinned[1] == threaded[1]
    assert traces_bitwise_equal(pinned[2], threaded[2])
    assert all(getter() == 1 for _, getter, _ in LIBRARIES)


def test_unreadable_maps_pin_nothing(monkeypatch):
    def unreadable(*args, **kwargs):
        raise PermissionError(MAPS)

    monkeypatch.setattr(linalg, "open", unreadable, raising=False)
    assert pin_blas_threads() == []


def test_a_second_pin_is_harmless():
    first = pin_blas_threads()
    assert pin_blas_threads() == first
    assert sorted(first) == sorted(name for name, _, _ in LIBRARIES)
    assert all(getter() == 1 for _, getter, _ in LIBRARIES)


def test_import_leaves_scipy_signal_out_and_the_pin_holds():
    """``import repro`` does not load ``scipy.signal`` (only the servo
    rig's ET pole placement needs it), and building the rig, which does
    load it, leaves every mapped OpenBLAS on one thread."""
    code = (
        "import json, sys\n"
        "import repro, repro.pipeline, repro.fabric, repro.cli\n"
        "assert 'scipy.signal' not in sys.modules, 'import loaded scipy.signal'\n"
        "repro.default_servo_testbed()\n"
        "assert 'scipy.signal' in sys.modules\n"
        "from test_blas_pin import _mapped_openblas\n"
        "print(json.dumps({name: getter() for name, getter, _ in _mapped_openblas()}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    threads = json.loads(run.stdout)
    assert threads == {name: 1 for name in threads}
