"""One intrinsic semantics: evaluate in float64, round once.

Every transcendental intrinsic is defined as "evaluate in float64, round
once to the result type, NaN results canonical" (:mod:`repro.intrinsics`).
These tests pin the two promises that definition makes:

* **agreement** — for every intrinsic the native gate admits, the
  simulator's bytes equal the compiled C tier's bytes on seeded samples
  and on the special values (±0, ±inf, NaN, subnormals, FLT_MAX,
  negative bases with integer and non-integer exponents), including in
  randomized transcendental graphs;
* **host independence** — the simulator's bytes do not change when
  NumPy's SIMD dispatch is switched off (``NPY_DISABLE_CPU_FEATURES``).
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Accessor, Image, IterationSpace, Kernel, PipelineGraph
from repro.dsl.math import (  # noqa: F401 (kernel intrinsics)
    acos, asin, atan, atan2, cos, cosh, exp, exp2, log, log2, log10, pow,
    sin, sinh, tan, tanh,
)
from repro.intrinsics import INTRINSICS
from repro.runtime.native import clear_compiler_cache
from repro.runtime.native_graph import EXACT_INTRINSICS

from .helpers import assert_native_matches_sim

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

requires_cc = pytest.mark.requires_cc
# the special values overflow, divide by zero and leave domains on
# purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: ``Transcendental.op`` index -> intrinsic (the order of the kernel's
#: if-chain; the gate sees every branch, so the chain holds admitted
#: intrinsics only)
OPS = ["exp", "exp2", "log", "log2", "sin", "cos", "tan", "atan", "sinh",
       "cosh", "tanh", "atan2", "pow"]
#: ``OffTier.op`` index -> intrinsic
OFF_TIER = ["log10", "asin", "acos"]
WIDE = sorted(name for name, intr in INTRINSICS.items() if intr.wide)
ADMITTED = [name for name in OPS if name in EXACT_INTRINSICS]

W, H = 256, 96

_F32 = np.finfo(np.float32)
SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45,
    _F32.tiny / 2, -_F32.tiny / 2, _F32.tiny, _F32.max, -_F32.max,
    1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5, -1.5, 0.8, 2.2,
    88.7, -103.9, 1e10, -1e10,
], dtype=np.float32)


class Transcendental(Kernel):
    """``out = f(a * scale, b)`` for the intrinsic ``OPS[op]``; unary
    intrinsics ignore *b*."""

    def __init__(self, iteration_space, a, b, op, scale=1.0):
        super().__init__(iteration_space)
        self.a = a
        self.b = b
        self.op = int(op)
        self.scale = float(scale)
        self.add_accessor(a)
        self.add_accessor(b)

    def kernel(self):
        x = self.a(0, 0) * self.scale
        y = self.b(0, 0)
        v = x
        if self.op == 0:
            v = exp(x)
        if self.op == 1:
            v = exp2(x)
        if self.op == 2:
            v = log(x)
        if self.op == 3:
            v = log2(x)
        if self.op == 4:
            v = sin(x)
        if self.op == 5:
            v = cos(x)
        if self.op == 6:
            v = tan(x)
        if self.op == 7:
            v = atan(x)
        if self.op == 8:
            v = sinh(x)
        if self.op == 9:
            v = cosh(x)
        if self.op == 10:
            v = tanh(x)
        if self.op == 11:
            v = atan2(x, y)
        if self.op == 12:
            v = pow(x, y)
        self.output(v)


class OffTier(Kernel):
    """``out = f(a)`` for the intrinsic ``OFF_TIER[op]``: transcendentals
    the native gate does not admit, still host-independent in the
    simulator."""

    def __init__(self, iteration_space, a, op):
        super().__init__(iteration_space)
        self.a = a
        self.op = int(op)
        self.add_accessor(a)

    def kernel(self):
        x = self.a(0, 0)
        v = x
        if self.op == 0:
            v = log10(x)
        if self.op == 1:
            v = asin(x)
        if self.op == 2:
            v = acos(x)
        self.output(v)


def sample_planes(seed=0):
    """Two (H, W) float32 operand planes: every pair of special values,
    negative bases against integer and non-integer exponents, then
    seeded samples (wide normals, the unit interval, exponents 0.8 and
    2.2 and uniform in [-4, 4])."""
    rng = np.random.default_rng(seed)
    sx, sy = np.meshgrid(SPECIALS, SPECIALS)
    n = W * H
    neg = -np.abs(rng.standard_normal(512) * 3).astype(np.float32)
    a_parts = [sx.ravel(), neg, neg]
    b_parts = [sy.ravel(), np.round(rng.uniform(-4, 4, 512)),
               rng.uniform(-4, 4, 512)]
    fill = n - sum(len(p) for p in a_parts)
    q = fill // 4
    a_parts += [rng.standard_normal(q) * 8, rng.random(q),
                rng.random(q) * 4, rng.standard_normal(fill - 3 * q) * 2]
    b_parts += [rng.uniform(-4, 4, q), np.full(q, 0.8), np.full(q, 2.2),
                rng.standard_normal(fill - 3 * q) * 2]
    a = np.concatenate(a_parts).astype(np.float32).reshape(H, W)
    b = np.concatenate(b_parts).astype(np.float32).reshape(H, W)
    return a, b


def _image(data, name):
    img = Image(W, H, float, name=name)
    img.set_data(data)
    return img


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    clear_compiler_cache()
    yield tmp_path
    clear_compiler_cache()


def test_admitted_set_is_the_measured_one():
    # every transcendental is wide; the gate admits all but the three
    # whose agreement was not measured
    assert WIDE == sorted(OPS + OFF_TIER)
    assert ADMITTED == OPS


@requires_cc
def test_every_admitted_intrinsic_sim_equals_native(native_env):
    a_data, b_data = sample_planes(seed=0)

    def build():
        a, b = _image(a_data, "a"), _image(b_data, "b")
        g = PipelineGraph("agreement")
        outs = []
        for name in ADMITTED:
            out = Image(W, H, float, name=f"out_{name}")
            g.add_kernel(Transcendental(IterationSpace(out), Accessor(a),
                                        Accessor(b), OPS.index(name)),
                         name=name)
            g.mark_output(out)
            outs.append(out)
        return g, outs

    report = assert_native_matches_sim(build, workers=1, fuse=False)
    assert report.engine_used == "native"
    assert {n.name for n in report.nodes if n.engine == "native"} \
        == set(ADMITTED)


@requires_cc
@settings(max_examples=12, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(ADMITTED),
                              st.floats(min_value=-4.0, max_value=4.0,
                                        allow_nan=False, width=32)),
                    min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**16),
       fuse=st.booleans())
def test_randomized_transcendental_graphs_native(ops, seed, fuse):
    a_data, b_data = sample_planes(seed=seed)

    def build():
        a, b = _image(a_data, "a"), _image(b_data, "b")
        g = PipelineGraph("rand-transcendental")
        current = a
        for i, (name, scale) in enumerate(ops):
            out = Image(W, H, float, name=f"t{i}")
            g.add_kernel(Transcendental(IterationSpace(out),
                                        Accessor(current), Accessor(b),
                                        OPS.index(name), scale))
            current = out
        g.mark_output(current)
        return g, current

    report = assert_native_matches_sim(build, workers=1, fuse=fuse)
    assert report.engine_used == "native"
    assert report.native_nodes == report.launches


def sim_digest() -> str:
    """SHA-256 of every transcendental (admitted or not) over the sample
    planes, run through the simulator."""
    from repro.graph import execute_graph

    a_data, b_data = sample_planes(seed=3)
    a, b = _image(a_data, "a"), _image(b_data, "b")
    g = PipelineGraph("host-independence")
    outs = []
    for i, name in enumerate(OPS + OFF_TIER):
        out = Image(W, H, float, name=f"out_{name}")
        space = IterationSpace(out)
        kernel = Transcendental(space, Accessor(a), Accessor(b), i) \
            if name in OPS else OffTier(space, Accessor(a),
                                        OFF_TIER.index(name))
        g.add_kernel(kernel, name=name)
        g.mark_output(out)
        outs.append(out)
    execute_graph(g, engine="sim", workers=1, fuse=False, cache=False,
                  lint=False)
    digest = hashlib.sha256()
    for out in outs:
        digest.update(np.ascontiguousarray(out.pixels).tobytes())
    return digest.hexdigest()


def _present_simd_features():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                   # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(f)]


def test_simulator_bytes_do_not_depend_on_simd_tier():
    features = _present_simd_features()
    if not features:
        pytest.skip("NumPy dispatches no SIMD feature beyond its baseline")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("from tests.test_intrinsic_agreement import sim_digest; "
            "print(sim_digest())")
    digests = []
    for disabled in ("", " ".join(features)):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(root, "src"), root]))
        result = subprocess.run([sys.executable, "-c", code], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip().splitlines()[-1])
    assert digests[0] == digests[1], \
        f"simulator bytes change with {features} disabled"
