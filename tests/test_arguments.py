"""One rule for integer arguments, and the refusals of real-valued ones.

Every public function that takes a dimension or a count reads it through
errors.need_int: a whole number at or above its least value comes back as
an int, whether given as an int, a numpy integer or an integral float, and
NaN, +-inf and fractions raise ArgumentError.
"""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import mpmath
import numpy as np
import pytest

import curvlab
from curvlab.certificate import ball_volume, certificate_prefactor, lhs_bound
from curvlab.curvature_core import SymmetricOperator, tri
from curvlab.errors import ArgumentError, need_int
from curvlab.model_spaces import r_lambda, random_weyl, w_cp2
from curvlab.potential_flow import flow_state
from curvlab.shi_bounds import derivative_bound
from curvlab.suite import run_suite
from curvlab.symmetry_op import d2_family_norm, sphere_volume

#: the parameter names that hold a dimension or a count
INTEGER_PARAMS = {
    "n", "k", "l", "m", "n_half", "order", "steps", "sample_every", "count",
}

#: valid arguments, by keyword, of every public function with an integer
#: parameter; the integer slots hold ints
VALID = {
    "certificate.kappa0": lambda: dict(n=6),
    "certificate.beta_angle": lambda: dict(n=6),
    "certificate.ball_volume": lambda: dict(n=6),
    "certificate.certificate_prefactor": lambda: dict(n=6),
    "certificate.rhs_bound": lambda: dict(n=11, eps=1e-15),
    "certificate.lhs_bound": lambda: dict(n=11, G=0.3, C=1e6),
    "certificate.alpha0_margin": lambda: dict(n=11, lhs=1e-15),
    "certificate.alpha0_certificate": lambda: dict(n=11),
    "lie_basis.wedge_count": lambda: dict(n=6),
    "lie_basis.wedge_pairs": lambda: dict(n=6),
    "lie_basis.wedge_rank": lambda: dict(i=2, j=4, n=6),
    "lie_basis.wedge_index": lambda: dict(rank=3, n=6),
    "lie_basis.so_matrix": lambda: dict(coords=np.arange(15.0), n=6),
    "lie_basis.structure_constants": lambda: dict(n=6),
    "lie_basis.sp1_basis": lambda: dict(n=6),
    "lie_basis.dim_from_wedge_count": lambda: dict(count=15),
    "model_spaces.sphere": lambda: dict(n=6),
    "model_spaces.sphere_product": lambda: dict(k=3, l=4),
    "model_spaces.cpn": lambda: dict(n_half=3),
    "model_spaces.w_cp2": lambda: dict(n=6),
    "model_spaces.r_lambda": lambda: dict(lam=1.0, n=6, phi=0.3),
    "model_spaces.theta": lambda: dict(k=3, l=4),
    "model_spaces.theta_threshold": lambda: dict(n=6),
    "model_spaces.intermediate_range": lambda: dict(n=6),
    "model_spaces.random_curvature": lambda: dict(rng=np.random.default_rng(0), n=5),
    "model_spaces.random_weyl": lambda: dict(rng=np.random.default_rng(0), n=5),
    "potential_flow.flow_run": lambda: dict(
        state=flow_state(random_weyl(np.random.default_rng(1), 5)),
        steps=3, sample_every=1,
    ),
    "shi_bounds.alpha_coeff": lambda: dict(n=6),
    "shi_bounds.beta_coeff": lambda: dict(n=6),
    "shi_bounds.shi_constants": lambda: dict(n=6),
    "shi_bounds.statement_vs_proof": lambda: dict(n=6),
    "shi_bounds.derivative_bound": lambda: dict(n=11, K=1.0, lam=0.5, order=2),
    "spectral_decomp.weyl_dim": lambda: dict(n=6),
    "spectral_decomp.x_dim": lambda: dict(k=4),
    "spectral_decomp.weyl_basis": lambda: dict(n=6),
    "spectral_decomp.triple_wedge_matrix": lambda: dict(k=4),
    "spectral_decomp.decomposition_dims": lambda: dict(n=10, k=4),
    "symmetry_op.d2_family_norm": lambda: dict(lam=1.0, n=6, phi=0.1, pair=(1, 3)),
    "symmetry_op.g_lower_bound": lambda: dict(lam=1.2, psi=math.pi / 4, phi=0.1, n=11),
    "symmetry_op.sin_power_integral": lambda: dict(m=6, psi=0.5),
    "symmetry_op.sphere_volume": lambda: dict(m=6),
}


def _integer_slots():
    """(qualified name, function, parameter) for every integer parameter of a
    function in a submodule's __all__."""
    out = []
    for module_name in curvlab.__all__:
        module = getattr(curvlab, module_name)
        if not inspect.ismodule(module):
            continue
        for name in getattr(module, "__all__", ()):
            func = getattr(module, name)
            if inspect.isclass(func) or not callable(func):
                continue
            for param in inspect.signature(func).parameters:
                if param in INTEGER_PARAMS:
                    out.append((f"{module_name}.{name}", func, param))
    return out


SLOTS = _integer_slots()


def _same(a, b) -> bool:
    """a and b have one type and equal values, field by field."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (np.ndarray, SymmetricOperator)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, Mapping):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


def test_every_integer_slot_has_a_row():
    found = {name for name, _, _ in SLOTS}
    assert found == set(VALID), (
        f"no row: {sorted(found - set(VALID))}; stale: {sorted(set(VALID) - found)}"
    )


@pytest.mark.parametrize(
    "name,func,param", SLOTS, ids=[f"{name}-{param}" for name, _, param in SLOTS]
)
def test_integer_argument_rule(name, func, param):
    assert name in VALID, f"{name} takes an integer {param} but has no row"
    value = VALID[name]()[param]
    for bad in (math.nan, math.inf, -math.inf, value + 0.5):
        with pytest.raises(ArgumentError):
            func(**{**VALID[name](), param: bad})
    want = func(**VALID[name]())
    for same in (float(value), np.int64(value)):
        assert _same(func(**{**VALID[name](), param: same}), want), same


@pytest.mark.parametrize("value,least,whole", [
    (6, 4, 6), (np.int64(6), 4, 6), (6.0, 4, 6), (np.float32(6.0), 4, 6), (4, 4, 4),
])
def test_need_int_returns_an_int(value, least, whole):
    got = need_int(value, least)
    assert type(got) is int and got == whole


@pytest.mark.parametrize("value", [3, 6.5, math.nan, math.inf, -math.inf, "6", None])
def test_need_int_refuses(value):
    with pytest.raises(ArgumentError, match=f"^need count >= 4, got {value}$"):
        need_int(value, 4, "count")


def test_float_dimension_does_not_poison_the_caches():
    # 6.0 == np.int64(6) as an lru_cache key, so a float index table cached
    # by weyl_basis(6.0) would break a later weyl_basis(np.int64(6)); the
    # caches are process-wide, hence the fresh interpreter
    script = (
        "import numpy as np\n"
        "from curvlab.model_spaces import w_cp2\n"
        "from curvlab.spectral_decomp import weyl_basis, weyl_dim\n"
        "w_cp2(np.int64(6))\n"
        "try:\n"
        "    weyl_basis(6.0)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
        "basis = weyl_basis(np.int64(6))\n"
        "assert sum(len(s[0]) * len(s) for s in basis.stacks) == weyl_dim(6)\n"
    )
    src = str(Path(curvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("call", [
    lambda: d2_family_norm(math.inf, 6, 0.1, (1, 3)),
    lambda: d2_family_norm(1.0, 6, 0.1, (1.5, 3)),
    lambda: derivative_bound(11, math.inf, 1.0, 3),
    lambda: r_lambda(math.inf, 6),
    lambda: lhs_bound(11, math.nan, 1.0),
    lambda: lhs_bound(11, math.inf, 1.0),
    lambda: lhs_bound(11, 1.0, 0.0),
    lambda: lhs_bound(11, 1.0, -1.0),
    lambda: lhs_bound(11, 1.0, math.inf),
    lambda: lhs_bound(11, 1.0, math.nan),
    lambda: tri(w_cp2(5), w_cp2(5), w_cp2(6)),
], ids=[
    "d2-lambda", "d2-pair", "shi-K", "r-lambda", "lhs-G-nan",
    "lhs-G-inf", "lhs-C-zero", "lhs-C-negative", "lhs-C-inf", "lhs-C-nan",
    "tri-dims",
])
def test_real_and_operand_arguments_are_refused(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("value", [6.5, 1])
def test_certificate_prefactor_names_n(value):
    with pytest.raises(ArgumentError, match=f"^need n >= 2, got {value}$"):
        certificate_prefactor(value)


@pytest.mark.parametrize("seed", [1.5, math.nan, "3"])
def test_run_suite_refuses_a_seed_that_is_not_whole(seed):
    with pytest.raises(ArgumentError, match="^need seed"):
        run_suite(dims=[4], seed=seed)


def test_run_suite_accepts_a_negative_seed():
    report = run_suite(dims=[4], seed=-1)
    assert report.seed == -1
    assert run_suite(dims=[4], seed=-1.0).records == report.records


@pytest.mark.parametrize("func,limit", [(ball_volume, 342), (sphere_volume, 343)])
def test_volumes_beyond_the_float_range(func, limit):
    # Gamma overflows float64 from these dimensions on, although the volume
    # itself is a small positive float
    assert 0 < func(limit - 1) < 1e-220
    with pytest.raises(ArgumentError, match="float range"):
        func(limit)
    assert 0 < func(limit, lib=mpmath) < 1e-220
