"""The names and argument positions the benchmark's tracer relies on.

``perfbench/tracer.py`` rebinds the functions it lists by module and
qualified name and reads some of their arguments by position; a renamed
function or a moved argument makes ``perfbench/run.py --trace 1`` fail with
a KeyError or AttributeError.  These checks catch that in the package's own
test run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from transgap import ActivationSpec, ModelSpec, PropOps
from transgap.graphs import normalized_adjacency, sbm_generate

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod, qual):
    owner = importlib.import_module(f"transgap.{mod}")
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_resolves(tracer):
    for mod, qual in tracer.FUNCTIONS:
        target = _resolve(mod, qual)
        assert callable(target), f"transgap.{mod}.{qual} is not callable"
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(importlib.import_module(f"transgap.{mod}"),
                            cls_name)
            assert attr in owner.__dict__, f"{qual} is not defined on the class"


@pytest.mark.parametrize("mod,qual,params", [
    ("models", "PropOps.propagate", ("self", "m")),
    ("models", "PropOps.power_row", ("self", "i", "big_k")),
    ("models", "PropOps.appnp_row", ("self", "i")),
    ("graphs", "appnp_apply", ("p", "gamma", "big_k", "x")),
    ("graphs", "gpr_powers", ("p", "x", "big_k")),
    ("activations", "act_eval", ("a", "x")),
    ("activations", "act_deriv", ("a", "x")),
    ("models", "forward", ("spec", "ops", "x", "w")),
    ("bounds", "initial_bounds", ("spec", "ops")),
])
def test_argument_positions_read_by_the_tracer(tracer, mod, qual, params):
    assert (mod, qual) in tracer.FUNCTIONS
    names = tuple(inspect.signature(_resolve(mod, qual)).parameters)
    assert names[:len(params)] == params


def test_spectral_norm_reports_integer_iterations():
    """The tracer sums ``spectral_norm(...).iterations`` as a count."""
    from transgap.constants import spectral_norm

    for mat in (np.diag([3.0, 1.0]), np.ones(4)):
        iterations = spectral_norm(mat).iterations
        assert isinstance(iterations, int) and not isinstance(iterations, bool)


def test_propops_keeps_filter_attribute():
    graph, _ = sbm_generate([5, 5], 0.5, 0.1, seed=0)
    p = normalized_adjacency(graph)
    for arch in ("appnp", "gprgnn", "gcn"):
        spec = ModelSpec(arch=arch, d=3, h=4, num_classes=2,
                         activation=ActivationSpec(q=2.0))
        ops = PropOps(p, spec)
        assert hasattr(ops, "filter")
        assert (ops.filter is not None) == (arch == "appnp")
        assert hasattr(ops, "p") and hasattr(ops, "spec")


def test_tracer_counts_a_filter_step(tracer):
    """One gprgnn forward and per-sample gradient under the installed tracer:
    the bindings restore cleanly and the row read counts its products."""
    from transgap import forward, grad_sample, init_params

    graph, labels = sbm_generate([6, 6], 0.5, 0.1, seed=1)
    spec = ModelSpec(arch="gprgnn", d=3, h=4, num_classes=2,
                     activation=ActivationSpec(q=2.0), big_k=3)
    x = np.random.default_rng(0).normal(size=(graph.n, spec.d))
    t = tracer.Tracer()
    t.install()
    try:
        ops = PropOps(normalized_adjacency(graph), spec)
        w = init_params(spec, 0)
        cache = forward(spec, ops, x, w, np.array([2]))
        grad_sample(spec, ops, x, w, 2, int(labels[2]), cache=cache)
    finally:
        t.restore()
    assert t.leftovers() == []
    calls = {name: row["calls"] for name, row in t.stats().items()}
    assert calls["models.PropOps.power_row"] == 1
    assert calls["graphs.gpr_powers"] == 0  # a step forms no logits
    assert t.counters["spmm_nnz_cols"] == int(ops.p.values.size) * spec.big_k
