"""The public API: the names ``transgap/__init__.py`` exports.

The API changes only together with a CHANGES.md entry that says so; this
literal list makes every such change show up as a test edit.
"""

import math
import types
from pathlib import Path

from conftest import run_python

import transgap

PUBLIC_NAMES = (
    "ActivationSpec", "BoundInputs", "BoundReport", "ConstantsReport",
    "DatasetBundle", "DegreeStats", "ExperimentConfig", "ForwardCache",
    "GapReport", "LrSchedule", "ModelSpec", "ParamLayout", "PropOps",
    "PropagationMatrix", "SgdConfig", "SparseGraph", "Split", "TrainTrace",
    "act_deriv", "act_eval", "appnp_apply", "appnp_filter", "build_graph",
    "complexity_upper", "compute_cw", "compute_cx", "concentration_terms",
    "constants_report", "curve_report", "degree_bound", "drop_edge",
    "evaluate", "excess_risk_rate", "fd_gradient", "forward",
    "gap_certificate", "gpr_powers", "grad_mean", "grad_sample",
    "gradient_gap", "gradient_norm_diagnostics", "gradient_smoothness",
    "inf_norm_power", "init_params", "initial_bounds", "layout_for",
    "load_bundle", "load_params", "loss_lipschitz", "loss_sample",
    "make_split", "max_relative_error", "measure_norms", "model_spec_for",
    "normalized_adjacency", "rate_factor", "row_normalize", "run_experiment",
    "run_sgd", "run_single", "save_bundle", "save_params", "sbm_bundle",
    "sbm_generate", "schedule_offset", "softmax_xent", "spectral_norm",
)


def test_exported_names_match_the_list():
    exported = sorted(name for name, value in vars(transgap).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)


def test_version_is_exported():
    assert isinstance(transgap.__version__, str)


def test_readme_library_sketch_runs(tmp_path):
    """README's "Library sketch" runs as written and prints L_F, P_F and
    the certificate's total: three finite numbers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch\n", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    res = run_python(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    values = [float(v) for v in res.stdout.split()]
    assert len(values) == 3 and all(math.isfinite(v) for v in values)
