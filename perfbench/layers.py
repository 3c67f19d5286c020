"""Per-layer metrics of the traced run and what each one should move.

Each row names a metric, the end-to-end metric and workload it should move
when the layer gets cheaper, and the workload where it should not move.
Counts (unit ``count``, ``ratio``, ``grads/node``) must repeat exactly across
traced runs of the same code; ``graphs.spmm_nnz_cols`` is computed from
argument shapes (nnz(P) times columns times products per call), not measured.
"""

from __future__ import annotations

P, A, S = "paper-small", "analyze-small", "scale-6k"

_ROWS: list[tuple[str, str, str | None]] = []


def _rows(prefix: str, stats: str, moves: str, steady: str | None) -> None:
    for stat in stats.split(","):
        _ROWS.append((f"{prefix}.{stat}", moves, steady))


_rows("models.layout_for", "calls,s", f"wall_s@{P}", S)
_rows("models.forward", "calls,s,self_s,repeat_frac", f"wall_s@{P}", S)
_rows("gradients.grad_sample", "calls,s,self_s", f"wall_s@{A}", P)
_rows("bounds", "scan_grads_per_node", f"wall_s@{A}", P)
_rows("bounds.initial_bounds", "s", f"wall_s@{A}", P)
_rows("bounds.gradient_norm_diagnostics", "s", f"wall_s@{A}", P)
_rows("models.PropOps.propagate", "calls,s", f"wall_s@{S}", P)
_rows("activations.act_eval", "calls,s,elements", f"wall_s@{S}", P)
_rows("activations.act_deriv", "calls,s,elements", f"wall_s@{S}", P)
_rows("graphs", "spmm_nnz_cols", f"wall_s@{S}", P)
_rows("graphs.appnp_filter", "calls,s", f"wall_s,peak_rss_mb@{A}", S)
_rows("graphs.PropagationMatrix.to_scipy", "calls", f"wall_s,peak_rss_mb@{A}", S)
_rows("models.PropOps.appnp_row", "calls,s", f"wall_s,peak_rss_mb@{A}", S)
_rows("models.PropOps.power_row", "calls,s", f"wall_s,peak_rss_mb@{A}", S)
_rows("graphs.appnp_apply", "calls,s", f"wall_s@{S}", P)
_rows("graphs.gpr_powers", "calls,s", f"wall_s@{S}", P)
_rows("constants.constants_report", "s", f"wall_s@{A}", P)
_rows("constants.spectral_norm", "calls,s,iterations", f"wall_s@{A}", P)
_rows("constants.measure_norms", "s", f"wall_s@{A}", P)
_rows("constants.gpr_filter_inf_norm", "s", f"wall_s@{A}", P)
_rows("training.run_sgd", "s,self_s,steps", f"wall_s@{P},{S}", None)
_rows("training.evaluate", "calls,s", f"wall_s@{P},{S}", None)
_rows("training.gradient_gap", "calls,s", f"wall_s@{P},{S}", None)
_rows("gradients.grad_mean", "calls,s,self_s", f"wall_s@{P},{S}", None)
_rows("graphs.sbm_generate", "s", f"setup_s,setup_rss_mb@{S}", P)
_rows("cli", "import_s", f"wall_s@{A}", P)
_rows("datasets.load_bundle", "s", f"wall_s@{A}", P)
_rows("experiments.run_single", "calls,s", f"wall_s@{P}", A)
_rows("experiments.canonical_json", "s", f"wall_s@{A}", S)
_ROWS.append(("trace_overhead_s", "", None))

_COUNTERS = {
    "models.forward.repeat_frac": ("forward_repeats", "models.forward"),
    "bounds.scan_grads_per_node": ("scan_grads", "scan_nodes"),
    "activations.act_eval.elements": ("act_eval_elements", None),
    "activations.act_deriv.elements": ("act_deriv_elements", None),
    "graphs.spmm_nnz_cols": ("spmm_nnz_cols", None),
    "constants.spectral_norm.iterations": ("spectral_norm_iterations", None),
    "training.run_sgd.steps": ("run_sgd_steps", None),
}


def unit(name: str) -> str:
    if name.endswith("repeat_frac"):
        return "ratio"
    if name.endswith("scan_grads_per_node"):
        return "grads/node"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def better(name: str) -> str:
    # Training steps that ran, read from run_sgd's returned trace: the work
    # the command asks for (it echoes --T), not a cost; it falls only if a
    # run stops early.
    return "higher" if name == "training.run_sgd.steps" else "lower"


PER_LAYER = [{"name": name, "unit": unit(name), "better": better(name),
              "moves": moves, "steady_on": steady}
             for name, moves, steady in _ROWS]

EXACT = [row["name"] for row in PER_LAYER if row["unit"] != "s"]


def values(functions: dict, counters: dict, import_s: float,
           overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from summed tracer stats of one traced pass."""
    out: dict[str, float] = {}
    for row in PER_LAYER:
        name = row["name"]
        if name == "trace_overhead_s":
            out[name] = overhead_s
        elif name == "cli.import_s":
            out[name] = import_s
        elif name in _COUNTERS:
            num, den = _COUNTERS[name]
            value = counters[num]
            if den is not None:
                total = functions[den]["calls"] if den in functions else counters[den]
                value = value / total if total else 0.0
            out[name] = value
        else:
            fn, stat = name.rsplit(".", 1)
            out[name] = functions[fn][stat]
    return out
