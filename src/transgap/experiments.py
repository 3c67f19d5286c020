"""Multi-seed experiment runner and gap reports.

Each (model, seed) run draws a fresh split and a fresh initialization,
trains, and records the final loss/accuracy gaps.  Runs are independent, so
they may execute in a process pool (capped by TRANSGAP_THREADS); report
assembly is a fixed-order reduction, making the emitted bytes independent
of scheduling.  Reported spreads are population standard deviations.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .activations import ActivationSpec
from .datasets import DatasetBundle, make_split
from .graphs import SparseGraph, normalized_adjacency
from .models import ModelSpec, PropOps
from .training import LrSchedule, SgdConfig, TrainTrace, run_sgd, schedule_offset

MODEL_CHOICES = ("gcn", "gcnii", "sgc", "appnp", "gprgnn", "gcn6", "gcnii6")

# The model flags: argparse destinations and ExperimentConfig fields alike.
MODEL_FLAGS = ("hidden", "q", "alpha", "beta", "gamma", "big_k")

REPORT_SCHEMA = "transgap/1"


class UsageError(ValueError):
    """A flag value from which no run can be built (CLI exit code 1)."""


@contextmanager
def flag_errors():
    """Turn a ValueError raised while building from flags into a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def model_spec_for(name: str, d: int, num_classes: int, hidden: int = 64,
                   q: float = 2.0, alpha: float = 0.1, beta: float = 0.5,
                   gamma: float = 0.1, big_k: int = 10) -> ModelSpec:
    """Build a ModelSpec from a CLI-level model name.

    gcn6 / gcnii6 are the six-propagation-layer depth variants; gcnii uses
    identity-map weights beta / layer_index.
    """
    if name not in MODEL_CHOICES:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_CHOICES}")
    act = ActivationSpec(q=q)
    base = dict(d=d, h=hidden, num_classes=num_classes, activation=act)
    if name in ("gcn", "gcn6"):
        return ModelSpec(arch="gcn", depth=6 if name == "gcn6" else 2, **base)
    if name in ("gcnii", "gcnii6"):
        return ModelSpec(arch="gcnii", depth=6 if name == "gcnii6" else 2,
                         alpha1=alpha, alpha2=alpha,
                         beta1=beta, beta2=beta / 2.0, **base)
    if name == "appnp":
        return ModelSpec(arch="appnp", gamma=gamma, big_k=big_k, **base)
    if name == "gprgnn":
        return ModelSpec(arch="gprgnn", big_k=big_k, **base)
    return ModelSpec(arch="sgc", **base)


def default_schedule(optimizer: str, kind: str | None = None,
                     c: float | None = None, t0: float | None = None):
    """Step sizes 0.01 for adam and 3 / (t + 100) for sgd; a given kind, c
    or t0 overrides its own part."""
    base = (LrSchedule("constant", 0.01) if optimizer == "adam"
            else LrSchedule("inverse_time", 3.0, 100.0))
    with flag_errors():
        return LrSchedule(kind or base.kind, base.c if c is None else c,
                          base.t0 if t0 is None else t0)


def build_model(name: str, graph: SparseGraph, d: int, num_classes: int,
                flags) -> tuple[ModelSpec, PropOps]:
    """Spec and propagation helpers of one model from the MODEL_FLAGS."""
    with flag_errors():
        spec = model_spec_for(name, d=d, num_classes=num_classes,
                              **{k: getattr(flags, k) for k in MODEL_FLAGS})
    return spec, PropOps(normalized_adjacency(graph), spec)


def check_model_flags(models, bundle: DatasetBundle, flags) -> None:
    """Build every listed model's spec from the MODEL_FLAGS, so that a value
    one of them rejects is a usage error before the first run."""
    with flag_errors():
        for name in models:
            model_spec_for(name, bundle.d, bundle.num_classes,
                           **{k: getattr(flags, k) for k in MODEL_FLAGS})


def build_run(bundle: DatasetBundle, model: str, flags, seed: int,
              schedule: LrSchedule, batch_size: int | None, eval_every: int,
              weight_decay: float = 0.0):
    """(spec, propagation helpers, split, SgdConfig) of one run.

    ``flags`` (parsed flags or an ExperimentConfig) holds the MODEL_FLAGS,
    ``train_frac``, ``big_t`` and ``optimizer``; ``batch_size`` None means
    min(512, m).
    """
    spec, ops = build_model(model, bundle.graph, bundle.d, bundle.num_classes,
                            flags)
    with flag_errors():
        split = make_split(bundle.n, flags.train_frac, seed)
        sgd = SgdConfig(
            big_t=flags.big_t, seed=seed, schedule=schedule,
            batch_size=min(512, split.m) if batch_size is None else batch_size,
            optimizer="adam" if flags.optimizer == "adam" else "vanilla_sgd",
            eval_every=eval_every, weight_decay=weight_decay)
    return spec, ops, split, sgd


def theory_offset(p_f: float, alpha: float, warn,
                  mu: float | None = None) -> float:
    """The smallest admissible schedule offset (``schedule_offset``); passes
    ``warn`` a warning when it makes the steps vacuously small."""
    with flag_errors():
        t0 = schedule_offset(p_f, alpha, mu=mu)
    if t0 > 1e6:
        warn(f"theory offset t0={t0:.4g} implies vacuously small steps")
    return t0


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[str, ...]
    seeds: tuple[int, ...]
    train_frac: float = 0.30
    big_t: int = 300
    hidden: int = 64
    batch_size: int | None = None  # None: min(512, m)
    optimizer: str = "adam"
    schedule: LrSchedule | None = None
    eval_every: int = 10
    q: float = 2.0
    alpha: float = 0.1
    beta: float = 0.5
    gamma: float = 0.1
    big_k: int = 10

    def __post_init__(self):
        if not self.models:
            raise ValueError("model list must be nonempty")
        if not self.seeds:
            raise ValueError("seed list must be nonempty")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")

    def resolved_schedule(self) -> LrSchedule:
        return self.schedule or default_schedule(self.optimizer)


def experiment_config(flags) -> ExperimentConfig:
    """The ExperimentConfig that the flags of ``experiment`` describe."""
    models = tuple(m for m in flags.models.split(",") if m)
    for m in models:
        if m not in MODEL_CHOICES:
            raise UsageError(f"unknown model {m!r}")
    text = str(flags.seeds)  # a count N (seeds 0..N-1) or a list
    with flag_errors():
        seeds = tuple(int(s) for s in text.split(",") if s)
        if seeds and "," not in text:
            seeds = tuple(range(seeds[0]))
        for kind, values in (("model", models), ("seed", seeds)):
            if len(set(values)) != len(values):  # would report a run twice
                raise ValueError(f"{kind} list repeats an entry")
        return ExperimentConfig(
            models=models, seeds=seeds, train_frac=flags.train_frac,
            big_t=flags.big_t, batch_size=flags.batch_size,
            optimizer=flags.optimizer,
            schedule=default_schedule(flags.optimizer, flags.schedule,
                                      flags.lr_c, flags.t0),
            eval_every=flags.eval_every,
            **{k: getattr(flags, k) for k in MODEL_FLAGS})


@dataclass(frozen=True)
class RunResult:
    model: str
    seed: int
    loss_gap: float
    acc_gap: float
    test_acc: float
    grad_gap: float
    trace: TrainTrace


def run_single(bundle: DatasetBundle, config: ExperimentConfig, model: str,
               seed: int) -> RunResult:
    """One (model, seed) run: fresh split, fresh init, training, evaluation."""
    spec, ops, split, sgd = build_run(bundle, model, config, seed,
                                      config.resolved_schedule(),
                                      config.batch_size, config.eval_every)
    try:
        _, trace = run_sgd(spec, ops, bundle.x, bundle.labels, split, sgd)
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"run (model={model}, seed={seed}) failed: {exc}") from exc
    last = trace.checkpoints[-1]
    return RunResult(model=model, seed=seed,
                     loss_gap=abs(last.r_m - last.r_u),
                     acc_gap=abs(last.acc_m - last.acc_u),
                     test_acc=last.acc_u, grad_gap=last.grad_gap, trace=trace)


def pool_size() -> int:
    """Worker processes: TRANSGAP_THREADS when set, else the CPU count."""
    env = os.environ.get("TRANSGAP_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError("TRANSGAP_THREADS must be a positive integer")
    return workers


@dataclass
class GapReport:
    """Aggregate mean/std rows plus the per-run results, in a fixed order."""

    config: ExperimentConfig
    runs: list[RunResult] = field(default_factory=list)

    def aggregate(self) -> dict:
        by_model: dict[str, dict] = {}
        for model in self.config.models:
            rows = [r for r in self.runs if r.model == model]
            stats = {}
            for key in ("loss_gap", "acc_gap", "test_acc", "grad_gap"):
                vals = np.array([getattr(r, key) for r in rows])
                stats[key] = {"mean": float(vals.mean()),
                              "std": float(vals.std())}
            by_model[model] = stats
        return {
            "schema": REPORT_SCHEMA,
            "std": "population",
            "models": list(self.config.models),
            "seeds": list(self.config.seeds),
            "T": self.config.big_t,
            "train_frac": self.config.train_frac,
            "optimizer": self.config.optimizer,
            "results": by_model,
            "runs": [
                {"model": r.model, "seed": r.seed, "loss_gap": r.loss_gap,
                 "acc_gap": r.acc_gap, "test_acc": r.test_acc,
                 "grad_gap": r.grad_gap}
                for r in self.runs
            ],
        }


def run_experiment(bundle: DatasetBundle, config: ExperimentConfig,
                   out_dir=None) -> GapReport:
    """All (model, seed) runs, optional trace/curve emission to out_dir."""
    check_model_flags(config.models, bundle, config)
    jobs = [(model, seed) for model in config.models for seed in config.seeds]
    workers = pool_size()
    if workers > 1 and len(jobs) > 1:
        # imported here, as loading the pool's module adds about 1.2 MB to
        # the max RSS of every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run_single, repeat(bundle), repeat(config),
                                 *zip(*jobs)))
    else:
        runs = [run_single(bundle, config, m, s) for m, s in jobs]
    report = GapReport(config=config, runs=runs)

    if out_dir is not None:
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        for run in report.runs:
            name = root / f"curve_{run.model}_{run.seed}.csv"
            name.write_text(run.trace.to_csv())
        for model in config.models:
            traces = [r.trace for r in report.runs if r.model == model]
            np.savetxt(root / f"gap_curve_{model}.csv", curve_report(traces),
                       fmt=["%d", "%.17g", "%.17g"], delimiter=",",
                       header="t,mean_gap,std", comments="")
        (root / "report.json").write_text(canonical_json(report.aggregate()))
    return report


def curve_report(traces: list[TrainTrace]) -> list[tuple[int, float, float]]:
    """(t, mean |R_m - R_u|, population std) rows across seed traces."""
    if not traces:
        raise ValueError("need at least one trace")
    grid = [cp.t for cp in traces[0].checkpoints]
    for tr in traces:
        if [cp.t for cp in tr.checkpoints] != grid:
            raise ValueError("traces have different checkpoint grids")
    rows = []
    for k, t in enumerate(grid):
        gaps = np.array([abs(tr.checkpoints[k].r_m - tr.checkpoints[k].r_u)
                         for tr in traces])
        rows.append((t, float(gaps.mean()), float(gaps.std())))
    return rows


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out) + "\n"


def _write_json(obj, out: list[str]) -> None:
    import json

    if isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            out.append('"nan"')
        elif np.isinf(v):
            out.append('"inf"' if v > 0 else '"-inf"')
        else:
            out.append(format(v, ".17g"))
    else:
        out.append(json.dumps(obj))
