"""The runs the benchmark's commands resolve to.

``perfbench/workloads.py`` lists the CLI commands each benchmark workload
times.  This module loads it read-only, runs every ``full`` command through
``transgap.cli.main`` and records what ``build_run`` makes of its flags: the
model spec and the SGD settings of every run.  They are pinned below as
literals, so a change to how flags become a run cannot silently change what
the benchmark measures.  Each recorded run trains for one step only; the
pins do not depend on training.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import transgap.cli as cli
import transgap.experiments as experiments
from transgap import ActivationSpec, LrSchedule, ModelSpec, SgdConfig

WORKLOADS_PATH = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "workloads.py")

Q2 = ActivationSpec(q=2.0)


def _spec(arch, **kw):
    return ModelSpec(arch=arch, d=8, h=64, num_classes=2, activation=Q2,
                     alpha1=0.1, alpha2=0.1, beta1=0.5, beta2=0.25,
                     gamma=0.1, big_k=10, **kw)


SPECS = {
    "gcn": _spec("gcn", depth=2),
    "gcn6": _spec("gcn", depth=6),
    "sgc": _spec("sgc", depth=2),
    "gcnii": _spec("gcnii", depth=2),
    "gcnii6": _spec("gcnii", depth=6),
    "appnp": _spec("appnp", depth=2),
    "gprgnn": _spec("gprgnn", depth=2),
}

# workload: (models, seeds, big_t, eval_every, schedule), all sgd, batch 1
EXPECTED = {
    "paper-small": (("gcn", "sgc", "gcn6", "gcnii", "gcnii6"), range(10),
                    300, 30, LrSchedule(kind="inverse_time", c=3.0, t0=100.0)),
    "analyze-small": (("gcn", "gcnii", "sgc", "appnp", "gprgnn"), (0,),
                      300, 300, LrSchedule(kind="inverse_time", c=1.0, t0=10.0)),
    "scale-6k": (("gcn", "sgc", "gcnii", "gprgnn", "appnp"), (0,),
                 200, 10, LrSchedule(kind="inverse_time", c=1.0, t0=10.0)),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS["full"]


@pytest.fixture
def recorded(monkeypatch):
    """(model, seed, spec, SgdConfig) of every run ``build_run`` builds."""
    runs = []
    build_run = experiments.build_run

    def record(bundle, model, flags, seed, *args, **kwargs):
        spec, ops, split, sgd = build_run(bundle, model, flags, seed, *args,
                                          **kwargs)
        runs.append((model, seed, spec, sgd))
        return spec, ops, split, replace(sgd, big_t=1)

    monkeypatch.setattr(experiments, "build_run", record)
    monkeypatch.setattr(cli, "build_run", record)
    monkeypatch.setenv("TRANSGAP_THREADS", "1")
    return runs


def test_the_workloads_are_pinned(workloads):
    assert set(workloads) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_commands_resolve_to_the_pinned_runs(name, workloads,
                                                      recorded, tmp_path,
                                                      monkeypatch, capsys):
    workload = workloads[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert cli.main(workload.gen_argv(0)) == 0
    for command in workload.commands:
        argv = command.argv("bundle")
        cli.build_parser().parse_args(argv)
        assert cli.main(argv) == 0, capsys.readouterr().err

    models, seeds, big_t, eval_every, schedule = EXPECTED[name]
    expected = [(model, seed) for model in models for seed in seeds]
    assert [(model, seed) for model, seed, _, _ in recorded] == expected
    for model, seed, spec, sgd in recorded:
        assert spec == SPECS[model]
        assert sgd == SgdConfig(big_t=big_t, seed=seed, batch_size=1,
                                schedule=schedule, optimizer="vanilla_sgd",
                                eval_every=eval_every, weight_decay=0.0)
