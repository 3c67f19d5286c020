"""The benchmark's workloads: which ``transgap`` CLI commands one pass runs.

Every workload starts from a bundle made by ``transgap gen`` (its set-up) and
then runs its timed commands against that bundle.  Each command writes its
outputs under ``out/<name>`` of the pass directory, which is what the output
checks compare.

The generator seed is ``--seed`` modulo ``REF_SEEDS``: every seed the
benchmark can be given maps to a bundle whose outputs have a committed
reference under ``perfbench/refs``, so every run is checked for correctness.

``full`` is the size the benchmark measures; ``tiny`` runs the same commands
on a few dozen nodes and a few steps, for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

REF_SEEDS = 8

BASE_MODELS = ("gcn", "sgc", "gcnii", "gprgnn", "appnp")


@dataclass(frozen=True)
class Command:
    """One timed CLI command; ``{data}`` in ``args`` is the bundle path."""

    out: str
    args: tuple[str, ...]

    def argv(self, data: str) -> list[str]:
        return [a.replace("{data}", data) for a in self.args] + [
            "--out", f"out/{self.out}"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple[str, ...]
    commands: tuple[Command, ...]

    def gen_argv(self, seed: int) -> list[str]:
        return ["gen", *self.gen, "--seed", str(seed % REF_SEEDS),
                "--out", "bundle"]


def _small_gen(blocks: str) -> tuple[str, ...]:
    return ("--blocks", blocks, "--pin", "0.1", "--pout", "0.01",
            "--signal", "1.5", "--noise", "2.0")


def _paper(gen, seeds: str, big_t: str, every: str) -> Workload:
    return Workload(
        name="paper-small",
        why="The paper's multi-seed gap experiment (acceptance criterion 6) "
            "through the CLI; at n=200 and batch 1 per-call Python overhead "
            "and small matmuls dominate, not sparse propagation.",
        gen=gen,
        commands=(Command("exp", (
            "experiment", "--data", "{data}",
            "--models", "gcn,sgc,gcn6,gcnii,gcnii6", "--seeds", seeds,
            "--T", big_t, "--optimizer", "sgd", "--batch-size", "1",
            "--schedule", "inverse_time", "--lr-c", "3.0", "--t0", "100",
            "--eval-every", every)),))


def _analyze(gen, extra: tuple[str, ...]) -> Workload:
    return Workload(
        name="analyze-small",
        why="analyze --compare on the 200-node bundle; the only workload "
            "that runs constants, the n-node gradient scans, the "
            "materialized APPNP filter and appnp/gprgnn training.",
        gen=gen,
        commands=(Command("analyze.json", (
            "analyze", "--data", "{data}", "--compare", *extra)),))


def _scale(gen, extra: tuple[str, ...]) -> Workload:
    return Workload(
        name="scale-6k",
        why="Batch-1 training of the five base models at n=6000, where "
            "whole-graph propagation and activations dominate and APPNP "
            "takes the lazy path.",
        gen=gen,
        commands=tuple(Command(f"train_{m}.csv", (
            "train", "--data", "{data}", "--model", m, "--batch-size", "1",
            "--optimizer", "sgd", "--eval-every", "10", *extra))
            for m in BASE_MODELS))


_SCALE_GEN = ("--blocks", "3000,3000", "--pin", "0.004", "--pout", "0.0005",
              "--signal", "1.5", "--noise", "2.0")

WORKLOADS: dict[str, dict[str, Workload]] = {
    "full": {w.name: w for w in (
        _paper(_small_gen("100,100"), "10", "300", "30"),
        _analyze(_small_gen("100,100"), ()),
        _scale(_SCALE_GEN, ("--T", "200")),
    )},
    "tiny": {w.name: w for w in (
        _paper(_small_gen("12,12"), "2", "6", "3"),
        _analyze(_small_gen("12,12"), ("--T", "6")),
        _scale(_small_gen("20,20"), ("--T", "6")),
    )},
}
