#!/usr/bin/env python3
"""Benchmark runner for the transgap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used straight from
``src/`` (absolute path on the children's PYTHONPATH, so commands may run
from any working directory).  Every child runs with ``TRANSGAP_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` pinned to 1.

Set-up is ``transgap gen`` for the workload's bundle, run three times; its
median wall time and max-RSS are ``setup_s`` and ``setup_rss_mb``.  With
``--trace 0`` the workload's commands then run as subprocesses, pass after
pass, until the next pass would end after ``--seconds`` (at least one pass);
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the passes of the
per-pass sum of wall time, sum of user+sys time and largest max-RSS.

With ``--trace 1`` one untraced pass and two traced passes run, each with its
own ``gen``; a traced pass runs each command through ``perfbench/tracer.py``.
The per-layer metrics are the means of the two traced passes; their counts
must agree exactly, and ``trace_overhead_s`` is traced minus untraced wall.

Every command execution is checked: exit code 0, outputs within tolerance of
the committed reference (``perfbench/check.py``), and outputs byte-identical
to every other execution of the same command on the same code, in this run
and in earlier runs in this checkout.  A failed check counts the execution as
failed; ``error_rate`` is failed / attempted.

The last line of standard output is the JSON result; details (environment,
every execution) go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
from workloads import REF_SEEDS, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3
TRACED_PASSES = 2
DEADLINE_S = 170.0
PINNED_ENV = {"TRANSGAP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s", "setup_rss_mb": "MB"}

_PROBE = """
import json, platform
import numpy, scipy
import transgap.cli
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["openblas"] = f"{blas['name']} {blas['version']}"
except (KeyError, TypeError, AttributeError) as exc:
    info["openblas"] = f"unknown ({exc!r})"
print(json.dumps(info))
"""


@dataclass
class Execution:
    """One command run as a child process, with the checks it failed."""

    key: str  # output name; executions with one key must write identical bytes
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    stats: dict | None = None


class Runner:
    def __init__(self, workload: Workload, size: str, seed: int):
        self.wl = workload
        self.size = size
        self.gen_seed = seed % REF_SEEDS
        self.dir = WORK / f"{size}-{workload.name}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
        self.started = time.perf_counter()
        self.ref = check.load_ref(size, workload.name, self.gen_seed)
        self.executions: list[Execution] = []

    # -- processes --------------------------------------------------------
    def spawn(self, argv: list[str], cwd: Path, log: str) -> tuple[int, float, float, float]:
        """Run a child to completion: (exit code, wall s, cpu s, max-RSS MB)."""
        cwd.mkdir(parents=True, exist_ok=True)
        remaining = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(cwd / f"{log}.stdout", "wb") as out, \
                open(cwd / f"{log}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def run_cli(self, cli_args: list[str], cwd: Path, log: str,
                traced: bool) -> tuple[int, float, float, float, dict | None]:
        if not traced:
            return (*self.spawn([sys.executable, "-m", "transgap.cli", *cli_args],
                                cwd, log), None)
        stats_path = cwd / f"{log}.trace.json"
        argv = [sys.executable, str(HERE / "tracer.py"), "--stats", str(stats_path),
                "--spans", str(cwd / f"{log}.spans.tsv"), "--", *cli_args]
        result = self.spawn(argv, cwd, log)
        stats = json.loads(stats_path.read_text()) if stats_path.is_file() else None
        return (*result, stats)

    # -- one gen / one pass -----------------------------------------------
    def gen(self, cwd: Path, traced: bool = False) -> Execution:
        rc, wall, cpu, rss, stats = self.run_cli(self.wl.gen_argv(self.gen_seed),
                                                 cwd, "gen", traced)
        ex = Execution("bundle", rc, wall, cpu, rss, stats=stats)
        files = check.files_under(cwd / "bundle")
        ex.digest = check.digest(files)
        if rc != 0:
            ex.problems.append(f"exit code {rc}")
        elif self.ref is None:
            ex.problems.append(self.no_ref())
        else:
            ex.problems += check.check_bundle(self.ref, files)
        self._trace_problems(ex)
        self.executions.append(ex)
        return ex

    def run_pass(self, cwd: Path, bundle: Path, traced: bool) -> list[Execution]:
        done = []
        (cwd / "out").mkdir(parents=True, exist_ok=True)
        for k, cmd in enumerate(self.wl.commands):
            rc, wall, cpu, rss, stats = self.run_cli(cmd.argv(str(bundle)), cwd,
                                                     f"cmd{k}", traced)
            ex = Execution(cmd.out, rc, wall, cpu, rss, stats=stats)
            outputs = check.files_under(cwd / "out" / cmd.out)
            ex.digest = check.digest(outputs)
            if rc != 0:
                ex.problems.append(f"exit code {rc}: "
                                   + (cwd / f"cmd{k}.stderr").read_text()[-300:])
            elif self.ref is None:
                ex.problems.append(self.no_ref())
            else:
                ex.problems += check.check_outputs(self.ref, outputs, cmd.out)
            self._trace_problems(ex)
            self.executions.append(ex)
            done.append(ex)
        return done

    @staticmethod
    def _trace_problems(ex: Execution) -> None:
        if ex.stats is None:
            return
        if not ex.stats["restored"]:
            ex.problems.append("tracer left bindings in place: "
                               + ", ".join(ex.stats["leftovers"]))

    # -- checks across executions ----------------------------------------
    def check_repeats(self, src_digest: str) -> None:
        """Executions of one command line on one code version must agree byte for byte."""
        cache_path = WORK / "digests.json"
        cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
        commands = json.dumps([self.wl.gen_argv(self.gen_seed),
                               [c.args for c in self.wl.commands]])
        run_key = "/".join((self.size, self.wl.name, f"seed{self.gen_seed}", src_digest,
                            hashlib.sha256(commands.encode()).hexdigest()[:16]))
        earlier = cache.setdefault(run_key, {})
        for ex in self.executions:
            if ex.rc != 0:
                continue
            first = earlier.setdefault(ex.key, ex.digest)
            if ex.digest != first:
                ex.problems.append(f"{ex.key}: bytes differ from another run "
                                   "of the same code")
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
        tmp.replace(cache_path)

    def no_ref(self) -> str:
        path = check.ref_path(self.size, self.wl.name, self.gen_seed)
        return f"no committed reference {path.relative_to(ROOT)}"


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _pass_totals(passes: list[list[Execution]]) -> tuple[list[float], list[float], list[float]]:
    walls = [sum(e.wall for e in p) for p in passes]
    cpus = [sum(e.cpu for e in p) for p in passes]
    rss = [max(e.rss_mb for e in p) for p in passes]
    return walls, cpus, rss


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    gens = [runner.gen(runner.dir / f"setup{k}") for k in range(SETUP_REPEATS)]
    bundle = runner.dir / "setup0" / "bundle"
    passes: list[list[Execution]] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(runner.run_pass(runner.dir / f"pass{len(passes)}", bundle,
                                      traced=False))
        now = time.perf_counter()
        if (now - t0) + (now - start) > seconds:
            break
        if (now - runner.started) + (now - start) > DEADLINE_S - 20.0:
            break
    walls, cpus, rss = _pass_totals(passes)
    print(f"passes: {len(passes)}; per-pass wall s: "
          + ", ".join(f"{w:.4f}" for w in walls))
    print("setup gen wall s: " + ", ".join(f"{g.wall:.4f}" for g in gens))
    return {"wall_s": _median(walls), "cpu_s": _median(cpus),
            "peak_rss_mb": _median(rss),
            "setup_s": _median([g.wall for g in gens]),
            "setup_rss_mb": _median([g.rss_mb for g in gens])}


def _sum_traces(execs: list[Execution]) -> tuple[dict, dict, float]:
    functions: dict[str, dict] = {}
    counters: dict[str, int] = {}
    import_s = 0.0
    for ex in execs:
        if ex.stats is None:
            continue
        for name, st in ex.stats["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat in acc:
                acc[stat] += st[stat]
        for name, value in ex.stats["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if ex.key != "bundle":
            import_s += ex.stats["import_s"]
    return functions, counters, import_s


def measure_traced(runner: Runner) -> dict[str, float]:
    untraced_gen = runner.gen(runner.dir / "untraced")
    untraced = runner.run_pass(runner.dir / "untraced",
                               runner.dir / "untraced" / "bundle", traced=False)
    untraced_wall = sum(e.wall for e in untraced)
    per_pass = []
    for k in range(TRACED_PASSES):
        cwd = runner.dir / f"traced{k}"
        gen = runner.gen(cwd, traced=True)
        execs = runner.run_pass(cwd, cwd / "bundle", traced=True)
        if any(e.stats is None for e in [gen, *execs]):
            execs[-1].problems.append("tracer wrote no stats")
            return {}
        functions, counters, import_s = _sum_traces([gen, *execs])
        wall = sum(e.wall for e in execs)
        per_pass.append(layers.values(functions, counters, import_s,
                                      wall - untraced_wall))
    print(f"untraced wall s: {untraced_wall:.4f} (gen {untraced_gen.wall:.4f}); "
          "traced wall s: " + ", ".join(
              f"{untraced_wall + p['trace_overhead_s']:.4f}" for p in per_pass))
    first = per_pass[0]
    for later in per_pass[1:]:
        differ = [n for n in layers.EXACT if later[n] != first[n]]
        if differ:
            runner.executions[-1].problems.append(
                "traced counts differ between traced runs: " + ", ".join(differ))
    return {name: statistics.fmean(p[name] for p in per_pass) if name not in layers.EXACT
            else first[name] for name in first}


def environment(env: dict[str, str]) -> dict:
    """Versions as the children see them; importing also compiles the bytecode."""
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    ).stdout.strip() or None
        except OSError:
            commit = None
    info.update(commit=commit, src_sha256=src_digest(), nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), machine=platform.machine(),
                env=PINNED_ENV)
    return info


def src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "transgap"
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(WORKLOADS), default="full",
                    help="tiny runs the same commands on small inputs (smoke test)")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "transgap" / "cli.py").is_file():
        print(f"error: no transgap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS[args.size]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS[args.size])}", file=sys.stderr)
        return 2

    runner = Runner(WORKLOADS[args.size][args.workload], args.size, args.seed)
    info = environment(runner.env)
    shutil.rmtree(runner.dir, ignore_errors=True)
    print(f"perfbench {args.workload} size={args.size} seed={args.seed} "
          f"(gen seed {runner.gen_seed}) trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(info, sort_keys=True))

    if args.trace:
        metrics = measure_traced(runner)
        units = {row["name"]: row["unit"] for row in layers.PER_LAYER}
    else:
        metrics = measure(runner, args.seconds)
        units = END_TO_END
    runner.check_repeats(info["src_sha256"])

    attempted = len(runner.executions)
    failed = sum(1 for e in runner.executions if e.problems)
    for ex in runner.executions:
        for problem in ex.problems:
            print(f"FAILED {ex.key}: {problem}")
    error_rate = failed / attempted
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(f"{'error_rate':42s} {error_rate:.6g} ratio ({failed} of {attempted} "
          "command executions failed)")

    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    details = dict(result, workload=args.workload, size=args.size,
                   seed=args.seed, gen_seed=runner.gen_seed, trace=args.trace,
                   seconds=args.seconds, environment=info, error_rate=error_rate,
                   executions=[{k: v for k, v in asdict(e).items() if k != "stats"}
                               for e in runner.executions])
    out = WORK / "results" / f"{args.size}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
