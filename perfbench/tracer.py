"""Trace one ``transgap`` CLI command from outside the package.

Usage::

    python3 perfbench/tracer.py --stats STATS.json --spans SPANS.tsv -- <cli args>

The script times ``import transgap.cli``, rebinds every function in
``FUNCTIONS`` in each ``transgap`` module (and class) that holds a reference
to it, runs the command in-process through ``transgap.cli.main``, restores
every binding and checks that nothing traced is left behind.  Spans (function,
parent span, start, end) are kept in memory and written when the command
ends; the stats file holds per-function calls, inclusive and self time, and
the work counters below.  Counters derived from argument shapes
(``spmm_nnz_cols``) are computed, not measured.

The import of ``transgap.cli`` is timed before anything else heavy is
imported, so this module keeps to the standard library at the top level.
"""

from __future__ import annotations

import functools
import json
import sys
import time

FUNCTIONS = (
    ("models", "layout_for"),
    ("models", "forward"),
    ("models", "PropOps.propagate"),
    ("models", "PropOps.appnp_row"),
    ("models", "PropOps.power_row"),
    ("activations", "act_eval"),
    ("activations", "act_deriv"),
    ("gradients", "grad_sample"),
    ("gradients", "grad_mean"),
    ("bounds", "initial_bounds"),
    ("bounds", "gradient_norm_diagnostics"),
    ("graphs", "appnp_filter"),
    ("graphs", "appnp_apply"),
    ("graphs", "gpr_powers"),
    ("graphs", "sbm_generate"),
    ("graphs", "PropagationMatrix.to_scipy"),
    ("constants", "constants_report"),
    ("constants", "spectral_norm"),
    ("constants", "measure_norms"),
    ("constants", "gpr_filter_inf_norm"),
    ("training", "run_sgd"),
    ("training", "evaluate"),
    ("training", "gradient_gap"),
    ("datasets", "load_bundle"),
    ("experiments", "run_single"),
    ("experiments", "canonical_json"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in FUNCTIONS)

# Calls that multiply by the propagation matrix, with the number of sparse
# products each implies.  Only the outermost of nested ones is counted
# (the lazy appnp_row calls appnp_apply).
_SPMM = ("models.PropOps.propagate", "graphs.appnp_apply", "graphs.gpr_powers",
         "models.PropOps.power_row", "models.PropOps.appnp_row")
_SCANS = ("bounds.initial_bounds", "bounds.gradient_norm_diagnostics")
_SPMM_IDS = tuple(NAMES.index(n) for n in _SPMM)
_SCAN_IDS = tuple(NAMES.index(n) for n in _SCANS)

COUNTERS = ("spmm_nnz_cols", "act_eval_elements", "act_deriv_elements",
            "spectral_norm_iterations", "forward_repeats", "scan_grads",
            "scan_nodes", "run_sgd_steps")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _cols(m) -> int:
    return int(m.shape[1]) if m.ndim > 1 else 1


class Tracer:
    """Span recorder plus the bindings it installed."""

    def __init__(self):
        self.spans: list[list[int]] = []  # [function id, parent span, t0, t1]
        self._stack: list[int] = []
        self._open = [0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive
        self._prev_forward = None

    # -- counters, evaluated after each call, when only ancestors are open --
    def _is_open(self, fids) -> bool:
        return any(self._open[f] for f in fids)

    def _count_spmm(self, name, args, kwargs) -> None:
        if self._is_open(_SPMM_IDS):
            return
        if name == "models.PropOps.propagate":
            p, work = args[0].p, _cols(_arg(args, kwargs, 1, "m"))
        elif name == "models.PropOps.power_row":
            p, work = args[0].p, int(_arg(args, kwargs, 2, "big_k"))
        elif name == "models.PropOps.appnp_row":
            # A materialized filter is read, not multiplied by P; the lazy
            # path runs K products with one column.
            ops = args[0]
            p, work = ops.p, 0 if ops.filter is not None else int(ops.spec.big_k)
        elif name == "graphs.appnp_apply":
            p = args[0]
            work = int(_arg(args, kwargs, 2, "big_k")) * _cols(_arg(args, kwargs, 3, "x"))
        else:  # graphs.gpr_powers
            p = args[0]
            work = int(_arg(args, kwargs, 2, "big_k")) * _cols(_arg(args, kwargs, 1, "x"))
        self.counters["spmm_nnz_cols"] += int(p.values.size) * work

    def _after(self, name, args, kwargs, result):
        c = self.counters
        if name in _SPMM:
            self._count_spmm(name, args, kwargs)
        elif name == "activations.act_eval":
            c["act_eval_elements"] += int(_arg(args, kwargs, 1, "x").size)
        elif name == "activations.act_deriv":
            c["act_deriv_elements"] += int(_arg(args, kwargs, 1, "x").size)
        elif name == "constants.spectral_norm":
            c["spectral_norm_iterations"] += int(result.iterations)
        elif name == "training.run_sgd":
            # Steps that ran: the last checkpoint is taken at the final step.
            checkpoints = result[1].checkpoints
            c["run_sgd_steps"] += int(checkpoints[-1].t) if checkpoints else 0
        elif name == "bounds.initial_bounds":
            c["scan_nodes"] += int(_arg(args, kwargs, 1, "ops").n)
        elif name == "gradients.grad_sample":
            if self._is_open(_SCAN_IDS):
                c["scan_grads"] += 1
        elif name == "models.forward":
            import numpy as np

            spec, w = args[0], _arg(args, kwargs, 3, "w")
            prev = self._prev_forward
            if prev is not None and prev[0] is spec and np.array_equal(prev[1], w):
                c["forward_repeats"] += 1
            self._prev_forward = (spec, np.array(w, copy=True))

    def _wrap(self, fid: int, fn):
        name = NAMES[fid]
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter_ns
        after = self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(idx)
            opened[fid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                opened[fid] -= 1
            after(name, args, kwargs, result)
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a transgap module holds it."""
        import importlib

        mods = _transgap_modules()
        for fid, (mod, qual) in enumerate(FUNCTIONS):
            home = importlib.import_module(f"transgap.{mod}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                wrapper = self._wrap(fid, orig)
                self._bind(owner, attr, orig, wrapper)
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(fid, orig)
            for m in mods:
                if m.__dict__.get(qual) is orig:
                    self._bind(m, qual, orig, wrapper)

    def _bind(self, owner, attr, orig, wrapper) -> None:
        self._bindings.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings.clear()

    def leftovers(self) -> list[str]:
        """Names under transgap still bound to a wrapper (empty when restored)."""
        found = []
        for m in _transgap_modules():
            for key, val in list(m.__dict__.items()):
                if id(val) in self._wrappers:
                    found.append(f"{m.__name__}.{key}")
                if isinstance(val, type):
                    for k2, v2 in val.__dict__.items():
                        if id(v2) in self._wrappers:
                            found.append(f"{m.__name__}.{key}.{k2}")
        return found

    def stats(self) -> dict:
        """Per-function calls, inclusive and self seconds, from the spans."""
        import numpy as np

        nfun = len(NAMES)
        if self.spans:
            arr = np.array(self.spans, dtype=np.int64)
            fid, parent = arr[:, 0], arr[:, 1]
            dur = (arr[:, 3] - arr[:, 2]).astype(np.float64) * 1e-9
            child = np.zeros(len(arr))
            has = parent >= 0
            np.add.at(child, parent[has], dur[has])
            calls = np.bincount(fid, minlength=nfun)
            incl = np.bincount(fid, weights=dur, minlength=nfun)
            self_s = np.bincount(fid, weights=dur - child, minlength=nfun)
        else:
            calls = incl = self_s = np.zeros(nfun)
        return {name: {"calls": int(calls[k]), "s": float(incl[k]),
                       "self_s": float(self_s[k])}
                for k, name in enumerate(NAMES)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(NAMES) + "\n")
            fh.write("function\tparent\tt0_ns\tt1_ns\n")
            for fid, parent, t0, t1 in self.spans:
                fh.write(f"{fid}\t{parent}\t{t0}\t{t1}\n")


def _transgap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "transgap" or name.startswith("transgap."))]


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: tracer.py --stats PATH --spans PATH -- <cli args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    paths = dict(zip(opts[::2], opts[1::2]))

    t0 = time.perf_counter()
    import transgap.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.restore()
    leftovers = tracer.leftovers()
    tracer.write_spans(paths["--spans"])
    out = {"rc": rc, "import_s": import_s, "restored": not leftovers,
           "leftovers": leftovers, "functions": tracer.stats(),
           "counters": tracer.counters}
    with open(paths["--stats"], "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
