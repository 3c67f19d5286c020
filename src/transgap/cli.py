"""Command-line front end.

Subcommands: gen (synthetic bundle), analyze (constants + certificate),
train (single traced run), experiment (multi-seed gap report), gradcheck
(analytic vs finite-difference gradients).  Exit codes: 0 success, 1 usage,
2 data, 3 numeric failure.  Identical flags and inputs produce byte-identical
outputs; machine-readable floats carry 17 significant digits, human summary
lines 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import (BoundInputs, gap_certificate, gradient_norm_diagnostics,
                     initial_bounds)
from .constants import check_certified, constants_report
from .datasets import (BundleFormatError, load_bundle, row_normalize,
                       sbm_bundle, save_bundle)
from .experiments import (MODEL_CHOICES, REPORT_SCHEMA, UsageError,
                          build_model, build_run, canonical_json,
                          check_model_flags, default_schedule,
                          experiment_config, flag_errors, run_experiment,
                          theory_offset)
from .gradients import fd_gradient, grad_sample, max_relative_error
from .graphs import adjacency_inf_norm, sbm_generate
from .models import forward, init_params, kink_distance, layout_for
from .rng import stream
from .training import run_sgd

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _add_model_flags(p: argparse.ArgumentParser, hidden: int = 64,
                     big_k: int = 10,
                     q_help: str = "activation exponent in (1, 2]",
                     k_help: str = "filter order for appnp/gprgnn") -> None:
    p.add_argument("--hidden", type=int, default=hidden,
                   help=f"hidden width (default: {hidden})")
    p.add_argument("--q", type=float, default=2.0,
                   help=f"{q_help} (default: 2.0)")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="gcnii residual weight (default: 0.1)")
    p.add_argument("--beta", type=float, default=0.5,
                   help="gcnii identity-map weight (default: 0.5)")
    p.add_argument("--gamma", type=float, default=0.1,
                   help="appnp restart probability (default: 0.1)")
    p.add_argument("--K", type=int, default=big_k, dest="big_k",
                   help=f"{k_help} (default: {big_k})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transgap",
        description="Generalization-gap certificates and experiments for "
                    "sparse graph networks.")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag values; explicit flags win "
                             "(default: None)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                action=_ConfiguredSubcommand)

    g = sub.add_parser("gen", help="generate a planted-partition bundle")
    g.add_argument("--blocks", type=str, default="50,50",
                   help="comma-separated block sizes (default: 50,50)")
    g.add_argument("--pin", type=float, default=0.1,
                   help="in-block edge probability (default: 0.1)")
    g.add_argument("--pout", type=float, default=0.01,
                   help="cross-block edge probability (default: 0.01)")
    g.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    g.add_argument("--d", type=int, default=8,
                   help="feature dimension (default: 8)")
    g.add_argument("--signal", type=float, default=1.0,
                   help="block-mean feature scale (default: 1.0)")
    g.add_argument("--noise", type=float, default=1.0,
                   help="feature noise scale (default: 1.0)")
    g.add_argument("--name", type=str, default="sbm",
                   help="bundle name (default: sbm)")
    g.add_argument("--row-normalize", action="store_true",
                   help="normalize feature rows to unit norm (default: False)")
    g.add_argument("--out", type=str, required=True, help="output directory")

    a = sub.add_parser("analyze", help="constants report and gap certificate")
    a.add_argument("--data", type=str, required=True, help="bundle directory")
    a.add_argument("--model", type=str, default="gcn", choices=MODEL_CHOICES,
                   help="architecture (default: gcn)")
    a.add_argument("--compare", action="store_true",
                   help="emit all five base models sorted by L_F "
                        "(default: False)")
    a.add_argument("--cw", type=float, default=None,
                   help="pin c_W instead of measuring (default: None)")
    a.add_argument("--seed", type=int, default=0,
                   help="seed for split/init (default: 0)")
    a.add_argument("--train-frac", type=float, default=0.30,
                   help="training fraction (default: 0.3)")
    a.add_argument("--T", type=int, default=300, dest="big_t",
                   help="iterations for the measured radius (default: 300)")
    a.add_argument("--delta", type=float, default=0.1,
                   help="confidence parameter in (0,1) (default: 0.1)")
    a.add_argument("--alpha-rate", type=float, default=None,
                   help="rate exponent override; default q-1 (default: None)")
    a.add_argument("--radius", type=float, default=None,
                   help="radius override; default measured from a run "
                        "(default: None)")
    a.add_argument("--mu", type=float, default=None,
                   help="curvature constant for the offset rule "
                        "(default: None)")
    a.add_argument("--optimizer", type=str, default="sgd",
                   choices=("sgd", "adam"),
                   help="optimizer for the measured radius (default: sgd)")
    a.add_argument("--lr-c", type=float, default=1.0,
                   help="schedule numerator (default: 1.0)")
    a.add_argument("--t0", type=float, default=10.0,
                   help="schedule offset (default: 10.0)")
    a.add_argument("--row-normalize", action="store_true",
                   help="normalize feature rows (default: False)")
    a.add_argument("--out", type=str, default=None,
                   help="write report JSON here instead of stdout "
                        "(default: None)")
    _add_model_flags(a)

    t = sub.add_parser("train", help="one traced training run")
    t.add_argument("--data", type=str, required=True, help="bundle directory")
    t.add_argument("--model", type=str, default="gcn", choices=MODEL_CHOICES,
                   help="architecture (default: gcn)")
    t.add_argument("--T", type=int, default=300, dest="big_t",
                   help="iterations (default: 300)")
    t.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    t.add_argument("--train-frac", type=float, default=0.30,
                   help="training fraction (default: 0.3)")
    t.add_argument("--batch-size", type=int, default=1,
                   help="samples per step (default: 1)")
    t.add_argument("--optimizer", type=str, default="sgd",
                   choices=("sgd", "adam"),
                   help="optimizer (default: sgd)")
    t.add_argument("--schedule", type=str, default="inverse_time",
                   choices=("inverse_time", "constant"),
                   help="step-size schedule (default: inverse_time)")
    t.add_argument("--lr-c", type=float, default=1.0,
                   help="schedule numerator (default: 1.0)")
    t.add_argument("--t0", type=float, default=10.0,
                   help="schedule offset (default: 10.0)")
    t.add_argument("--t0-auto", action="store_true",
                   help="derive t0 from the measured smoothness constant "
                        "(default: False)")
    t.add_argument("--eval-every", type=int, default=10,
                   help="checkpoint stride (default: 10)")
    t.add_argument("--weight-decay", type=float, default=0.0,
                   help="L2 coefficient (default: 0.0)")
    t.add_argument("--row-normalize", action="store_true",
                   help="normalize feature rows (default: False)")
    t.add_argument("--out", type=str, required=True, help="trace CSV path")
    _add_model_flags(t)

    e = sub.add_parser("experiment", help="multi-seed gap report")
    e.add_argument("--data", type=str, required=True, help="bundle directory")
    e.add_argument("--models", type=str, default="gcn,sgc",
                   help="comma-separated model list (default: gcn,sgc)")
    e.add_argument("--seeds", type=str, default="10",
                   help="seed count N (seeds 0..N-1) or explicit list "
                        "(default: 10)")
    e.add_argument("--T", type=int, default=300, dest="big_t",
                   help="iterations (default: 300)")
    e.add_argument("--train-frac", type=float, default=0.30,
                   help="training fraction (default: 0.3)")
    e.add_argument("--batch-size", type=int, default=None,
                   help="samples per step; default min(512, m) "
                        "(default: None)")
    e.add_argument("--optimizer", type=str, default="adam",
                   choices=("sgd", "adam"),
                   help="optimizer (default: adam)")
    e.add_argument("--schedule", type=str, default=None,
                   choices=("inverse_time", "constant"),
                   help="override schedule kind (default: None)")
    e.add_argument("--lr-c", type=float, default=None,
                   help="override schedule numerator (default: None)")
    e.add_argument("--t0", type=float, default=100.0,
                   help="schedule offset (default: 100.0)")
    e.add_argument("--eval-every", type=int, default=10,
                   help="checkpoint stride (default: 10)")
    e.add_argument("--row-normalize", action="store_true",
                   help="normalize feature rows (default: False)")
    e.add_argument("--out", type=str, required=True, help="output directory")
    _add_model_flags(e)

    c = sub.add_parser("gradcheck",
                       help="analytic gradients vs central differences")
    c.add_argument("--model", type=str, default="all",
                   help="model name or 'all' (default: all)")
    c.add_argument("--n", type=int, default=12,
                   help="synthetic graph size (default: 12)")
    c.add_argument("--d", type=int, default=4,
                   help="feature dimension (default: 4)")
    c.add_argument("--classes", type=int, default=2,
                   help="class count (default: 2)")
    c.add_argument("--instances", type=int, default=10,
                   help="random (w, node) instances per model (default: 10)")
    c.add_argument("--seed", type=int, default=1, help="seed (default: 1)")
    c.add_argument("--step", type=float, default=1e-6,
                   help="finite-difference step (default: 1e-06)")
    c.add_argument("--tol", type=float, default=1e-5,
                   help="max relative error allowed (default: 1e-05)")
    _add_model_flags(c, hidden=3, big_k=3, q_help="activation exponent",
                     k_help="filter order")
    return parser


def _flag_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Map flag spellings and destinations (dashes as underscores, no leading
    dashes) to the value-taking actions of one parser."""
    table: dict[str, argparse.Action] = {}
    for action in parser._actions:
        if isinstance(action, (argparse._SubParsersAction, argparse._HelpAction)):
            continue
        for opt in action.option_strings:
            table[opt.lstrip("-").replace("-", "_")] = action
        table.setdefault(action.dest, action)
    return table


def _config_value(key: str, action: argparse.Action, value):
    """A --config value converted and checked as the flag's own parser would."""
    if action.nargs == 0:  # an on/off switch
        if not isinstance(value, bool):
            raise UsageError(f"--config {key}: expected true or false, "
                             f"got {value!r}")
        return value
    if value is None and action.default is None:
        return None
    if isinstance(value, (bool, list, dict)) or value is None:
        raise UsageError(f"--config {key}: expected a single value, "
                         f"got {value!r}")
    try:
        out = (action.type or str)(str(value))
    except (TypeError, ValueError):
        name = getattr(action.type, "__name__", "valid")
        raise UsageError(f"--config {key}: invalid {name} value "
                         f"{value!r}") from None
    if action.choices is not None and out not in action.choices:
        raise UsageError(f"--config {key}: {out!r} is not one of "
                         f"{', '.join(map(str, action.choices))}")
    return out


def _apply_config(parser: argparse.ArgumentParser,
                  sub: argparse._SubParsersAction, command: str,
                  path: str) -> None:
    """Make the --config file's values the defaults of ``command``'s parser.

    Each value is converted and checked like the same flag on the command
    line, and a value for a required flag (such as --data) lifts the
    requirement.  A key that names a flag of another subcommand only, or a
    global flag, is ignored; a key that names no flag at all is a usage
    error.
    """
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("bad --config file: expected a JSON object")
    subparser = sub.choices[command]
    active = _flag_actions(subparser)
    known = set(_flag_actions(parser))
    for other in sub.choices.values():
        known.update(_flag_actions(other))
    for key, value in cfg.items():
        name = key.lstrip("-").replace("-", "_")
        if name not in known:
            raise UsageError(f"--config key {key!r} names no flag")
        action = active.get(name)
        if action is not None:
            value = _config_value(key, action, value)
            action.required = False
            subparser.set_defaults(**{action.dest: value})


class _ConfiguredSubcommand(argparse._SubParsersAction):
    """The subcommand action, which applies --config (``_apply_config``)
    before it parses the subcommand's flags.  --config comes before the
    subcommand, so the one parse has read it by then: the config's values
    are in place when the parse checks required flags, and a flag on the
    command line wins in any spelling."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.config and values[0] in self.choices:
            _apply_config(parser, self, values[0], namespace.config)
        super().__call__(parser, namespace, values, option_string)


def _check_out(path: str, directory: bool) -> None:
    """Reject an --out that cannot be written, before any work: a directory
    where a file goes, a file where a directory goes, or a file among its
    parents."""
    out = Path(path).absolute()
    if out.exists() and out.is_dir() != directory:
        kind = ("a file, not a directory" if directory
                else "a directory, not a file")
        raise UsageError(f"--out {path}: is {kind}")
    parent = next(p for p in out.parents if p.exists())
    if not parent.is_dir():
        raise UsageError(f"--out {path}: {parent} is not a directory")


def cmd_gen(args) -> int:
    _check_out(args.out, directory=True)
    with flag_errors():
        sizes = [int(s) for s in str(args.blocks).split(",") if s != ""]
        bundle = sbm_bundle(sizes, args.pin, args.pout, args.seed, d=args.d,
                            name=args.name, signal=args.signal, noise=args.noise)
    if args.row_normalize:
        bundle = replace(bundle, x=row_normalize(bundle.x))
    save_bundle(bundle, args.out)
    stats = bundle.graph.degree_stats()
    a_inf = adjacency_inf_norm(bundle.graph)
    print(f"bundle {bundle.name}: n={bundle.n} edges={stats.edge_count} "
          f"deg=[{stats.deg_min},{stats.deg_max}] "
          f"adjacency_norm={a_inf:.4g}")
    return 0


def _write(path: str, text: str) -> None:
    """Write an output file, creating its missing parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)


def _constants(spec, ops, bundle, w1, c_w_override=None):
    with flag_errors():
        check_certified(spec)
    return constants_report(spec, ops.p, bundle.x, w1,
                            stats=bundle.graph.degree_stats(),
                            c_w_override=c_w_override)


def _analyze_one(bundle, args, model: str) -> dict:
    spec, ops, split, sgd = build_run(
        bundle, model, args, args.seed,
        default_schedule(args.optimizer, c=args.lr_c, t0=args.t0),
        batch_size=1, eval_every=args.big_t)
    w1 = init_params(spec, args.seed)
    report = _constants(spec, ops, bundle, w1, c_w_override=args.cw)
    warnings: list[str] = []

    radius = args.radius
    if radius is None:
        if args.optimizer == "adam":
            warnings.append("certificates assume the single-draw schedule; "
                            "adam radius is heuristic")
        _, trace = run_sgd(spec, ops, bundle.x, bundle.labels, split, sgd)
        radius = trace.max_dist

    b_loss, b_grad, norms = initial_bounds(spec, ops, bundle.x, bundle.labels,
                                           w1)
    diag = gradient_norm_diagnostics(norms)
    alpha_rate = args.alpha_rate if args.alpha_rate is not None else spec.activation.alpha_tilde
    inputs = BoundInputs(m=split.m, u=split.u, dim=layout_for(spec).dim,
                         big_t=args.big_t, delta=args.delta, alpha=alpha_rate,
                         l_f=report.l_f, radius=radius, b_loss=b_loss,
                         b_grad=b_grad)
    bound = gap_certificate(inputs)
    t0_floor = theory_offset(report.p_f, alpha_rate, warnings.append,
                             mu=args.mu)
    return {"model": model, "constants": report.to_dict(),
           "bound": bound.to_dict(),
           "bound_inputs": {"m": inputs.m, "u": inputs.u, "dim": inputs.dim,
                            "T": inputs.big_t, "delta": inputs.delta,
                            "alpha": inputs.alpha, "radius": radius,
                            "b_loss": b_loss, "b_grad": b_grad},
           "gradient_diagnostics": diag,
           "t0_floor": t0_floor,
           "aggregation": "lemma-aggregation (sum reading)",
           "warnings": warnings}


def cmd_analyze(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise UsageError("--delta must lie strictly inside (0, 1)")
    if args.alpha_rate is not None and not 0.0 < args.alpha_rate <= 1.0:
        raise UsageError("--alpha-rate must lie in (0, 1]")
    for flag, value in (("--radius", args.radius), ("--cw", args.cw)):
        if value is not None and not value >= 0.0:
            raise UsageError(f"{flag} must be nonnegative")
    if args.cw == 0.0:
        raise UsageError("--cw 0 bounds only all-zero weights, and gcnii's "
                         "constants divide by c_W; pin a positive value")
    if args.mu is not None and not 0.0 < args.mu < math.inf:
        raise UsageError("--mu must be positive and finite")
    if args.out:
        _check_out(args.out, directory=False)
    bundle = load_bundle(args.data, args.row_normalize)
    models = MODEL_CHOICES[:5] if args.compare else (args.model,)
    check_model_flags(models, bundle, args)
    reports = [_analyze_one(bundle, args, m) for m in models]
    reports.sort(key=lambda r: r["constants"]["L_F"])
    text = canonical_json({"schema": REPORT_SCHEMA, "compare": reports})
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    for entry in reports:
        print(f"# {entry['model']}: L_F={entry['constants']['L_F']:.4g} "
              f"P_F={entry['constants']['P_F']:.4g} "
              f"certificate={entry['bound']['total']:.4g}",
              file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    _check_out(args.out, directory=False)
    bundle = load_bundle(args.data, args.row_normalize)
    spec, ops, split, sgd = build_run(
        bundle, args.model, args, args.seed,
        default_schedule(args.optimizer, args.schedule, args.lr_c, args.t0),
        args.batch_size, args.eval_every, weight_decay=args.weight_decay)
    if args.t0_auto:
        rep = _constants(spec, ops, bundle, init_params(spec, args.seed))
        t0 = theory_offset(rep.p_f, spec.activation.alpha_tilde,
                           lambda text: print(f"warning: {text}",
                                              file=sys.stderr))
        if t0 == math.inf:
            raise UsageError("--t0-auto: the theory offset overflows, so no "
                             "finite t0 exists")
        sgd = replace(sgd, schedule=replace(sgd.schedule, t0=t0))
    if args.optimizer == "adam":
        print("warning: certificates are stated for the single-draw "
              "schedule; adam is for table reproduction", file=sys.stderr)
    _, trace = run_sgd(spec, ops, bundle.x, bundle.labels, split, sgd)
    _write(args.out, trace.to_csv())
    last = trace.checkpoints[-1]
    print(f"{args.model} T={args.big_t} seed={args.seed}: "
          f"R_m={last.r_m:.4g} R_u={last.r_u:.4g} "
          f"gap={abs(last.r_m - last.r_u):.4g} acc_u={last.acc_u:.4g}")
    return 0


def cmd_experiment(args) -> int:
    config = experiment_config(args)
    _check_out(args.out, directory=True)
    bundle = load_bundle(args.data, args.row_normalize)
    report = run_experiment(bundle, config, out_dir=args.out)
    for model, row in report.aggregate()["results"].items():
        print(f"{model}: " + " ".join(
            f"{key}={row[key]['mean']:.4g}+-{row[key]['std']:.4g}"
            for key in ("loss_gap", "acc_gap", "test_acc")))
    return 0


def gradcheck_instance(model: str, args, inst: int):
    """Deterministic live test instance: (spec, ops, x, w, node, label)."""
    half = max(2, args.n // 2)
    with flag_errors():
        graph, labels = sbm_generate([half, args.n - half], 0.6, 0.2,
                                     seed=args.seed)
    labels = (labels % args.classes).astype(np.int64)
    spec, ops = build_model(model, graph, args.d, args.classes, args)
    rng = stream(args.seed, f"gradcheck_features_{inst}")
    x = 2.0 * rng.normal(size=(graph.n, args.d))
    node = inst % graph.n
    for attempt in range(64):
        w = init_params(spec, args.seed * 1000 + inst * 64 + attempt)
        cache = forward(spec, ops, x, w)
        g = grad_sample(spec, ops, x, w, node, int(labels[node]), cache=cache)
        if float(np.abs(g).max()) < 1e-2:  # dead unit; FD would be all noise
            continue
        if args.q >= 1.5 or kink_distance(spec, x, w, cache) > 1e-4:
            break
    return spec, ops, x, w, node, int(labels[node])


def cmd_gradcheck(args) -> int:
    if args.model != "all" and args.model not in MODEL_CHOICES:
        raise UsageError(f"unknown model {args.model!r}")
    models = list(MODEL_CHOICES[:5]) if args.model == "all" else [args.model]
    if not 0.0 < args.step < math.inf:
        raise UsageError("--step must be positive and finite")
    if args.instances < 1:
        raise UsageError("--instances must be >= 1")
    if args.classes < 2:  # one class: softmax constant, both gradients 0
        raise UsageError("--classes must be >= 2")
    if not args.tol >= 0.0:
        raise UsageError("--tol must be a nonnegative number")
    failed = False
    for model in models:
        worst = 0.0
        for inst in range(args.instances):
            spec, ops, x, w, node, label = gradcheck_instance(model, args, inst)
            ga = grad_sample(spec, ops, x, w, node, label)
            gf = fd_gradient(spec, ops, x, w, node, label, step=args.step)
            worst = max(worst, max_relative_error(ga, gf))
        status = "PASS" if worst <= args.tol else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{model}: max_rel_err={worst:.4g} tol={args.tol:.4g} {status}")
    return EXIT_NUMERIC if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    handlers = {"gen": cmd_gen, "analyze": cmd_analyze, "train": cmd_train,
                "experiment": cmd_experiment, "gradcheck": cmd_gradcheck}
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BundleFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
