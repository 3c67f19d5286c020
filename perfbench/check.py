"""Output checks: committed references at a stated tolerance, and digests.

A reference holds, for one (size, workload, generator seed), the SHA-256 of
every bundle file and the text of every output file the workload's commands
wrote.  Bundles must match exactly.  Outputs are compared token by token
(CSV cells, JSON leaves): strings, and numbers that are integers on both
sides, must be equal; other numbers must agree to ``RTOL`` relative plus
``ATOL`` absolute: room for rounding changes (a reordered reduction,
amplified over a few hundred SGD steps), not for a different result.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12

REF_ROOT = Path(__file__).resolve().parent / "refs"


def files_under(path: Path) -> dict[str, Path]:
    """Relative path -> file, for one output file or every file in a dir."""
    if path.is_file():
        return {path.name: path}
    if not path.is_dir():
        return {}
    return {f.relative_to(path.parent).as_posix(): f
            for f in sorted(path.rglob("*")) if f.is_file()}


def file_digests(files: dict[str, Path]) -> dict[str, str]:
    return {rel: hashlib.sha256(f.read_bytes()).hexdigest()
            for rel, f in sorted(files.items())}


def digest(files: dict[str, Path]) -> str:
    """One digest over the names and bytes of a set of files."""
    return hashlib.sha256(json.dumps(file_digests(files)).encode()).hexdigest()


def ref_path(size: str, workload: str, gen_seed: int) -> Path:
    return REF_ROOT / size / workload / f"seed{gen_seed}.json.gz"


def load_ref(size: str, workload: str, gen_seed: int) -> dict | None:
    path = ref_path(size, workload, gen_seed)
    if not path.is_file():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def save_ref(size: str, workload: str, gen_seed: int, bundle: dict[str, Path],
             outputs: dict[str, Path]) -> Path:
    payload = {"bundle_sha256": file_digests(bundle),
               "outputs": {rel: f.read_text() for rel, f in sorted(outputs.items())}}
    path = ref_path(size, workload, gen_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(payload, sort_keys=True, indent=0).encode()
    path.write_bytes(gzip.compress(raw, mtime=0))
    return path


def check_bundle(ref: dict, bundle: dict[str, Path]) -> list[str]:
    got = file_digests(bundle)
    want = ref["bundle_sha256"]
    return [f"bundle file {rel} differs from the reference"
            for rel in sorted(set(got) | set(want)) if got.get(rel) != want.get(rel)]


def check_outputs(ref: dict, outputs: dict[str, Path], prefix: str) -> list[str]:
    """Problems with one command's outputs (relative paths under ``prefix``)."""
    want = {rel: text for rel, text in ref["outputs"].items()
            if rel == prefix or rel.startswith(prefix + "/")}
    problems = [f"{rel}: missing" for rel in sorted(set(want) - set(outputs))]
    problems += [f"{rel}: not in the reference" for rel in sorted(set(outputs) - set(want))]
    for rel in sorted(set(want) & set(outputs)):
        problem = compare_text(outputs[rel].read_text(), want[rel],
                               json_file=rel.endswith(".json"))
        if problem:
            problems.append(f"{rel}: {problem}")
    return problems


def compare_text(got: str, want: str, json_file: bool) -> str | None:
    """None if ``got`` matches ``want`` at the tolerance, else the first difference."""
    if json_file:
        try:
            return _compare_json(json.loads(got), json.loads(want), "$")
        except json.JSONDecodeError as exc:
            return f"not JSON ({exc})"
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, reference has {len(want_lines)}"
    for k, (g_line, w_line) in enumerate(zip(got_lines, want_lines), start=1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            return f"line {k}: {len(g_cells)} cells, reference has {len(w_cells)}"
        for g, w in zip(g_cells, w_cells):
            if not _cell_matches(g, w):
                return f"line {k}: {g!r} vs reference {w!r}"
    return None


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _close(g: float, w: float) -> bool:
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    if math.isinf(g) or math.isinf(w):
        return g == w
    return abs(g - w) <= ATOL + RTOL * abs(w)


def _cell_matches(g: str, w: str) -> bool:
    if g == w:
        return True
    gn, wn = _number(g), _number(w)
    if gn is None or wn is None:
        return False
    return _numbers_match(gn, wn)


def _numbers_match(g, w) -> bool:
    """Integers must be equal; a float on either side (17-digit output
    prints integral floats without a point) is compared at the tolerance."""
    if isinstance(g, int) and isinstance(w, int):
        return g == w
    return _close(float(g), float(w))


def _compare_json(got, want, where: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for key in sorted(want):
            problem = _compare_json(got[key], want[key], f"{where}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: list differs in length"
        for k, (g, w) in enumerate(zip(got, want)):
            problem = _compare_json(g, w, f"{where}[{k}]")
            if problem:
                return problem
        return None
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want and type(got) is type(want) else f"{where}: {got!r} vs {want!r}"
    ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
          and _numbers_match(got, want))
    return None if ok else f"{where}: {got!r} vs reference {want!r}"
