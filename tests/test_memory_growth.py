"""Memory grows linearly in n, not with n^2: the max RSS of one child per
command at three graph sizes, each twice the last.  The increment from n
to 2n may be at most three times the increment from n/2 to n; linear
growth gives 2x, an n x n array 4x.

One helper process imports the program and forks one child per command,
one at a time, and reads that child's max RSS from ``os.wait4``.  Before
each fork it returns its free heap to the system (glibc's ``malloc_trim``),
so a child that reuses the helper's free memory pays for it in RSS too.
The graphs have scale-6k's degrees (p_in = 12/half, p_out = 1.5/half).
Widths and sizes keep each increment at 2.5 MB or more and the whole test
near 10 s: the per-node scan of ``analyze`` costs about 1 ms a node.
"""

import json
import sys

import pytest

from conftest import run_python
from transgap.models import ARCHITECTURES

LADDER = (375, 750, 1500, 3000, 6000)

# name -> (index in LADDER of the smallest size, the command's flags);
# each command runs on the bundles of three sizes from there
COMMANDS = {
    "gen": (2, []),
    **{f"train {arch}": (1, ["train", "--model", arch, "--T", "10",
                             "--hidden", "512" if arch == "sgc" else "256",
                             "--out", "t.csv"])
       for arch in ARCHITECTURES},
    "analyze gcn": (1, ["analyze", "--model", "gcn", "--T", "2",
                        "--hidden", "256", "--out", "a.json"]),
    "analyze sgc": (1, ["analyze", "--model", "sgc", "--T", "2",
                        "--hidden", "512", "--out", "a.json"]),
    "analyze gcnii": (0, ["analyze", "--model", "gcnii", "--T", "2",
                          "--hidden", "128", "--out", "a.json"]),
    "experiment": (1, ["experiment", "--models", "gcn", "--seeds", "1",
                       "--T", "2", "--hidden", "256", "--out", "e"]),
}

# transgap pins BLAS to one thread on import, before numpy loads, so the
# helper holds no BLAS threads when it forks; it pre-loads what every
# command loads (numpy.random and the sparse kernels), so the children
# share those pages
HELPER = """
import ctypes, json, os, sys
from transgap.cli import main
import numpy.random
from transgap.graphs import _sparsetools
_sparsetools()

trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if trim is None:
    trim = lambda pad: 0
else:
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
out = []
for argv in json.loads(sys.argv[1]):
    trim(0)
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            code = main(argv)
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    out.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(out))
"""


def bundle(n: int) -> str:
    return f"b{n}"


def gen_flags(n: int) -> list[str]:
    half = n // 2
    return ["gen", "--blocks", f"{half},{half}", "--pin", str(12 / half),
            "--pout", str(1.5 / half), "--seed", "3", "--d", "16",
            "--out", bundle(n)]


@pytest.mark.skipif(sys.platform != "linux",
                    reason="fork, and ru_maxrss in KiB, are Linux's")
def test_max_rss_grows_linearly(tmp_path):
    runs = [("gen", n, gen_flags(n)) for n in LADDER]
    for name, (first, flags) in COMMANDS.items():
        if name != "gen":
            runs += [(name, n, flags + ["--data", bundle(n)])
                     for n in LADDER[first:first + 3]]
    res = run_python(["-c", HELPER, json.dumps([argv for *_, argv in runs])],
                     tmp_path)
    assert res.returncode == 0, res.stderr
    rss = {}
    for (name, n, argv), (code, kib) in zip(runs, json.loads(res.stdout)):
        assert code == 0, f"transgap {' '.join(argv)} exited {code}"
        rss[name, n] = kib / 1024
    for name, (first, _) in COMMANDS.items():
        sizes = LADDER[first:first + 3]
        mb = [rss[name, n] for n in sizes]
        low, high = mb[1] - mb[0], mb[2] - mb[1]
        assert high <= 3.0 * low, (
            f"{name}: max RSS {[round(v, 1) for v in mb]} MB at n = "
            f"{sizes}; the second increment, {high:.1f} MB, is more than "
            f"3x the first, {low:.1f} MB")
