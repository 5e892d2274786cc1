"""Reference figures quoted in README.md, measured apart from run.py.

    python3 perfbench/reference.py

Run from the root of a source checkout; takes about two minutes on two
CPUs. Prints one JSON object:

- ``phase_101_s``: one full ``phase --grid 101x101 -L 50`` map, pinned BLAS;
- ``threads2_speedup``: per sweep, the median over three alternations of
  (time at --threads 1) / (time at --threads 2), pinned BLAS;
- ``mipr_default_pool_s`` / ``mipr_pinned_s``: ``mipr --grid 11x11 -L 40``
  under OpenBLAS's default thread pool and pinned to one thread;
- ``dipr_dense_vs_chain_max_gap``: the largest difference, over the
  generic nodes of a 15x15 g0 = 0.5 grid on [-2, 2] at L = 50, with and
  without ``--snap-special``, between the dense <dIPR> that ``dipr``
  writes and the same average from balanced chains computed here (see
  ``chain_mean_dipr``).

Every timing runs ``nhcreutz.cli.main`` in a fresh interpreter and times
the call alone, not the interpreter start.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, PINNED  # noqa: E402

TIMED = ("import sys, time; sys.path.insert(0, {src!r}); "
         "from nhcreutz.cli import main; t = time.perf_counter(); "
         "rc = main({argv!r}); print(time.perf_counter() - t); "
         "sys.exit(rc)")
TILES = {
    "phase": ["phase", "--g0", "0.5", "--grid", "24x24", "--range", "-2:2",
              "--snap-special", "-L", "50"],
    "dipr": ["dipr", "--g0", "0.5", "--grid", "8x8", "--range", "-2:2",
             "--snap-special", "-L", "50"],
    "mipr": ["mipr", "--g0", "0.5", "--grid", "11x11", "--range",
             "-1.5:1.5", "-L", "40"],
}


def cli_seconds(argv, cwd, pinned=True):
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    if pinned:
        env.update(PINNED)
    out = subprocess.run(
        [sys.executable, "-c", TIMED.format(src=str(SRC), argv=argv)],
        env=env, cwd=cwd, check=True, capture_output=True, text=True,
        timeout=600).stdout
    return float(out.split()[-1])


def chain_mean_dipr(t0, gbar, g0, L, tbar=1.0):
    """<dIPR> over the 2L right eigenvectors of the two decoupled chains.

    Chain one has bonds (f', g'), (f, g), (f', g'), ... and chain two
    starts with (f, g); a bond (fa, ga) carries -i(fa + ga) forward and
    -i(fa - ga) back. The diagonal similarity x = D y with
    D_{m+1} / D_m = sqrt(back / forward) makes each chain symmetric, so
    its eigenvectors y are well conditioned; the envelope D is put back
    in log space. Chain site m sits on cell L - m (1-based) with weight
    |x_m|^2 / 2 on each leg, so dIPR = (sum over the left half of
    |x|^4 - sum over the right half) / 2.
    """
    import numpy as np

    g, f, gp, fp = tbar + t0, gbar + g0, tbar - t0, gbar - g0
    total = []
    for first, second in (((fp, gp), (f, g)), ((f, g), (fp, gp))):
        bonds = [first if m % 2 == 0 else second for m in range(L - 1)]
        fwd = np.array([-1j * (fa + ga) for fa, ga in bonds])
        back = np.array([-1j * (fa - ga) for fa, ga in bonds])
        ratio = np.sqrt(back / fwd)
        sym = fwd * ratio
        S = np.diag(sym, 1) + np.diag(sym, -1)
        _, Y = np.linalg.eig(S)
        log_d = np.concatenate([[0.0], np.cumsum(np.log(np.abs(ratio)))])
        with np.errstate(divide="ignore"):
            log_x = log_d[:, None] + np.log(np.abs(Y))
        p = np.exp(2.0 * (log_x - log_x.max(axis=0)))
        p4 = (p / p.sum(axis=0)) ** 2
        # sites m >= L/2 are cells 1..L/2, the left half
        total.extend(0.5 * (p4[L // 2:].sum(axis=0) - p4[:L // 2].sum(axis=0)))
    return float(np.mean(total))


def dipr_gap(cwd, snap):
    import checks

    argv = ["dipr", "--g0", "0.5", "--grid", "15x15", "--range", "-2:2",
            "-L", "50", "-o", "gap.csv"] + (["--snap-special"] if snap else [])
    cli_seconds(argv, cwd)
    columns, rows = checks.read_csv(Path(cwd) / "gap.csv")
    gap = 0.0
    for row in (dict(zip(columns, r)) for r in rows):
        if row["status"] != "ok":
            continue
        chain = chain_mean_dipr(float(row["t0"]), float(row["gbar"]), 0.5, 50)
        gap = max(gap, abs(float(row["mean_dipr"]) - chain))
    return gap


def main():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as cwd:
        out = {"phase_101_s": cli_seconds(
            ["phase", "--g0", "0.5", "--grid", "101x101", "--range", "-2:2",
             "--snap-special", "-L", "50"], cwd)}
        speedup = {}
        for name, argv in TILES.items():
            ratios = [cli_seconds(argv + ["--threads", "1"], cwd)
                      / cli_seconds(argv + ["--threads", "2"], cwd)
                      for _ in range(3)]
            speedup[name] = statistics.median(ratios)
        out["threads2_speedup"] = speedup
        out["mipr_default_pool_s"] = cli_seconds(TILES["mipr"], cwd,
                                                 pinned=False)
        out["mipr_pinned_s"] = cli_seconds(TILES["mipr"], cwd)
        os.environ.update(PINNED)
        out["dipr_dense_vs_chain_max_gap"] = {
            "snapped": dipr_gap(cwd, True), "unsnapped": dipr_gap(cwd, False)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
