"""Closed-loop benchmark of the ``nhcreutz`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One caller sends seeded requests
(see inputs.py) to ``nhcreutz.cli.main`` in this process, waits for each,
checks its output against computations made apart from the program
(checks.py), and stops after the first whole round that ends past S
seconds. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (set-up time, nodes per second, median
request time, peak resident memory); with ``--trace 1`` they are per-layer
figures from spans around the calls into each module (tracing.py), and a
fuller summary goes to ``.perfbench_out/trace-<workload>-<seed>.json``.

BLAS and OpenMP pools are pinned to one thread before numpy loads: under
OpenBLAS's default pool the stepping in ``dynamics`` runs about 4x slower
on a 2-CPU machine and its spread widens.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
WORKLOADS = ("phase_map", "dipr_map", "mipr_map", "point_reports")
COLD_STARTS = 5
IMPORT_PROFILES = 3
KEPT_FAILURE = "jordan"

END_TO_END = {"setup_s": "s", "nodes_per_s": "1/s", "request_s_p50": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectral.obc_spectrum_via_chains.s_per_call": "s",
    "spectral.pbc_dispersion.s_per_call": "s",
    "spectral.classify.s_per_call": "s",
    "spectral.eig.s_per_call": "s",
    "spectral.eig.calls_per_node": "count",
    "degeneracy.defective.s_per_node": "s",
    "localization.mean_dipr.s_per_call": "s",
    "dynamics.propagate.s_per_call": "s",
    "dynamics.propagate.steps_per_s": "1/s",
    "degeneracy.jordan_structure.s_per_call": "s",
    "degeneracy.jordan_structure.calls_per_request": "count",
    "gauge.gauge_report.s_per_call": "s",
    "cli.self_s_per_request": "s",
    "cli.bytes_written_per_request": "B",
    "sweep.self_s_per_node": "s",
    "model.build_realspace.s_per_call": "s",
    "degeneracy.classify_point.s_per_call": "s",
    "cli.alloc_peak_mb_per_request": "MB",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_nhcreutz_s": "s",
    "trace.overhead_s_per_request": "s",
}

READY = ("import sys; sys.path.insert(0, {src!r}); "
         "import nhcreutz.cli; nhcreutz.cli.build_parser()")
IMPORT_SEGMENTS = ("import sys; sys.path.insert(0, {src!r}); "
                   "sys.stderr.write('@@\\n'); import numpy; "
                   "sys.stderr.write('@@\\n'); import scipy.linalg; "
                   "sys.stderr.write('@@\\n'); import nhcreutz.cli")


def _python(code, **kwargs):
    return subprocess.run([sys.executable, *kwargs.pop("flags", ()), "-c",
                           code.format(src=str(SRC))],
                          check=True, timeout=60, **kwargs)


def cold_start_s():
    """Median wall time from a fresh interpreter to a parser ready for
    the first request: imports plus first-call set-up."""
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        _python(READY)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _top_level_s(segment):
    """Seconds of the top-level imports in a piece of -X importtime output,
    whose lines read 'import time: self | cumulative | <indent>name'."""
    total = 0
    for line in segment.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = line.split("|")
            if name.startswith(" ") and not name.startswith("  "):
                total += int(cumulative)
    return total * 1e-6


def import_breakdown():
    """Median seconds to import numpy, then scipy.linalg, then
    nhcreutz.cli, from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORT_PROFILES):
        err = _python(IMPORT_SEGMENTS, flags=("-X", "importtime"),
                      capture_output=True, text=True).stderr
        runs.append([_top_level_s(seg) for seg in err.split("@@\n")[1:]])
    numpy_s, scipy_s, nhc_s = (statistics.median(col) for col in zip(*runs))
    return {"setup.import_numpy_s": numpy_s, "setup.import_scipy_s": scipy_s,
            "setup.import_nhcreutz_s": nhc_s}


class Loop:
    """One caller, one request at a time, outputs checked after each."""

    def __init__(self, cli, checks, tracer=None):
        self.cli, self.checks, self.tracer = cli, checks, tracer
        self.request_s, self.nodes, self.bytes_out = [], 0, 0
        self.mixed_sign_share = []
        self.attempted = self.failed = 0
        self.unexpected = []

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli.main") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        finally:
            if span:
                self.tracer.close(span)
        return rc, out.getvalue()

    def execute(self, req):
        """Run the request's calls; returns (seconds, exit codes, stdout)."""
        start = time.perf_counter()
        results = [self.call(argv) for argv in req.calls]
        elapsed = time.perf_counter() - start
        return elapsed, [rc for rc, _ in results], [o for _, o in results]

    def request(self, req):
        elapsed, rcs, outs = self.execute(req)
        self.request_s.append(elapsed)
        self.nodes += req.nodes
        self.attempted += 1
        self.bytes_out += sum(p.stat().st_size for p in Path().iterdir()) \
            + sum(len(o.encode()) for o in outs)
        problems = self.check(req, rcs, outs)
        if problems:
            self.failed += 1
            self.unexpected += [p for p in problems if p[0] != KEPT_FAILURE]

    def check(self, req, rcs, outs):
        c = self.checks
        try:
            if req.kind == "point":
                return c.check_point(req, rcs, outs[1])
            if rcs != [0]:
                return [("exit", f"{req.calls[0]}: exit code {rcs[0]}")]
            path = req.calls[0][req.calls[0].index("-o") + 1]
            if req.kind == "phase":
                _, rows = c.read_csv(path)
                self.mixed_sign_share.append(c.mixed_sign_chain_share(
                    [float(r[0]) for r in rows], [float(r[1]) for r in rows],
                    req.g0))
                return c.check_phase(req, path)
            if req.kind == "dipr":
                return c.check_dipr(req, path)
            return c.check_mipr(req, path)
        except (ValueError, KeyError, OSError) as exc:
            return [("output", f"{req.calls[-1]}: unreadable output: {exc}")]


def alloc_peak_mb(loop, requests):
    """Median tracemalloc peak of a request, over the given requests, with
    the tracer off; these repeat measured requests and are not counted."""
    import tracemalloc
    peaks = []
    tracer, loop.tracer = loop.tracer, None
    tracemalloc.start()
    try:
        for req in requests:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loop.execute(req)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
        loop.tracer = tracer
    return statistics.median(peaks) / 2 ** 20


def layer_metrics(loop, tracer, alloc_mb, imports, cost_per_span):
    from tracing import summarize
    calls, total, own, steps = summarize(tracer.spans)
    n_req, nodes = loop.attempted, loop.nodes

    def per_call(name):
        return total[name] / calls[name] if calls.get(name) else 0.0

    metrics = {f"{name}.s_per_call": per_call(name) for name in (
        "spectral.obc_spectrum_via_chains", "spectral.pbc_dispersion",
        "spectral.classify", "spectral.eig", "localization.mean_dipr",
        "dynamics.propagate", "degeneracy.jordan_structure",
        "gauge.gauge_report", "model.build_realspace",
        "degeneracy.classify_point")}
    prop_s = total.get("dynamics.propagate", 0.0)
    metrics.update({
        "spectral.eig.calls_per_node": calls.get("spectral.eig", 0) / nodes,
        "degeneracy.defective.s_per_node":
            total.get("degeneracy._defective_from", 0.0) / nodes,
        "dynamics.propagate.steps_per_s": steps / prop_s if prop_s else 0.0,
        "degeneracy.jordan_structure.calls_per_request":
            calls.get("degeneracy.jordan_structure", 0) / n_req,
        "cli.self_s_per_request": own["cli"] / n_req,
        "cli.bytes_written_per_request": loop.bytes_out / n_req,
        "sweep.self_s_per_node": own["sweep"] / nodes,
        "cli.alloc_peak_mb_per_request": alloc_mb,
        "trace.overhead_s_per_request":
            cost_per_span * len(tracer.spans) / n_req,
    })
    metrics.update(imports)
    request_total = sum(loop.request_s)
    summary = {
        "requests": n_req, "nodes": nodes, "request_s_total": request_total,
        "self_share_of_request_time":
            {layer: s / request_total for layer, s in own.items()},
        "calls": calls, "inclusive_s": total, "propagate_steps": steps,
    }
    return metrics, summary


def run(workload, seed, seconds, trace):
    # numpy-dependent modules load here, after main() pinned the pools
    import checks
    import inputs
    import tracing

    import nhcreutz
    import nhcreutz.cli

    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        setup = None if trace else cold_start_s()
        imports = import_breakdown() if trace else None
        tracer = tracing.Tracer() if trace else None
        loop = Loop(nhcreutz.cli, checks, tracer)
        if tracer:
            tracer.install(nhcreutz)
        first_round = None
        start = time.perf_counter()
        for batch in inputs.rounds(workload, seed):
            first_round = first_round or batch
            for req in batch:
                loop.request(req)
            if time.perf_counter() - start >= seconds:
                break
        if tracer:
            tracer.uninstall()
            metrics, summary = layer_metrics(
                loop, tracer, alloc_peak_mb(loop, first_round), imports,
                tracing.wrapper_cost())
            summary["inputs"] = describe_inputs(workload, first_round)
            summary["inputs"]["mixed_sign_chain_share"] = \
                loop.mixed_sign_share
        else:
            metrics = {
                "setup_s": setup,
                "nodes_per_s": loop.nodes / sum(loop.request_s),
                "request_s_p50": statistics.median(loop.request_s),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    if tracer:
        summary["metrics"] = metrics
        (OUT / f"trace-{workload}-{seed}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for tag, message in loop.unexpected[:20]:
        print(f"check failed [{tag}]: {message}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": not loop.unexpected, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def describe_inputs(workload, batch):
    """Make-up of one round: kinds of points, or per-tile arguments."""
    if workload == "point_reports":
        loci = [req.locus for req in batch]
        return {"points": len(loci),
                "locus_points": sum(x != "Generic" for x in loci),
                "efb_line_points": loci.count("EFBLine")}
    return {"tiles": [" ".join(req.calls[0]) for req in batch]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nhcreutz" / "cli.py").is_file():
        print(f"run.py: no nhcreutz sources under {SRC}; run it from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
