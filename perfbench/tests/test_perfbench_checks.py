"""The benchmark's checks accept the program's real output and reject
corrupted copies of it; the tracer's rebinding and self times.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from inputs import Request  # noqa: E402
from reference import chain_mean_dipr  # noqa: E402

import nhcreutz  # noqa: E402
import nhcreutz.cli  # noqa: E402
from nhcreutz import (ModelParams, build_realspace, classify_point,  # noqa: E402
                      eig, mean_dipr)


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nhcreutz.cli.main(list(argv))
    return rc, out.getvalue()


def tile(kind, g0, L, grid, rng="-2.0:2.0", extra=(), t_max=0.0):
    argv = (kind, "--g0", repr(g0), "-L", str(L), "--grid", f"{grid}x{grid}",
            "--range", rng, "--snap-special", "-o", f"{kind}.csv", *extra)
    assert cli(*argv)[0] == 0
    return Request(kind=kind, calls=(argv,), nodes=grid * grid, g0=g0, L=L,
                   t_max=t_max)


def rewrite(path, pick, column, value):
    """Set `column` to value(row) in the first data row for which
    pick(row)."""
    lines = Path(path).read_text().splitlines()
    names = lines[1].split(",")
    for i, line in enumerate(lines[2:], start=2):
        row = dict(zip(names, line.split(",")))
        if pick(row):
            row[column] = value(row)
            lines[i] = ",".join(row[n] for n in names)
            Path(path).write_text("\n".join(lines) + "\n")
            return row
    raise AssertionError("no row to corrupt")


def tags(problems):
    return {tag for tag, _ in problems}


def generic(row, g0):
    return checks.locus_label(float(row["t0"]), float(row["gbar"]), g0) \
        == checks.GENERIC


def test_locus_rule_matches_program_on_seeded_points():
    rng = random.Random(7)
    points = []
    for _ in range(40):
        points += [p[1:] for p in inputs.locus_points(rng)]
        points.append(tuple(round(rng.uniform(-1.5, 1.5), 3)
                            for _ in range(3)))
    points += [(t0, gbar, g0) for g0, t0, gbar in inputs.EFB_FIXED]
    for t0, gbar, g0 in points:
        params = ModelParams.from_bars(t0=t0, gbar=gbar, g0=g0, L=8)
        assert checks.locus_label(t0, gbar, g0) == \
            classify_point(params).label, (t0, gbar, g0)


def test_locus_points_land_on_their_locus():
    rng = random.Random(3)
    for _ in range(50):
        for label, t0, gbar, g0 in inputs.locus_points(rng):
            assert checks.locus_label(t0, gbar, g0) == label


def test_phase_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    req = tile("phase", 0.4, 20, 9)
    assert checks.check_phase(req, "phase.csv") == []

    def real(row):
        return generic(row, 0.4) and row["class_obc"] == "Real"
    rewrite("phase.csv", real, "class_obc", lambda r: "Imaginary")
    assert "class" in tags(checks.check_phase(req, "phase.csv"))

    req = tile("phase", 0.4, 20, 9)
    rewrite("phase.csv", lambda r: r["degeneracy"] == "TriplePoint",
            "class_obc", lambda r: "Real")
    assert "class" in tags(checks.check_phase(req, "phase.csv"))

    req = tile("phase", 0.4, 20, 9)
    rewrite("phase.csv", lambda r: generic(r, 0.4), "M_pbc",
            lambda r: "0.123")
    assert tags(checks.check_phase(req, "phase.csv")) == {"M_pbc"}

    req = tile("phase", 0.4, 20, 9)
    rewrite("phase.csv", lambda r: r["degeneracy"] == "TriplePoint",
            "degeneracy", lambda r: "Generic")
    assert "locus" in tags(checks.check_phase(req, "phase.csv"))


def test_dipr_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    req = tile("dipr", 0.5, 20, 7)
    assert checks.check_dipr(req, "dipr.csv") == []

    def xi_inv(row):
        return checks.xi_inv(float(row["t0"]), float(row["gbar"]), 0.5)

    def strong(row):
        return generic(row, 0.5) and \
            abs(xi_inv(row)) * req.L >= checks.STRONG_SKIN_CELLS
    # the sign of 1/xi itself is the wrong sign for <dIPR>
    rewrite("dipr.csv", strong, "mean_dipr", lambda r: repr(xi_inv(r)))
    assert tags(checks.check_dipr(req, "dipr.csv")) == {"dipr"}

    req = tile("dipr", 0.5, 20, 7)
    rewrite("dipr.csv", lambda r: r["status"] == "ok", "status",
            lambda r: "ELv")
    assert tags(checks.check_dipr(req, "dipr.csv")) == {"locus"}


def test_mipr_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    extra = ("--n-steps", "50", "--t-max", "5.0")
    req = tile("mipr", 0.3, 12, 4, "-1.5:1.5", extra, 5.0)
    assert checks.check_mipr(req, "mipr.csv") == []
    rewrite("mipr.csv", lambda r: True, "mipr_final",
            lambda r: repr(float(r["mipr_final"]) + 1e-6))
    assert tags(checks.check_mipr(req, "mipr.csv")) == {"mipr"}

    req = tile("mipr", 0.3, 12, 4, "-1.5:1.5", extra, 5.0)
    rewrite("mipr.csv", lambda r: True, "max_support",
            lambda r: str(req.L + 1))
    assert tags(checks.check_mipr(req, "mipr.csv")) == {"support"}


def point_bundle(t0, gbar, g0, L=8, t_max=4.0):
    point = ("--t0", repr(t0), "--gbar", repr(gbar), "--g0", repr(g0),
             "-L", str(L))
    calls = (("spectrum", *point, "--boundary", "both", "-o", "spectrum.csv"),
             ("classify", *point),
             ("evolve", *point, "--n-steps", "40", "--t-max", repr(t_max),
              "--self-check", "-o", "trace.csv"))
    results = [cli(*c) for c in calls]
    req = Request(kind="point", calls=calls, nodes=1, g0=g0, L=L,
                  t0=t0, gbar=gbar, t_max=t_max)
    return req, [rc for rc, _ in results], results[1][1]


@pytest.mark.parametrize("t0, gbar, g0", [(0.4, 0.4, 1.0), (0.3, 0.7, 0.4),
                                          (0.5, 1.0, 0.5)])
def test_point_check_accepts_real_output(tmp_path, monkeypatch, t0, gbar, g0):
    monkeypatch.chdir(tmp_path)
    req, rcs, report = point_bundle(t0, gbar, g0)
    assert checks.check_point(req, rcs, report) == []


def test_point_check_rejects_corruptions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    req, rcs, report = point_bundle(0.4, 0.4, 1.0)
    payload = json.loads(report)
    payload["degeneracy"]["blocks"][0]["sizes"] = [1, 1] + [2] * 7
    assert tags(checks.check_point(req, rcs, json.dumps(payload))) \
        == {"jordan"}
    payload["degeneracy"]["label"] = "TriplePoint"
    assert "locus" in tags(checks.check_point(req, rcs, json.dumps(payload)))
    assert tags(checks.check_point(req, [0, 0, 3], report)) == {"exit"}

    final = f"{4.0!r},1,"
    lines = Path("trace.csv").read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(final))
    cells = lines[i].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[i] = ",".join(cells)
    Path("trace.csv").write_text("\n".join(lines) + "\n")
    assert tags(checks.check_point(req, rcs, report)) == {"trace"}

    req, rcs, report = point_bundle(0.3, 0.7, 0.4)
    rewrite("spectrum_pbc.csv", lambda r: True, "re_E", lambda r: "9.0")
    assert tags(checks.check_point(req, rcs, report)) == {"spectrum"}


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    original = nhcreutz.sweep.eig
    tracer = tracing.Tracer()
    tracer.install(nhcreutz)
    try:
        assert nhcreutz.sweep.eig is not original
        span = tracer.open("cli.main")
        cli("dipr", "--g0", "0.5", "-L", "8", "--grid", "3x3",
            "--threads", "2", "-o", "d.csv")
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert nhcreutz.sweep.eig is original
    calls, total, own, _ = tracing.summarize(tracer.spans)
    assert calls["spectral.eig"] == calls["degeneracy._defective_from"] == 9
    sweep = next(s for s in tracer.spans if s.name == "sweep.dipr_map")
    assert all(s.parent is sweep for s in tracer.spans
               if s.name == "spectral.eig")
    assert own["cli"] >= 0.0 and own["sweep"] >= 0.0


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span("sweep.x", None)
    parent.start, parent.end = 0.0, 10.0
    kids = []
    for lo, hi in ((1.0, 4.0), (2.0, 5.0), (8.0, 12.0)):
        kid = tracing.Span("spectral.eig", parent)
        kid.start, kid.end = lo, hi
        kids.append(kid)
    own = tracing.self_times([parent, *kids])
    assert own[id(parent)] == pytest.approx(10.0 - 4.0 - 2.0)


@pytest.mark.parametrize("t0, gbar", [(0.3, 0.7), (-1.2, 0.4), (0.9, -1.6)])
def test_chain_dipr_matches_dense_where_dense_is_accurate(t0, gbar):
    params = ModelParams.from_bars(t0=t0, gbar=gbar, g0=0.5, L=10)
    dense = mean_dipr(eig(build_realspace(params), want_vectors=True), 10)
    assert chain_mean_dipr(t0, gbar, 0.5, 10) == pytest.approx(dense,
                                                               abs=1e-10)
