import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import multiset_dist
from nhcreutz import (cli, degeneracy, dynamics, localization, model,
                      spectral, svgplot, sweep)
from nhcreutz.cli import main
from nhcreutz.errors import ConvergenceFailure
from nhcreutz.model import OBC, PBC, ModelParams, _chain_bonds, build_realspace
from nhcreutz.spectral import eig, obc_spectrum_via_chains, pbc_dispersion
from test_spectral import charpoly_chain_spectrum


def run(tmp_path, argv):
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(old)


class TestUsageErrors:
    def test_no_subcommand(self, capsys, tmp_path):
        assert run(tmp_path, []) == 2

    def test_help_exits_zero(self, capsys, tmp_path):
        assert run(tmp_path, ["--help"]) == 0
        assert run(tmp_path, ["spectrum", "--help"]) == 0

    def test_missing_required(self, capsys, tmp_path):
        assert run(tmp_path, ["spectrum", "--t0", "1"]) == 2
        assert run(tmp_path, ["phase"]) == 2

    def test_imbalance_rejected_on_analytic(self, capsys, tmp_path):
        argv = ["classify", "--t0", "1", "--gbar", "0.5", "--g0", "0.5",
                "--dt", "0.1"]
        assert run(tmp_path, argv) == 2
        err = capsys.readouterr().err
        assert "balanced" in err

    def test_odd_L_rejected(self, capsys, tmp_path):
        assert run(tmp_path, ["classify", "--t0", "1", "--gbar", "0.5",
                              "--g0", "0.5", "--L", "7"]) == 2

    def test_bad_grid(self, capsys, tmp_path):
        assert run(tmp_path, ["phase", "--g0", "0.5", "--grid", "bogus"]) == 2

    def test_bad_cell(self, capsys, tmp_path):
        assert run(tmp_path, ["evolve", "--t0", "1", "--gbar", "0", "--g0",
                              "0", "--L", "10", "--cell", "11"]) == 2


class TestSpectrumCommand:
    def test_csv_header_and_shape(self, tmp_path, capsys):
        assert run(tmp_path, ["spectrum", "--t0", "0.8", "--gbar", "0.4",
                              "--g0", "0.5", "--L", "6"]) == 0
        text = (tmp_path / "spectrum.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# cmd: nhcreutz spectrum ")
        assert lines[1] == "index,re_E,im_E"
        assert len(lines) == 2 + 12

    def test_both_boundaries_two_files(self, tmp_path, capsys):
        assert run(tmp_path, ["spectrum", "--t0", "0.8", "--gbar", "0.4",
                              "--g0", "0.5", "--L", "6", "--boundary",
                              "both"]) == 0
        assert (tmp_path / "spectrum_pbc.csv").exists()
        assert (tmp_path / "spectrum_obc.csv").exists()

    def test_header_roundtrip_byte_identical(self, tmp_path, capsys):
        argv = ["spectrum", "--t0", "-0.8", "--gbar", "0.4", "--g0", "0.5",
                "--L", "6", "-o", "first.csv"]
        assert run(tmp_path, argv) == 0
        first = (tmp_path / "first.csv").read_text()
        header = first.splitlines()[0][len("# cmd: "):]
        tokens = shlex.split(header)
        assert tokens[0] == "nhcreutz"
        assert run(tmp_path, tokens[1:]) == 0
        assert (tmp_path / "first.csv").read_text() == first

    def test_json_format(self, tmp_path, capsys):
        assert run(tmp_path, ["spectrum", "--t0", "0.8", "--gbar", "0.4",
                              "--g0", "0.5", "--L", "6", "--format",
                              "json"]) == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert set(data) == {"cmd", "config", "columns", "rows"}
        assert data["columns"] == ["index", "re_E", "im_E"]
        assert len(data["rows"]) == 12
        assert data["config"]["t0"] == 0.8

    def test_svg_format(self, tmp_path, capsys):
        assert run(tmp_path, ["spectrum", "--t0", "0.8", "--gbar", "0.4",
                              "--g0", "0.5", "--L", "6", "--boundary",
                              "both", "--format", "svg"]) == 0
        text = (tmp_path / "spectrum.svg").read_text()
        assert text.lstrip().startswith("<svg")
        assert "cmd: nhcreutz spectrum" in text

    def test_obc_matches_60_digit_reference(self, tmp_path, capsys):
        # a same-sign Generic point where dense eig of the ladder is off by
        # 6.1e-2 max|E| (OPENBLAS_NUM_THREADS=1)
        assert run(tmp_path, ["spectrum", "--t0", "-0.511", "--gbar",
                              "0.865", "--g0", "-0.59", "-L", "32"]) == 0
        rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",",
                          skiprows=2)
        p = ModelParams.from_bars(t0=-0.511, gbar=0.865, g0=-0.59, L=32)
        ref = np.concatenate([charpoly_chain_spectrum(sq[:-1])
                              for _, _, sq in _chain_bonds(p)])
        assert multiset_dist(rows[:, 1] + 1j * rows[:, 2], ref) \
            <= 1e-13 * np.abs(ref).max()

    def test_no_dense_route_on_balanced_even_l(self, tmp_path, capsys,
                                               monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        for mod in (cli, degeneracy, dynamics, localization, model, spectral,
                    sweep):
            for name in ("eig", "build_realspace", "mean_dipr"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        point = ["--t0", "0.8", "--gbar", "0.4", "--g0", "0.5", "--L", "8"]
        assert run(tmp_path, ["spectrum", *point, "--boundary", "both"]) == 0
        for boundary in (OBC, PBC):
            classify_report(tmp_path, capsys,
                            [*point, "--boundary", boundary])
        # a snapped dipr tile with loci: their rows carry no average
        tile = ["dipr", "--g0", "0.5", "--grid", "21x21", "--range", "-2:2",
                "--snap-special", "-L", "10"]
        for fmt in ("csv", "json", "svg"):
            assert run(tmp_path, [*tile, "--format", fmt]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "dipr.csv").read_text().splitlines()[2:]]
        loci = [r for r in rows if r[4] != "ok"]
        assert len(rows) == 441 and loci
        assert all(r[2] == "" and r[3] in ("True", "False") for r in loci)
        payload = json.loads((tmp_path / "dipr.json").read_text())
        assert [r[2] is None for r in payload["rows"]] \
            == [r[4] != "ok" for r in rows]
        gray = (tmp_path / "dipr.svg").read_text().count(svgplot._NAN_GRAY)
        assert gray == len(loci)

    @pytest.mark.parametrize("extra, boundary, dense", [
        (["--L", "7"], OBC, 1), (["--L", "7"], PBC, 0),
        (["--L", "8", "--dt", "0.1"], OBC, 1),
        (["--L", "8", "--dgamma", "0.1"], PBC, 0)],
        ids=["odd-obc", "odd-pbc", "dt-obc", "dgamma-pbc"])
    def test_dense_only_without_chain_split(self, tmp_path, capsys,
                                            monkeypatch, extra, boundary,
                                            dense):
        calls = []
        real = spectral.eig
        monkeypatch.setattr(spectral, "eig",
                            lambda H: calls.append(H) or real(H))
        assert run(tmp_path, ["spectrum", *GENERIC_POINT, *extra,
                              "--boundary", boundary]) == 0
        assert len(calls) == dense

    def test_rows_independent_of_blas_threads(self, tmp_path):
        # each point's spectra at L = 50 from fresh processes with one and
        # two OpenBLAS threads: mixed-sign chains, then same-sign chains
        code = ("from nhcreutz.cli import main\n"
                "for i, p in enumerate([('0.5', '0.8', '0.1'), "
                "('-0.511', '0.865', '-0.59')]):\n"
                "    main(['spectrum', '--t0', p[0], '--gbar', p[1], "
                "'--g0', p[2], '-L', '50', '--boundary', 'both', "
                "'-o', f's{i}.csv'])\n")
        rows = {}
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            assert fresh_process(code, cwd, OPENBLAS_NUM_THREADS=threads) \
                == (0, "", "")
            rows[threads] = [(cwd / f"s{i}_{b}.csv").read_text()
                             .split("\n", 1)[1]
                             for i in range(2) for b in (PBC, OBC)]
        assert rows["1"] == rows["2"]


class TestSweepCommands:
    def test_phase_csv(self, tmp_path, capsys):
        assert run(tmp_path, ["phase", "--g0", "0.5", "--grid", "3x4",
                              "--range", "-1:1", "--L", "10"]) == 0
        lines = (tmp_path / "phase.csv").read_text().strip().splitlines()
        assert lines[1] == "t0,gbar,M_pbc,M_obc,class_obc,degeneracy,status"
        assert len(lines) == 2 + 12
        # row-major: first block shares the lowest gbar
        first = lines[2].split(",")
        assert first[0] == "-1.0" and first[1] == "-1.0"
        second = lines[3].split(",")
        assert second[0] == "0.0" and second[1] == "-1.0"

    def test_negative_range_merge(self, tmp_path, capsys):
        assert run(tmp_path, ["dipr", "--g0", "0.5", "--grid", "2x2",
                              "--range", "-0.5:0.5", "--L", "10"]) == 0
        assert (tmp_path / "dipr.csv").exists()

    def test_threads_byte_identical(self, tmp_path, capsys):
        self.test_threads_byte_identical_maps(tmp_path, capsys, "phase")

    @pytest.mark.parametrize("command", ["dipr", "mipr"])
    def test_threads_byte_identical_maps(self, tmp_path, capsys, command):
        base = [command, "--g0", "0.5", "--grid", "4x4", "--range", "-1:1",
                "--L", "10"]
        if command == "mipr":
            base += ["--t-max", "5", "--n-steps", "10"]
        assert run(tmp_path, base + ["-o", "a.csv", "--threads", "1"]) == 0
        assert run(tmp_path, base + ["-o", "b.csv", "--threads", "4"]) == 0
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        # headers differ in -o/--threads; data rows must match exactly
        assert "--threads 4" in b[0]
        assert a[1:] == b[1:]

    def test_mipr_csv(self, tmp_path, capsys):
        assert run(tmp_path, ["mipr", "--g0", "0.5", "--grid", "2x2",
                              "--range", "0.2:0.8", "--L", "10", "--t-max",
                              "5", "--n-steps", "10"]) == 0
        lines = (tmp_path / "mipr.csv").read_text().strip().splitlines()
        assert lines[1] == "t0,gbar,mipr_final,max_support,status"
        assert "--t-max 5.0" in lines[0]

    def test_sweep_svg(self, tmp_path, capsys):
        assert run(tmp_path, ["phase", "--g0", "0.5", "--grid", "3x3",
                              "--range", "-1:1", "--L", "10", "--format",
                              "svg"]) == 0
        text = (tmp_path / "phase.svg").read_text()
        assert text.lstrip().startswith("<svg")
        assert "M_obc" in text


class TestConfigFile:
    def test_config_supplies_required(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# point under study\nt0 = 0.8\ngbar = 0.4\n"
                       "g0 = 0.5\nL = 6\noutput = from_cfg.csv\n")
        assert run(tmp_path, ["spectrum", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_cfg.csv").exists()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0 = 0.8\ngbar = 0.4\ng0 = 0.5\nL = 6\n")
        assert run(tmp_path, ["spectrum", "--config", str(cfg),
                              "--L", "4", "-o", "ov.csv"]) == 0
        text = (tmp_path / "ov.csv").read_text()
        assert "--L 4" in text.splitlines()[0]
        assert len(text.strip().splitlines()) == 2 + 8

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0 = 0.8\nwavelength = 3\n")
        assert run(tmp_path, ["spectrum", "--config", str(cfg)]) == 2

    def test_boolean_and_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g0 = 0.5\nsnap-special = true\ngrid = 3x3\n"
                       "range = -1:1\nL = 10\nformat = json\n")
        assert run(tmp_path, ["phase", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "phase.json").read_text())
        assert data["config"]["snap_special"] is True


class TestClassifyCommand:
    def test_json_payload(self, tmp_path, capsys):
        assert run(tmp_path, ["classify", "--t0", "1", "--gbar", "0.5",
                              "--g0", "0.5", "--L", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"config", "degeneracy", "gauge", "spectral"}
        assert data["degeneracy"]["label"] == "DiabolicalFlatBand"
        assert data["degeneracy"]["defective"] is False
        assert data["spectral"]["label"] == "Real"
        eigs = {round(b["eig_re"], 7) for b in data["degeneracy"]["blocks"]}
        assert round(3 ** 0.5, 7) in eigs

    def test_exceptional_point_blocks(self, tmp_path, capsys):
        assert run(tmp_path, ["classify", "--t0", "0.3", "--gbar", "0.8",
                              "--g0", "0.5", "--L", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degeneracy"]["label"] == "ELu"
        assert data["degeneracy"]["defective"] is True
        sizes = {tuple(b["sizes"]) for b in data["degeneracy"]["blocks"]}
        assert (3, 4) in sizes

    def test_generic_point(self, tmp_path, capsys):
        assert run(tmp_path, ["classify", "--t0", "0.3", "--gbar", "0.2",
                              "--g0", "0.1", "--L", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degeneracy"]["label"] == "Generic"
        assert data["degeneracy"]["blocks"] == []

    # the benchmark's fixed EFB-line points (g0, t0, gbar), |t0| != tbar.
    # H^2 = 0 and rank H = L, but at the last two sigma_L is 1.6e-15 and
    # 2.0e-15 at L = 32, below the numerical certifier's rank cut
    @pytest.mark.parametrize("g0, t0, gbar", [
        (1.0, 0.4, 0.4), (-1.0, -0.3, 0.3), (1.0, -1.2, -1.2),
        (-1.0, 0.8, -0.8)])
    def test_efb_line_blocks(self, tmp_path, capsys, g0, t0, gbar):
        assert run(tmp_path, ["classify", "--t0", str(t0), "--gbar",
                              str(gbar), "--g0", str(g0), "--L", "32"]) == 0
        report = json.loads(capsys.readouterr().out)["degeneracy"]
        assert report["label"] == "EFBLine"
        assert report["blocks"] == [{"eig_re": 0.0, "eig_im": 0.0,
                                     "sizes": [2] * 32}]
        assert report["defective"] is True

    def test_exceptional_line_blocks_at_l32(self, tmp_path, capsys):
        # the numerical certifier reported 21 blocks of size 6 at each of
        # +-lam here (252 sites in a 64-dimensional matrix)
        assert run(tmp_path, ["classify", "--t0", "-1.097", "--gbar",
                              "-0.792", "--g0", "0.695", "--L", "32"]) == 0
        report = json.loads(capsys.readouterr().out)["degeneracy"]
        assert report["label"] == "ELu"
        lam = complex(report["lambda_re"], report["lambda_im"])
        assert [(complex(b["eig_re"], b["eig_im"]), b["sizes"])
                for b in report["blocks"]] == [
            (lam, [15, 16]), (-lam, [15, 16]), (0j, [2])]
        assert report["defective"] is True


# one point per degeneracy label, (label, classify flags)
LABEL_POINTS = [
    ("Generic", ["--t0", "0.3", "--gbar", "0.2", "--g0", "0.1"]),
    ("ELu", ["--t0", "0.3", "--gbar", "0.8", "--g0", "0.5"]),
    ("ELv", ["--t0", "0.3", "--gbar", "1.2", "--g0", "0.5"]),
    ("TriplePoint", ["--t0", "0.5", "--gbar", "1", "--g0", "0.5"]),
    ("DiabolicalFlatBand", ["--t0", "1", "--gbar", "0.5", "--g0", "0.5"]),
    ("EFBLine", ["--t0", "0.7", "--gbar", "0.7", "--g0", "1"]),
    ("EFBIntersection", ["--t0", "1", "--gbar", "1", "--g0", "1"]),
    ("DFB_PBC", ["--t0", "0", "--gbar", "1.2", "--g0", "-0.4", "--tbar",
                 "0"]),
]


def classify_report(tmp_path, capsys, argv):
    assert run(tmp_path, ["classify", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def blocks_of(report):
    return [(complex(b["eig_re"], b["eig_im"]), b["sizes"])
            for b in report["blocks"]]


class TestClassifyStructure:
    """Jordan blocks and defective decided from structure alone."""

    @pytest.mark.parametrize("L", ["8", "50"])
    def test_no_numerical_route(self, tmp_path, capsys, monkeypatch, L):
        def refuse(*args, **kwargs):
            raise AssertionError("numerical route taken")

        for name in ("jordan_structure", "is_defective", "_defective_from"):
            monkeypatch.setattr(degeneracy, name, refuse)
        monkeypatch.setattr(cli, "build_realspace", refuse)
        for label, point in LABEL_POINTS:
            for boundary in (OBC, PBC):
                report = classify_report(
                    tmp_path, capsys,
                    [*point, "-L", L, "--boundary", boundary])["degeneracy"]
                assert report["label"] == label
                if label == "Generic":
                    assert (report["blocks"], report["defective"]) == ([],
                                                                       None)
                else:
                    assert report["defective"] is any(
                        s >= 2 for b in report["blocks"] for s in b["sizes"])

    def test_flat_band_closed_forms_at_l50(self, tmp_path, capsys):
        # the numerical route stopped at dimension 64: no blocks here
        report = classify_report(tmp_path, capsys, [
            "--t0", "1", "--gbar", "0.5", "--g0", "0.5", "-L", "50"])
        deg = report["degeneracy"]
        lam = complex(deg["lambda_re"], deg["lambda_im"])
        assert (deg["label"], deg["defective"]) == ("DiabolicalFlatBand",
                                                    False)
        assert lam == pytest.approx(3 ** 0.5)
        assert blocks_of(deg) == [(lam, [1] * 49), (-lam, [1] * 49),
                                  (0j, [1, 1])]
        deg = classify_report(tmp_path, capsys, [
            "--t0", "1", "--gbar", "1", "--g0", "1", "-L", "50"])["degeneracy"]
        assert (deg["label"], deg["defective"]) == ("EFBIntersection", True)
        assert blocks_of(deg) == [(0j, [1, 1] + [2] * 49)]

    # DFB_PBC on balanced legs: the anti-Hermitian point tbar = t0 = 0 and
    # the sliver beside the diabolical flat band (fp = 2e-12); its blocks
    # count the OBC chain spectrum under either boundary
    @pytest.mark.parametrize("point, L, expected", [
        (["--t0", "0", "--gbar", "1.2", "--g0", "-0.4", "--tbar", "0"], 2,
         [(0.8j, 1), (-0.8j, 1)]),
        (["--t0", "1", "--gbar", repr(1.5 + 2e-12), "--g0", "1.5"], 8,
         [(5 ** 0.5 * 1j, 7), (-(5 ** 0.5) * 1j, 7), (0j, 2)]),
    ])
    @pytest.mark.parametrize("boundary", [OBC, PBC])
    def test_dfb_pbc_blocks(self, tmp_path, capsys, point, L, expected,
                            boundary):
        deg = classify_report(tmp_path, capsys, [
            *point, "-L", str(L), "--boundary", boundary])["degeneracy"]
        assert (deg["label"], deg["defective"]) == ("DFB_PBC", False)
        got = blocks_of(deg)
        assert [sizes for _, sizes in got] == [[1] * n for _, n in expected]
        for (e, _), (ref, _) in zip(got, expected):
            assert e == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("point, L, M", [
        # same-sign Generic nodes with an edge pair below 1e-9 max|E|:
        # the magnitude cut counted it as real and wrote -0.9375
        ((0.134, -1.414, -0.489), 32, -0.9999999999999999),
        ((0.33, -1.462, -0.776), 32, -0.9999999999999999),
        # an ELu point whose u^2 rounds to -2.7e-15: on the locus the pair
        # is the exact zero of the (2,) block and keeps the cut
        ((1.27, 2.9370000000000003, -0.667), 8, -0.7499999999999999),
    ])
    def test_obc_magnitude_cut(self, tmp_path, capsys, point, L, M):
        t0, gbar, g0 = point
        spectral = classify_report(tmp_path, capsys, [
            "--t0", repr(t0), "--gbar", repr(gbar), "--g0", repr(g0),
            "-L", str(L)])["spectral"]
        assert spectral == {"label": "Imaginary", "M": M}


class TestEvolveCommand:
    def test_trace_csv(self, tmp_path, capsys):
        assert run(tmp_path, ["evolve", "--t0", "1", "--gbar", "0.5",
                              "--g0", "0.5", "--L", "6", "--t-max", "2",
                              "--n-steps", "4"]) == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[1] == "t,cell,intensity_a,intensity_b,norm,mipr"
        assert len(lines) == 2 + 5 * 6
        row0 = lines[2].split(",")
        assert float(row0[0]) == 0.0 and int(row0[1]) == 1

    def test_self_check_ok(self, tmp_path, capsys):
        assert run(tmp_path, ["evolve", "--t0", "0.7", "--gbar", "0.7",
                              "--g0", "1", "--L", "10", "--self-check"]) == 0
        assert "self-check: ok" in capsys.readouterr().out

    def test_self_check_generic_point(self, tmp_path, capsys):
        assert run(tmp_path, ["evolve", "--t0", "0.8", "--gbar", "0.4",
                              "--g0", "0.5", "--L", "10", "--t-max", "5",
                              "--n-steps", "20", "--self-check"]) == 0
        assert "self-check: ok" in capsys.readouterr().out

    def test_weights_flag(self, tmp_path, capsys):
        assert run(tmp_path, ["evolve", "--t0", "0.7", "--gbar", "0.7",
                              "--g0", "1", "--L", "10", "--weights",
                              "1,-1j", "--t-max", "2", "--n-steps", "4",
                              "-o", "dark.csv"]) == 0
        lines = (tmp_path / "dark.csv").read_text().strip().splitlines()
        # dark state: norm frozen at 1
        norms = {row.split(",")[4] for row in lines[2:]}
        assert norms == {"1.0"}

    @pytest.mark.parametrize("weights", ["nan,0", "inf,0"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, weights):
        # exit 2 and no file; these used to write nan intensities, exit 0
        rc = run(tmp_path, ["evolve", "--t0", "0.3", "--gbar", "0.2",
                            "--g0", "0.1", "-L", "8", "--weights", weights,
                            "-o", "t.csv"])
        assert rc == 2
        assert "invalid parameters" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_eig_method_fails_at_defective_h(self, tmp_path, capsys):
        # an exceptional flat band has no eigenbasis: exit 3, no nan trace
        rc = run(tmp_path, ["evolve", "--t0", "0.7", "--gbar", "0.7",
                            "--g0", "1.0", "-L", "12", "--method", "eig"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_eig_method_fails_past_condition_one_over_eps(self, tmp_path,
                                                          capsys):
        # eigenvector condition 8.05e16 at L = 32: exit 3, no trace
        rc = run(tmp_path, ["evolve", "--t0", "0.3", "--gbar", "1.2",
                            "--g0", "0.1", "-L", "32", "--method", "eig"])
        assert rc == 3
        assert "eigenvector condition" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        rc = run(tmp_path, ["evolve", "--t0", "0", "--gbar", "4", "--g0",
                            "0", "--L", "10", "--t-max", "400", "--n-steps",
                            "20"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


# The per-cell row writer the CLI used before its columnar one, kept as the
# byte-for-byte reference for every table it writes.
def loop_fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def loop_json_cell(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def loop_table(argv, columns, rows):
    parser, subs = cli.build_parser()
    ns = parser.parse_args(cli._merge_dash_values(argv))
    cli._validate(ns, parser)
    sp = subs[ns.command]
    cmd = cli._resolved_command(ns, sp)
    if ns.format == "json":
        data = {"cmd": cmd, "config": cli._config_dict(ns, sp),
                "columns": list(columns),
                "rows": [[loop_json_cell(v) for v in row] for row in rows]}
        return json.dumps(data, indent=1) + "\n"
    lines = [f"# cmd: {cmd}", ",".join(columns)]
    lines.extend(",".join(loop_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def loop_trace_rows(trace, L):
    rows = []
    for k, t in enumerate(trace.times):
        unit = trace.states[:, k] / trace.norms[k]
        p2 = np.abs(unit) ** 2
        for c in range(L):
            rows.append((float(t), c + 1, float(p2[2 * c]),
                         float(p2[2 * c + 1]), float(trace.norms[k]),
                         float(trace.mipr_series[k])))
    return rows


def loop_self_check(H, trace, ns):
    """The per-time loops of the self-check before it was vectorized."""
    psi0 = trace.states[:, 0]
    s2 = float(np.linalg.norm(H, 2)) ** 2
    h2 = float(np.linalg.norm(H @ H, "fro"))
    if s2 > 0.0 and h2 <= 1e-10 * s2:
        dev = 0.0
        for k, t in enumerate(trace.times):
            expected = psi0 - 1j * t * (H @ psi0)
            dev = max(dev, float(np.linalg.norm(trace.states[:, k] - expected)
                                 / np.linalg.norm(expected)))
        return dev, 1e-10
    ref = dynamics.propagate(H, psi0, ns.t_max, 2 * ns.n_steps,
                             method="expm")
    dev = 0.0
    for k in range(len(trace.times)):
        u1 = trace.states[:, k] / trace.norms[k]
        u2 = ref.states[:, 2 * k] / ref.norms[2 * k]
        dn = abs(trace.norms[k] - ref.norms[2 * k]) / ref.norms[2 * k]
        dev = max(dev, float(np.linalg.norm(u1 - u2)) + dn)
    return dev, 1e-8


GENERIC_POINT = ["--t0", "0.8", "--gbar", "0.4", "--g0", "0.5"]
EFB_POINT = ["--t0", "0.4", "--gbar", "0.4", "--g0", "1.0"]  # H^2 = 0


def recording(monkeypatch, name):
    """Replace cli.<name> by a wrapper that keeps each result it returns."""
    seen = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return seen


class TestColumnarWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("boundary", ["obc", "pbc"])
    @pytest.mark.parametrize("point,method", [(GENERIC_POINT, "eig"),
                                              (GENERIC_POINT, "expm"),
                                              (EFB_POINT, "auto")])
    def test_evolve_byte_identical_to_loop(self, tmp_path, capsys,
                                           monkeypatch, point, method,
                                           boundary, fmt):
        traces = recording(monkeypatch, "propagate")
        argv = ["evolve", *point, "--L", "8", "--t-max", "3", "--n-steps",
                "12", "--method", method, "--boundary", boundary,
                "--format", fmt, "-o", f"trace.{fmt}"]
        assert run(tmp_path, argv) == 0
        text = (tmp_path / f"trace.{fmt}").read_text()
        assert text == loop_table(argv, ("t", "cell", "intensity_a",
                                         "intensity_b", "norm", "mipr"),
                                  loop_trace_rows(traces[0], 8))

    @staticmethod
    def spectrum_both_files(tmp_path, argv, fmt, obc_eigs):
        """Run spectrum --boundary both and compare its files with a loop
        that takes PBC from the dispersion and OBC from obc_eigs(params)."""
        argv = ["spectrum", *argv, "--boundary", "both", "--format", fmt,
                "-o", f"s.{fmt}"]
        assert run(tmp_path, argv) == 0
        ns = cli.build_parser()[0].parse_args(argv)
        for b in ("pbc", "obc"):
            params = cli._params(ns, b)
            if b == "pbc":
                k = 2.0 * np.pi * np.arange(params.L) / params.L
                eigs = np.concatenate(pbc_dispersion(params, k))
            else:
                eigs = obc_eigs(params)
            rows = [(i, e.real, e.imag)
                    for i, e in enumerate(np.sort_complex(eigs))]
            assert (tmp_path / f"s_{b}.{fmt}").read_text() == loop_table(
                argv, ("index", "re_E", "im_E"), rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_both_byte_identical_to_loop(self, tmp_path, capsys,
                                                  fmt):
        # imbalanced legs and odd L: no chain split, dense OBC
        self.spectrum_both_files(
            tmp_path, [*GENERIC_POINT, "--L", "7", "--dt", "0.1"], fmt,
            lambda params: eig(build_realspace(params)).eigenvalues)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_chain_route_byte_identical_to_loop(self, tmp_path,
                                                         capsys, fmt):
        self.spectrum_both_files(
            tmp_path, [*GENERIC_POINT, "--L", "8"], fmt,
            lambda params: np.concatenate(obc_spectrum_via_chains(params)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command,sweep_fn,fields,columns", [
        ("phase", "phase_diagram",
         ("t0", "gbar", "M_pbc", "M_obc", "class_obc", "degeneracy_label",
          "status"),
         ("t0", "gbar", "M_pbc", "M_obc", "class_obc", "degeneracy",
          "status")),
        ("dipr", "dipr_map",
         ("t0", "gbar", "mean_dipr", "defective", "status"), None),
        ("mipr", "mipr_map",
         ("t0", "gbar", "mipr_final", "max_support", "status"), None)])
    def test_sweep_tile_byte_identical_to_loop(self, tmp_path, capsys,
                                               monkeypatch, command,
                                               sweep_fn, fields, columns,
                                               fmt):
        grids = recording(monkeypatch, sweep_fn)
        # one node of the tile fails: in phase and dipr through the chain
        # solve (the stacked call that holds the node's products, then its
        # own call), in mipr through its chains
        if command == "mipr":
            name = "build_nhssh"

            def fails(params):
                return (params.t0, params.g1) == (0.5, -0.5)
        else:
            bad = ModelParams.from_bars(t0=0.5, gbar=-0.5, g0=0.5, L=10)
            bad_sq = np.array([sq[:-1] for _, _, sq in _chain_bonds(bad)])
            name = "_tridiag_spectrum_from_squares" if command == "phase" \
                else "_chain_eigenpairs"

            def fails(*bonds):  # the products come last
                return (bonds[-1] == bad_sq).all(axis=(-2, -1)).any()
        real = getattr(sweep, name)

        def failing(*args):
            if fails(*args):
                raise ConvergenceFailure("injected")
            return real(*args)

        monkeypatch.setattr(sweep, name, failing)
        argv = [command, "--g0", "0.5", "--grid", "4x4", "--range",
                "-1:1", "--L", "10", "--snap-special", "--format", fmt,
                "-o", f"tile.{fmt}"]
        if command == "mipr":
            argv += ["--t-max", "5", "--n-steps", "10"]
        assert run(tmp_path, argv) == 0
        text = (tmp_path / f"tile.{fmt}").read_text()
        rows = [tuple(getattr(r, f) for f in fields) for r in grids[0]]
        assert text == loop_table(argv, columns or fields, rows)
        failed = [r for r in grids[0] if r.status == "ConvergenceFailure"]
        assert [(r.t0, r.gbar) for r in failed] == [(0.5, -0.5)]
        empty = [""] * (len(fields) - 3)
        if fmt == "csv":
            assert ",".join(["0.5", "-0.5", *empty, "ConvergenceFailure"]) \
                in text.splitlines()
        else:
            assert [0.5, -0.5, *[None] * len(empty), "ConvergenceFailure"] \
                in json.loads(text)["rows"]


class TestSelfCheck:
    @pytest.mark.parametrize("boundary", [OBC, PBC])
    @pytest.mark.parametrize("tgg,method", [((0.8, 0.4, 0.5), "eig"),
                                            ((0.8, 0.4, 0.5), "expm"),
                                            ((0.3, 1.1, -0.2), "auto"),
                                            ((0.4, 0.4, 1.0), "auto")])
    def test_deviation_equals_loop_bit_for_bit(self, tgg, method, boundary):
        t0, gbar, g0 = tgg
        H = build_realspace(ModelParams.from_bars(
            tbar=1.0, t0=t0, gbar=gbar, g0=g0, L=10, boundary=boundary))
        ns = SimpleNamespace(t_max=6.0, n_steps=30)
        trace = dynamics.propagate(H, dynamics.initial_state(10), ns.t_max,
                                   ns.n_steps, method=method)
        assert cli._self_check(H, trace, ns) == loop_self_check(H, trace, ns)

    def test_nan_deviation_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.propagate
        calls = []

        def nan_reference(H, psi0, t_max, n_steps, method="auto"):
            trace = real(H, psi0, t_max, n_steps, method=method)
            calls.append(trace)
            if len(calls) == 2:  # the self-check's own propagation
                trace.states[:, 6] = np.nan
            return trace

        monkeypatch.setattr(cli, "propagate", nan_reference)
        argv = ["evolve", *GENERIC_POINT, "--L", "8", "--t-max", "3",
                "--n-steps", "6", "--self-check", "-o", "t.csv"]
        assert run(tmp_path, argv) == 3
        captured = capsys.readouterr()
        assert "self-check: FAIL (max deviation nan > 1e-08)" in captured.err
        assert "ok" not in captured.out
        # the per-time loop let max(0.0, nan) drop the nan and passed
        ns = SimpleNamespace(t_max=3.0, n_steps=6)
        H = build_realspace(ModelParams.from_bars(
            tbar=1.0, t0=0.8, gbar=0.4, g0=0.5, L=8))
        monkeypatch.setattr(dynamics, "propagate", lambda *a, **k: calls[1])
        dev, tol = loop_self_check(H, calls[0], ns)
        assert dev <= tol

    @pytest.mark.parametrize("point", [GENERIC_POINT, EFB_POINT])
    def test_perturbed_trace_fails(self, tmp_path, capsys, monkeypatch,
                                   point):
        real = cli.propagate
        calls = []

        def perturbed(H, psi0, t_max, n_steps, method="auto"):
            trace = real(H, psi0, t_max, n_steps, method=method)
            calls.append(trace)
            if len(calls) == 1:  # the trace under check
                states = trace.states.copy()
                states[3, 5] += 1e-6 * trace.norms[5]
                trace = replace(trace, states=states)
            return trace

        monkeypatch.setattr(cli, "propagate", perturbed)
        argv = ["evolve", *point, "--L", "8", "--t-max", "3", "--n-steps",
                "6", "--self-check", "-o", "t.csv"]
        assert run(tmp_path, argv) == 3
        assert "self-check: FAIL" in capsys.readouterr().err
        assert len(calls) == (2 if point is GENERIC_POINT else 1)


def fresh_process(code, cwd, **env_vars):
    """(exit code, stdout, stderr) of python -c code in a new interpreter
    that imports nhcreutz from this checkout, with env_vars set."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


SCIPY_LOADED = ("sorted(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.'))")


class TestImports:
    def test_cli_import_leaves_out_scipy(self, tmp_path):
        code = f"import sys, nhcreutz.cli; print({SCIPY_LOADED})"
        assert fresh_process(code, tmp_path) == (0, "[]\n", "")

    def test_commands_without_stepping_leave_out_scipy(self, tmp_path):
        # every command, the stepping ones (mipr, evolve --self-check)
        # included: the one-step exponential is plain numpy
        code = (
            "import sys\n"
            "from nhcreutz.cli import main\n"
            "point = ['--t0', '0.8', '--gbar', '0.4', '--g0', '0.5', "
            "'--L', '6']\n"
            "grid = ['--g0', '0.5', '--grid', '3x3', '--range', '-1:1', "
            "'--L', '6']\n"
            "codes = [main(['phase', *grid]), main(['dipr', *grid]), "
            "main(['mipr', *grid, '--n-steps', '10']), "
            "main(['spectrum', *point, '--boundary', 'both']), "
            "main(['classify', *point]), "
            "main(['evolve', *point, '--n-steps', '10', '--self-check'])]\n"
            f"print(codes, {SCIPY_LOADED})\n")
        rc, out, err = fresh_process(code, tmp_path)
        # classify prints its report first
        assert (rc, out.splitlines()[-1], err) == (
            0, "[0, 0, 0, 0, 0, 0] []", "")


class TestSharedParser:
    # a mix of commands, usage errors and a config file whose values must
    # not outlive their own call
    SEQUENCE = [
        ["spectrum", "--t0", "0.8", "--gbar", "0.4", "--g0", "0.5", "--L",
         "6", "--format", "json"],
        ["phase", "--grid", "3x3"],
        ["spectrum", "--config", "run.cfg", "-o", "cfg.json"],
        ["spectrum", "--t0", "0.3", "--gbar", "0.2", "--g0", "0.1",
         "--format", "json", "-o", "after.json"],
        ["classify", "--t0", "1", "--gbar", "0.5", "--g0", "0.5", "--L",
         "7"],
        ["phase", "--g0", "0.5", "--grid", "3x3", "--range", "-1:1", "--L",
         "6", "--snap-special"],
        ["bogus"],
        ["spectrum", "--config", "missing.cfg"],
        ["dipr", "--g0", "0.5", "--grid", "2x2", "--L", "6"],
    ]

    @staticmethod
    def workdir(path):
        path.mkdir()
        (path / "run.cfg").write_text("t0 = 0.8\ngbar = 0.4\ng0 = 0.5\n"
                                      "L = 4\nformat = json\n")
        return path

    @staticmethod
    def outputs(path):
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}

    def test_sequence_matches_fresh_parsers(self, tmp_path, capsys,
                                            monkeypatch):
        # the reference builds a new parser for every call
        shared_dir = self.workdir(tmp_path / "shared")
        fresh_dir = self.workdir(tmp_path / "fresh")
        shared = [(run(shared_dir, argv), *capsys.readouterr())
                  for argv in self.SEQUENCE]
        assert cli._shared_parser() is cli._shared_parser()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [(run(fresh_dir, argv), *capsys.readouterr())
                 for argv in self.SEQUENCE]
        assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0, 2, 0, 2, 2, 0]
        assert shared == fresh
        assert self.outputs(shared_dir) == self.outputs(fresh_dir)
