import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nhcreutz import cli, dynamics, sweep
from nhcreutz.cli import main
from nhcreutz.errors import ConvergenceFailure
from nhcreutz.model import OBC, PBC, ModelParams, build_realspace
from nhcreutz.spectral import eig


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_both_byte_identical_to_loop(self, tmp_path, capsys,
                                                  fmt):
        argv = ["spectrum", *GENERIC_POINT, "--L", "7", "--dt", "0.1",
                "--boundary", "both", "--format", fmt, "-o", f"s.{fmt}"]
        assert run(tmp_path, argv) == 0
        for b in ("pbc", "obc"):
            H = build_realspace(cli._params(
                cli.build_parser()[0].parse_args(argv), b))
            eigs = np.sort_complex(eig(H).eigenvalues)
            rows = [(i, e.real, e.imag) for i, e in enumerate(eigs)]
            assert (tmp_path / f"s_{b}.{fmt}").read_text() == loop_table(
                argv, ("index", "re_E", "im_E"), rows)

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
        classify_point = sweep.classify_point

        def failing(params):  # one node of the tile fails
            if (params.t0, params.g1) == (0.5, -0.5):
                raise ConvergenceFailure("injected")
            return classify_point(params)

        monkeypatch.setattr(sweep, "classify_point", failing)
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


def fresh_process(code, cwd):
    """(exit code, stdout, stderr) of python -c code in a new interpreter
    that imports nhcreutz from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
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
        # only evolve and mipr step a state, through scipy.linalg.expm
        code = (
            "import sys\n"
            "from nhcreutz.cli import main\n"
            "point = ['--t0', '0.8', '--gbar', '0.4', '--g0', '0.5', "
            "'--L', '6']\n"
            "grid = ['--g0', '0.5', '--grid', '3x3', '--range', '-1:1', "
            "'--L', '6']\n"
            "codes = [main(['phase', *grid]), main(['dipr', *grid]), "
            "main(['spectrum', *point, '--boundary', 'both']), "
            "main(['classify', *point])]\n"
            f"print(codes, {SCIPY_LOADED})\n")
        rc, out, err = fresh_process(code, tmp_path)
        # classify prints its report first
        assert (rc, out.splitlines()[-1], err) == (0, "[0, 0, 0, 0] []", "")


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
