import json
import shlex

import pytest

from nhcreutz.cli import main


def run(tmp_path, argv):
    import os
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
