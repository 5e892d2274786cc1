"""Command-line front end: spectra, parameter sweeps, point classification,
and wave-packet evolution with reproducible file outputs.

Exit codes: 0 success, 2 usage error, 3 numerical failure. Every output
file starts with the fully resolved command so it can be regenerated
byte-identically.
"""

import argparse
import functools
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .degeneracy import classify_point, obc_tol_abs, resolve_structure
from .dynamics import _row_norms, initial_state, propagate
from .errors import NhcreutzError
from .gauge import gauge_report
from .model import OBC, PBC, ModelParams, build_realspace, derive
from .spectral import classify, ladder_spectrum
from .sweep import GridSpec, dipr_map, grid_axes, mipr_map, phase_diagram

PROG = "nhcreutz"
BOTH = "both"

_REQUIRED = {
    "spectrum": ("t0", "gbar", "g0"),
    "classify": ("t0", "gbar", "g0"),
    "evolve": ("t0", "gbar", "g0"),
    "phase": ("g0",),
    "dipr": ("g0",),
    "mipr": ("g0",),
}
_ANALYTIC = ("classify", "phase", "dipr", "mipr")  # balanced legs only
_DEFAULT_OUTPUT = {"spectrum": "spectrum", "phase": "phase", "dipr": "dipr",
                   "mipr": "mipr", "evolve": "trace"}
# flags whose values may start with '-' and confuse argparse
_MERGE_FLAGS = ("--range", "--weights")
_SKIP_DESTS = ("command", "config", "help")


def _parse_grid(text):
    parts = text.lower().split("x")
    try:
        n_t0, n_gbar = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}")
    if n_t0 < 2 or n_gbar < 2:
        raise argparse.ArgumentTypeError("grid sides must be >= 2")
    return (n_t0, n_gbar)


def _parse_range(text):
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range needs LO < HI")
    return (lo, hi)


def _parse_weights(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected WA,WB, got {text!r}")
    try:
        return tuple(complex(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex weights {text!r}")


def _add_point_flags(p):
    p.add_argument("--tbar", type=float, default=1.0,
                   help="mean leg hopping (energy unit, default 1)")
    p.add_argument("--t0", type=float, default=None, help="rung hopping")
    p.add_argument("--gbar", type=float, default=None,
                   help="mean non-reciprocal leg amplitude")
    p.add_argument("--g0", type=float, default=None,
                   help="non-reciprocal rung amplitude")
    p.add_argument("--dt", type=float, default=0.0,
                   help="leg hopping imbalance (t1-t2)/2")
    p.add_argument("--dgamma", type=float, default=0.0,
                   help="leg gain imbalance (gamma1-gamma2)/2")
    p.add_argument("--L", "-L", dest="L", type=int, default=50,
                   help="number of cells")


def _add_sweep_flags(p):
    p.add_argument("--tbar", type=float, default=1.0)
    p.add_argument("--g0", type=float, default=None,
                   help="non-reciprocal rung amplitude")
    p.add_argument("--dt", type=float, default=0.0)
    p.add_argument("--dgamma", type=float, default=0.0)
    p.add_argument("--L", "-L", dest="L", type=int, default=50)
    p.add_argument("--grid", type=_parse_grid, default=(201, 201),
                   help="t0 x gbar node counts, e.g. 201x201")
    p.add_argument("--range", type=_parse_range, default=(-2.0, 2.0),
                   help="axis range LO:HI for both axes")
    p.add_argument("--snap-special", action="store_true",
                   help="move nearest grid lines onto +-g0, +-tbar")
    p.add_argument("--threads", type=int, default=1,
                   help="has no effect; accepted for old command lines")


def _add_output_flags(p, formats):
    p.add_argument("-o", "--output", default=None,
                   help="output path (default <command>.<format>)")
    p.add_argument("--format", choices=list(formats), default="csv")


def _add_tail_flags(p):
    p.add_argument("--config", default=None,
                   help="key=value file with flag names; flags override it")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in output headers; reserved for "
                        "randomized utilities")


def build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Non-Hermitian Creutz ladder: spectra, degeneracy "
                    "classification, skin-effect maps, and dynamics.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    subs = {}

    p = sub.add_parser("spectrum", help="eigenvalues at one parameter point")
    _add_point_flags(p)
    p.add_argument("--boundary", choices=(OBC, PBC, BOTH), default=OBC)
    _add_output_flags(p, ("csv", "json", "svg"))
    _add_tail_flags(p)
    subs["spectrum"] = p

    for name, help_ in (("phase", "M and spectrum class over a grid"),
                        ("dipr", "eigenstate-averaged dIPR over a grid"),
                        ("mipr", "evolved-state mIPR over a grid")):
        p = sub.add_parser(name, help=help_)
        _add_sweep_flags(p)
        if name == "mipr":
            p.add_argument("--boundary", choices=(OBC, PBC), default=OBC)
            p.add_argument("--t-max", type=float, default=20.0)
            p.add_argument("--n-steps", type=int, default=200)
        _add_output_flags(p, ("csv", "json", "svg"))
        _add_tail_flags(p)
        subs[name] = p

    p = sub.add_parser("classify", help="degeneracy/gauge/spectral report")
    _add_point_flags(p)
    p.add_argument("--boundary", choices=(OBC, PBC), default=OBC)
    _add_tail_flags(p)
    subs["classify"] = p

    p = sub.add_parser("evolve", help="wave-packet trace at one point")
    _add_point_flags(p)
    p.add_argument("--boundary", choices=(OBC, PBC), default=OBC)
    p.add_argument("--cell", type=int, default=None,
                   help="1-based start cell (default center)")
    p.add_argument("--weights", type=_parse_weights, default=(1 + 0j, 0j),
                   help="leg amplitudes WA,WB of the start cell")
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--n-steps", type=int, default=200)
    p.add_argument("--method", choices=("auto", "eig", "expm"), default="auto",
                   help="auto, expm: one-step exponential; eig: eigenbasis "
                        "expansion, refused at eigenvector condition 1/eps")
    p.add_argument("--self-check", action="store_true",
                   help="cross-validate the trace against an independent "
                        "reconstruction; nonzero exit on mismatch")
    _add_output_flags(p, ("csv", "json"))
    _add_tail_flags(p)
    subs["evolve"] = p
    return parser, subs


def _merge_dash_values(argv):
    """Join flags with values that start with '-' (e.g. --range -2:2)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _config_flags(path, sp, parser):
    """The key=value lines of a config file as flags of the subparser sp:
    --flag=value, or the bare flag for a true boolean."""
    actions = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in _SKIP_DESTS}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        action = actions.get(key.lstrip("-").replace("-", "_"))
        if action is None:
            parser.error(f"config: unknown key {key!r}")
        flag = max(action.option_strings, key=len)
        if action.nargs != 0:
            flags.append(f"{flag}={val}")
        elif val.lower() in ("1", "true", "yes", "on"):  # store_true flag
            flags.append(flag)
        elif val.lower() not in ("0", "false", "no", "off"):
            parser.error(f"config: bad boolean for {key!r}: {val!r}")
    return flags


def _unparse(dest, value):
    if dest == "grid":
        return f"{value[0]}x{value[1]}"
    if dest == "range":
        return f"{value[0]!r}:{value[1]!r}"
    if dest == "weights":
        return ",".join(repr(c) for c in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolved_command(ns, sp):
    parts = [PROG, ns.command]
    for action in sp._actions:
        if not action.option_strings or action.dest in _SKIP_DESTS:
            continue
        value = getattr(ns, action.dest)
        flag = action.option_strings[0]
        if action.nargs == 0:
            if value:
                parts.append(flag)
        elif value is not None:
            parts.append(flag)
            parts.append(shlex.quote(_unparse(action.dest, value)))
    return " ".join(parts)


def _json_cell(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _config_dict(ns, sp):
    out = {}
    for action in sp._actions:
        if not action.option_strings or action.dest in _SKIP_DESTS:
            continue
        v = getattr(ns, action.dest)
        if isinstance(v, tuple):
            v = [repr(c) if isinstance(c, complex) else c for c in v]
        out[action.dest] = v
    return out


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)  # also bool, int and np.integer


def _cells(col, shape, text):
    """One column's cells as CSV text or JSON values, broadcast to shape and
    flattened. An array is formatted once per entry before broadcasting; a
    list (None, bool or str cells) takes _fmt_cell and _json_cell."""
    if isinstance(col, np.ndarray):
        vals = col.ravel().tolist()
        if text:
            vals = list(map(repr if col.dtype.kind == "f" else str, vals))
    else:
        vals = [(_fmt_cell if text else _json_cell)(v) for v in col]
    cells = np.array(vals, dtype=object).reshape(np.shape(col))
    return np.broadcast_to(cells, shape).ravel().tolist()


def _write_table(ns, sp, path, columns, data):
    """Write the table given column by column: data holds one array or list
    per name in columns, and they broadcast together to the table's rows."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in data))
    text = ns.format != "json"
    rows = zip(*(_cells(c, shape, text) for c in data))
    cmd = _resolved_command(ns, sp)
    if text:
        out = "\n".join([f"# cmd: {cmd}", ",".join(columns),
                         *map(",".join, rows)])
    else:
        out = json.dumps({"cmd": cmd, "config": _config_dict(ns, sp),
                          "columns": list(columns),
                          "rows": [list(r) for r in rows]}, indent=1)
    Path(path).write_text(out + "\n")


def _params(ns, boundary):
    return ModelParams.from_bars(tbar=ns.tbar, t0=ns.t0, gbar=ns.gbar,
                                 g0=ns.g0, dt=ns.dt, dg=ns.dgamma,
                                 L=ns.L, boundary=boundary)


def _grid_spec(ns, boundary=OBC):
    n_t0, n_gbar = ns.grid
    lo, hi = ns.range
    return GridSpec(t0_range=(lo, hi, n_t0), gbar_range=(lo, hi, n_gbar),
                    g0=ns.g0, tbar=ns.tbar, L=ns.L, boundary=boundary,
                    snap_special=ns.snap_special)


def _validate(ns, parser):
    if ns.command is None:
        parser.error("a subcommand is required")
    for dest in _REQUIRED[ns.command]:
        if getattr(ns, dest) is None:
            parser.error(f"--{dest} is required")
    if ns.command in _ANALYTIC and (ns.dt != 0.0 or ns.dgamma != 0.0):
        parser.error(f"{ns.command} works on balanced legs only; "
                     "--dt/--dgamma must stay 0 (use spectrum or evolve "
                     "for imbalanced parameters)")
    if ns.command != "spectrum" and ns.L % 2 != 0:
        parser.error(f"{ns.command} needs an even cell count L")
    if ns.L < 2:
        parser.error("L must be >= 2")
    if ns.command in ("mipr", "evolve"):
        if not ns.t_max > 0.0:
            parser.error("--t-max must be positive")
        if ns.n_steps < 1:
            parser.error("--n-steps must be >= 1")
    if ns.command == "evolve" and ns.cell is not None \
            and not 1 <= ns.cell <= ns.L:
        parser.error(f"--cell must be in 1..{ns.L}")
    if getattr(ns, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
    if hasattr(ns, "output") and ns.output is None:
        ns.output = f"{_DEFAULT_OUTPUT[ns.command]}.{ns.format}"


def cmd_spectrum(ns, sp):
    boundaries = (PBC, OBC) if ns.boundary == BOTH else (ns.boundary,)
    sets = [(b, np.sort_complex(ladder_spectrum(_params(ns, b))))
            for b in boundaries]
    path = Path(ns.output)
    if ns.format == "svg":
        path.write_text(svgplot.scatter(sets, cmd=_resolved_command(ns, sp)))
        return 0
    for b, eigs in sets:
        out = path if len(sets) == 1 else \
            path.with_name(f"{path.stem}_{b}{path.suffix}")
        _write_table(ns, sp, out, ("index", "re_E", "im_E"),
                     (np.arange(len(eigs)), eigs.real, eigs.imag))
    return 0


def _heat_grid(rows, spec, field):
    n_t0 = spec.t0_range[2]
    return [[getattr(r, field) for r in rows[i:i + n_t0]]
            for i in range(0, n_t0 * spec.gbar_range[2], n_t0)]


def _write_sweep(ns, sp, rows, fields, heat_field, columns=None):
    if ns.format == "svg":
        spec = _grid_spec(ns)
        t0_vals, gbar_vals = grid_axes(spec)
        text = svgplot.heatmap(t0_vals, gbar_vals,
                               _heat_grid(rows, spec, heat_field),
                               heat_field, ns.tbar, ns.g0,
                               cmd=_resolved_command(ns, sp))
        Path(ns.output).write_text(text)
        return
    table = [[getattr(r, f) for r in rows] for f in fields]
    _write_table(ns, sp, ns.output, columns or fields, table)


def cmd_phase(ns, sp):
    _write_sweep(ns, sp, phase_diagram(_grid_spec(ns)),
                 ("t0", "gbar", "M_pbc", "M_obc", "class_obc",
                  "degeneracy_label", "status"), "M_obc",
                 columns=("t0", "gbar", "M_pbc", "M_obc", "class_obc",
                          "degeneracy", "status"))
    return 0


def cmd_dipr(ns, sp):
    _write_sweep(ns, sp, dipr_map(_grid_spec(ns)),
                 ("t0", "gbar", "mean_dipr", "defective", "status"),
                 "mean_dipr")
    return 0


def cmd_mipr(ns, sp):
    rows = mipr_map(_grid_spec(ns, boundary=ns.boundary),
                    t_max=ns.t_max, n_steps=ns.n_steps)
    _write_sweep(ns, sp, rows,
                 ("t0", "gbar", "mipr_final", "max_support", "status"),
                 "mipr_final")
    return 0


def cmd_classify(ns, sp):
    params = _params(ns, ns.boundary)
    report = resolve_structure(params, classify_point(params))
    gr = gauge_report(params)
    eigs = ladder_spectrum(params)
    d = derive(params)
    tol = obc_tol_abs(report.label, d.u2, d.v2, eigs) \
        if ns.boundary == OBC else 1e-9 * float(np.abs(eigs).max())
    cls = classify(eigs, tol_abs=tol)
    print(json.dumps({"config": _config_dict(ns, sp),
                      "degeneracy": report.to_dict(), "gauge": gr.to_dict(),
                      "spectral": {"label": cls.label, "M": cls.M}},
                     indent=2))
    return 0


def _self_check(H, trace, ns):
    """Independent reconstruction of the trace: (max deviation, tolerance)."""
    psi0 = trace.states[:, 0]
    s2 = float(np.linalg.norm(H, 2)) ** 2
    h2 = float(np.linalg.norm(H @ H, "fro"))
    if s2 > 0.0 and h2 <= 1e-10 * s2:  # nilpotent of order <= 2: exact form
        expected = psi0[:, None] - 1j * trace.times * (H @ psi0)[:, None]
        dev = _row_norms((trace.states - expected).T) / _row_norms(expected.T)
        return float(dev.max()), 1e-10
    ref = propagate(H, psi0, ns.t_max, 2 * ns.n_steps, method="expm")
    rn = ref.norms[::2]
    du = _row_norms((trace.states / trace.norms - ref.states[:, ::2] / rn).T)
    return float((du + np.abs(trace.norms - rn) / rn).max()), 1e-8


def cmd_evolve(ns, sp):
    params = _params(ns, ns.boundary)
    H = build_realspace(params)
    psi0 = initial_state(ns.L, cell=ns.cell, weights=ns.weights)
    trace = propagate(H, psi0, ns.t_max, ns.n_steps, method=ns.method)
    rc = 0
    if ns.self_check:
        dev, tol = _self_check(H, trace, ns)
        if dev <= tol:  # False when any deviation is nan (max keeps it)
            print(f"self-check: ok (max deviation {dev:.3e})")
        else:
            print(f"self-check: FAIL (max deviation {dev:.3e} > {tol:.0e})",
                  file=sys.stderr)
            rc = 3
    p2 = np.abs(trace.states / trace.norms) ** 2
    _write_table(ns, sp, ns.output,
                 ("t", "cell", "intensity_a", "intensity_b", "norm", "mipr"),
                 (trace.times[:, None], np.arange(1, ns.L + 1), p2[0::2].T,
                  p2[1::2].T, trace.norms[:, None],
                  trace.mipr_series[:, None]))
    return rc


_DISPATCH = {"spectrum": cmd_spectrum, "phase": cmd_phase, "dipr": cmd_dipr,
             "mipr": cmd_mipr, "classify": cmd_classify, "evolve": cmd_evolve}


# parsing leaves a parser as it was, so one serves every call of main
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    argv = _merge_dash_values(argv)
    parser, subs = _shared_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command and ns.config:
            # the file's flags go ahead of the command line's, which win
            at = argv.index(ns.command) + 1
            argv[at:at] = _config_flags(ns.config, subs[ns.command], parser)
            ns = parser.parse_args(argv)
        _validate(ns, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns, subs[ns.command])
    except (NhcreutzError, np.linalg.LinAlgError) as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{PROG}: invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
