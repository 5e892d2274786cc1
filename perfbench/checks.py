"""Checks of ``nhcreutz`` outputs against computations made here.

Nothing in this module imports ``nhcreutz``. The ladder Hamiltonian, its
Bloch matrices, the degeneracy loci, the localization length and the
wave-packet measure are rebuilt from the model definition (README.md of
the package), so a fault in the program cannot hide in its own reference.

Every check returns a list of problems; an empty list means the output
passed. A problem is a (tag, message) pair; the tag ``jordan`` marks the
one kept failure, a wrong Jordan structure on the exceptional-flat-band
line.
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

TBAR = 1.0
LOCUS_TOL = 1e-12

GENERIC = "Generic"
EL_U, EL_V = "ELu", "ELv"
TRIPLE_POINT = "TriplePoint"
DIABOLICAL_FLAT_BAND = "DiabolicalFlatBand"
EFB_LINE, EFB_INTERSECTION = "EFBLine", "EFBIntersection"
DFB_PBC = "DFB_PBC"
COLLAPSING = (TRIPLE_POINT, EFB_LINE, EFB_INTERSECTION)

# A skin effect counts as strong when the localization length is below a
# tenth of the ladder; there the sign of <dIPR> is not in doubt.
STRONG_SKIN_CELLS = 10.0


# ---------------------------------------------------------------- model

def factors(t0, gbar, g0, tbar=TBAR):
    """The linear factors g = tbar + t0, f = gbar + g0, g' = tbar - t0,
    f' = gbar - g0 of u^2 = g^2 - f^2 and v^2 = g'^2 - f'^2."""
    return tbar + t0, gbar + g0, tbar - t0, gbar - g0


def locus_label(t0, gbar, g0, tbar=TBAR, tol=LOCUS_TOL):
    """Degeneracy locus of a balanced point, decided on the linear
    factors with relative tolerance tol. Precedence: EFB intersection,
    EFB line, triple point, diabolical flat band, ELu, ELv, the PBC
    diabolical line, generic."""
    g, f, gp, fp = factors(t0, gbar, g0, tbar)
    scale = max(abs(tbar), abs(gbar), abs(t0), abs(g0))
    ts = tol * scale

    def zero(x):
        return abs(x) <= ts

    u_zero = zero(g - f) or zero(g + f)
    v_zero = zero(gp - fp) or zero(gp + fp)
    efb = (zero(tbar - g0) and zero(t0 - gbar)) or \
        (zero(tbar + g0) and zero(t0 + gbar))
    eta_unit = zero(t0 - tbar) or zero(t0 + tbar)
    if efb:
        return EFB_INTERSECTION if eta_unit else EFB_LINE
    if u_zero and v_zero:
        return TRIPLE_POINT
    if (zero(gp) and zero(fp)) or (zero(g) and zero(f)):
        return DIABOLICAL_FLAT_BAND
    if u_zero:
        return EL_U
    if v_zero:
        return EL_V
    if eta_unit and abs(t0 * g0 - tbar * gbar) <= ts * scale:
        return DFB_PBC
    return GENERIC


def status_of(label):
    """The sweeps' status column: "ok" off the loci, else the label."""
    return "ok" if label == GENERIC else label


def _hops(t0, gbar, g0, tbar):
    """Cell-to-cell hopping blocks on (a, b): forward j -> j+1 and
    backward j+1 -> j. Legs carry -+i(tbar +- gbar), rungs -(t0 +- g0)."""
    fwd = np.array([[-1j * (tbar + gbar), -(t0 + g0)],
                    [-(t0 + g0), 1j * (tbar + gbar)]])
    bwd = np.array([[1j * (tbar - gbar), -(t0 - g0)],
                    [-(t0 - g0), -1j * (tbar - gbar)]])
    return fwd, bwd


def ladder_obc(t0, gbar, g0, L, tbar=TBAR):
    """Open-boundary 2L x 2L ladder, sites ordered (a_1, b_1, a_2, ...)."""
    fwd, bwd = _hops(t0, gbar, g0, tbar)
    return np.kron(np.eye(L, k=-1), fwd) + np.kron(np.eye(L, k=1), bwd)


def bloch_eigenvalues(t0, gbar, g0, L, tbar=TBAR):
    """PBC spectrum from the 2 x 2 Bloch matrices
    h(k) = fwd e^{-ik} + bwd e^{ik} at k = 2 pi m / L."""
    fwd, bwd = _hops(t0, gbar, g0, tbar)
    k = 2.0 * np.pi * np.arange(L) / L
    h = (fwd[None] * np.exp(-1j * k)[:, None, None]
         + bwd[None] * np.exp(1j * k)[:, None, None])
    return np.linalg.eigvals(h).ravel()


def spectral_measure(eigs):
    """M = mean(|cos arg E| - |sin arg E|), angles of |E| <= 1e-9 max|E|
    taken as 0, and the most M can move when the angles of eigenvalues
    below 1e-6 max|E| are ill-posed (2/n for each)."""
    eigs = np.asarray(eigs, dtype=complex)
    mag = np.abs(eigs)
    theta = np.where(mag <= 1e-9 * mag.max(), 0.0, np.angle(eigs))
    M = float(np.mean(np.abs(np.cos(theta)) - np.abs(np.sin(theta))))
    ill = int(np.sum(mag <= 1e-6 * mag.max()))
    return M, 2.0 * ill / eigs.size


def obc_class_by_signs(t0, gbar, g0, tbar=TBAR):
    """Real when u^2, v^2 > 0, Imaginary when both < 0, else Complex."""
    g, f, gp, fp = factors(t0, gbar, g0, tbar)
    u2, v2 = g * g - f * f, gp * gp - fp * fp
    if u2 > 0 and v2 > 0:
        return "Real"
    if u2 < 0 and v2 < 0:
        return "Imaginary"
    return "Complex"


def mixed_sign_chain_share(t0, gbar, g0, tbar=TBAR):
    """Share of nodes whose chains have bonds of both signs (u^2 v^2 < 0),
    the chains that need a dense complex solve."""
    g, f, gp, fp = factors(np.asarray(t0), np.asarray(gbar), g0, tbar)
    return float(np.mean((g * g - f * f) * (gp * gp - fp * fp) < 0))


def xi_inv(t0, gbar, g0, tbar=TBAR):
    """Inverse localization length 1/2 ln|(f+g)(f'+g') / ((f-g)(f'-g'))|."""
    g, f, gp, fp = factors(t0, gbar, g0, tbar)
    return 0.5 * math.log(abs((f + g) * (fp + gp)) / abs((f - g) * (fp - gp)))


def center_state(L):
    psi = np.zeros(2 * L, dtype=complex)
    psi[2 * ((L + 1) // 2 - 1)] = 1.0
    return psi


def evolve_reference(t0, gbar, g0, L, t_max, tbar=TBAR):
    """exp(-i t_max H) applied to the center-cell a-site state."""
    H = ladder_obc(t0, gbar, g0, L, tbar)
    return scipy.linalg.expm(-1j * t_max * H) @ center_state(L)


def displacement_ipr(psi, L):
    """sum_j w_j (|a_j|^4 + |b_j|^4) of the normalized state with
    w_j = (L/2 - j) / (L/2), j = 1..L."""
    p = np.abs(psi) ** 2
    p4 = (p / p.sum()) ** 2
    w = (L / 2.0 - np.arange(1, L + 1)) / (L / 2.0)
    return float(w @ (p4[0::2] + p4[1::2]))


# -------------------------------------------------------------- outputs

def read_csv(path):
    """Columns and rows of an nhcreutz CSV (after its '# cmd:' line)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# cmd: nhcreutz "):
        raise ValueError(f"{path}: missing '# cmd:' header")
    return lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def _table(path, n_rows):
    columns, rows = read_csv(path)
    out = [dict(zip(columns, r)) for r in rows]
    if len(out) != n_rows or any(len(r) != len(columns) for r in rows):
        raise ValueError(f"{path}: expected {n_rows} rows of "
                         f"{len(columns)} cells")
    return out


def _check_locus(row, t0, gbar, g0, column):
    label = locus_label(t0, gbar, g0)
    want = label if column == "degeneracy" else status_of(label)
    if row[column] != want:
        return [("locus", f"({t0}, {gbar}): {column} {row[column]!r}, "
                          f"expected {want!r}")]
    return []


def check_phase(req, path):
    problems = []
    L = req.L
    for row in _table(path, req.nodes):
        t0, gbar = float(row["t0"]), float(row["gbar"])
        problems += _check_locus(row, t0, gbar, req.g0, "degeneracy")
        if row["status"] != "ok":
            problems.append(("status", f"({t0}, {gbar}): {row['status']}"))
            continue
        label = locus_label(t0, gbar, req.g0)
        cls, m_obc = row["class_obc"], float(row["M_obc"])
        if (cls == "Collapsed") != (label in COLLAPSING):
            problems.append(("class", f"({t0}, {gbar}): {cls} at {label}"))
        if label == GENERIC and cls != obc_class_by_signs(t0, gbar, req.g0):
            problems.append(("class", f"({t0}, {gbar}): {cls}, signs say "
                             f"{obc_class_by_signs(t0, gbar, req.g0)}"))
        # Zero energies count as real in M. An Imaginary spectrum can hold
        # one chain's edge pair below that threshold: M = -1 + 4/(2L).
        allowed = {"Real": (1.0,), "Imaginary": (-1.0, -1.0 + 2.0 / L)}
        if cls in allowed and \
                min(abs(m_obc - m) for m in allowed[cls]) > 1e-9:
            problems.append(("M_obc", f"({t0}, {gbar}): {m_obc} on "
                             f"a {cls} spectrum"))
        M, slack = spectral_measure(bloch_eigenvalues(t0, gbar, req.g0, L))
        if abs(float(row["M_pbc"]) - M) > 1e-9 + slack:
            problems.append(("M_pbc", f"({t0}, {gbar}): {row['M_pbc']}, "
                             f"Bloch gives {M}"))
    return problems


def check_dipr(req, path):
    problems = []
    for row in _table(path, req.nodes):
        t0, gbar = float(row["t0"]), float(row["gbar"])
        problems += _check_locus(row, t0, gbar, req.g0, "status")
        if locus_label(t0, gbar, req.g0) != GENERIC:
            continue
        xi = xi_inv(t0, gbar, req.g0)
        md = float(row["mean_dipr"])
        if abs(xi) * req.L >= STRONG_SKIN_CELLS and \
                np.sign(md) != -np.sign(xi):
            problems.append(("dipr", f"({t0}, {gbar}): <dIPR> {md} with "
                             f"1/xi {xi}"))
    return problems


def check_mipr(req, path):
    problems = []
    for row in _table(path, req.nodes):
        t0, gbar = float(row["t0"]), float(row["gbar"])
        problems += _check_locus(row, t0, gbar, req.g0, "status")
        ref = displacement_ipr(
            evolve_reference(t0, gbar, req.g0, req.L, req.t_max), req.L)
        if abs(float(row["mipr_final"]) - ref) > 1e-9:
            problems.append(("mipr", f"({t0}, {gbar}): {row['mipr_final']}, "
                             f"expm gives {ref}"))
        if not 1 <= int(row["max_support"]) <= req.L:
            problems.append(("support", f"({t0}, {gbar}): "
                             f"{row['max_support']} cells"))
    return problems


def _eigenvalues_match(path, want):
    rows = _table(path, want.size)
    got = np.array([complex(float(r["re_E"]), float(r["im_E"]))
                    for r in rows])
    cost = np.abs(got[:, None] - want[None, :])
    i, j = linear_sum_assignment(cost)
    return float(cost[i, j].max())


def check_point(req, rcs, classify_stdout):
    """The bundle spectrum + classify + evolve at one point. rcs are the
    three exit codes; the files are in the current directory."""
    t0, gbar, g0, L = req.t0, req.gbar, req.g0, req.L
    where = f"(t0, gbar, g0) = ({t0}, {gbar}, {g0})"
    if any(rcs):
        return [("exit", f"{where}: exit codes {rcs}")]
    problems = []
    bloch = bloch_eigenvalues(t0, gbar, g0, L)
    dev = _eigenvalues_match("spectrum_pbc.csv", bloch)
    if dev > 1e-6 * (1.0 + np.abs(bloch).max()):
        problems.append(("spectrum", f"{where}: PBC eigenvalues off the "
                         f"Bloch bands by {dev:.2e}"))
    _table("spectrum_obc.csv", 2 * L)
    report = json.loads(classify_stdout)["degeneracy"]
    label = locus_label(t0, gbar, g0)
    if report["label"] != label:
        problems.append(("locus", f"{where}: classify says "
                         f"{report['label']!r}, expected {label!r}"))
    if label == EFB_LINE:
        # off the intersection (|t0| != tbar) H^2 = 0 and rank H = L:
        # L Jordan blocks of size 2 at zero
        zero = [b["sizes"] for b in report["blocks"]
                if b["eig_re"] == 0.0 and b["eig_im"] == 0.0]
        if zero != [[2] * L]:
            problems.append(("jordan", f"{where}: Jordan blocks at 0 "
                             f"{zero}, expected {L} of size 2"))
    problems += _check_trace(where, t0, gbar, g0, L, req.t_max)
    return problems


def _check_trace(where, t0, gbar, g0, L, t_max):
    columns, rows = read_csv("trace.csv")
    final = [dict(zip(columns, r)) for r in rows[-L:]]
    if len(final) != L or float(final[0]["t"]) != t_max:
        return [("trace", f"{where}: trace does not end at t = {t_max}")]
    psi = evolve_reference(t0, gbar, g0, L, t_max)
    norm = float(np.linalg.norm(psi))
    p = np.abs(psi / norm) ** 2
    got = np.array([[float(r["intensity_a"]), float(r["intensity_b"])]
                    for r in final]).ravel()
    problems = []
    if np.abs(got - p).max() > 1e-8:
        problems.append(("trace", f"{where}: final intensities off expm by "
                         f"{np.abs(got - p).max():.2e}"))
    if abs(float(final[0]["norm"]) - norm) > 1e-8 * norm:
        problems.append(("trace", f"{where}: final norm {final[0]['norm']}, "
                         f"expm gives {norm}"))
    return problems
