"""Parameter-grid engines for phase maps, skin-effect maps, and
PBC/OBC spectrum overlays."""

import contextlib
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .degeneracy import GENERIC, _defective_from, classify_point
from .dynamics import (_evolution_inputs, _final_mipr_and_support,
                       _step_propagator, initial_state)
from .errors import Overflow
from .localization import mean_dipr
from .model import OBC, PBC, ModelParams, build_realspace, derive
from .spectral import (classify, eig, obc_eig_via_chains,
                       obc_spectrum_via_chains, pbc_dispersion)

CHAIN_RESIDUAL_GATE = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (t0, gbar) grid at fixed g0, tbar.

    Ranges are (min, max, n_points). With snap_special the nearest grid
    line is moved onto each of t0, gbar in {+-g0, +-tbar} that falls in
    range, so analytic degeneracy loci are sampled exactly.
    """

    t0_range: tuple
    gbar_range: tuple
    g0: float
    tbar: float = 1.0
    L: int = 50
    boundary: str = OBC
    snap_special: bool = False

    def __post_init__(self):
        for rng in (self.t0_range, self.gbar_range):
            lo, hi, n = rng
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad grid range {rng}")
            if not (isinstance(n, (int, np.integer)) and n >= 2):
                raise ValueError("n_points must be an integer >= 2")
        if self.boundary not in (OBC, PBC):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not (math.isfinite(self.g0) and math.isfinite(self.tbar)):
            raise ValueError("g0 and tbar must be finite")


@dataclass(frozen=True)
class GridRow:
    """One grid node; sweeps populate the fields they compute and record
    per-node failures in status instead of aborting."""

    t0: float
    gbar: float
    M_pbc: Optional[float] = None
    M_obc: Optional[float] = None
    class_obc: Optional[str] = None
    mean_dipr: Optional[float] = None
    mipr_final: Optional[float] = None
    max_support: Optional[int] = None
    degeneracy_label: Optional[str] = None
    defective: Optional[bool] = None
    status: str = "ok"


def _snap_axis(values, specials):
    out = values.copy()
    for s in sorted(set(specials)):
        if out[0] <= s <= out[-1]:
            out[int(np.argmin(np.abs(out - s)))] = s
    return out


def grid_axes(spec):
    """t0 and gbar axis values, snapped when requested."""
    t0 = np.linspace(*spec.t0_range[:2], spec.t0_range[2])
    gbar = np.linspace(*spec.gbar_range[:2], spec.gbar_range[2])
    if spec.snap_special:
        specials = (spec.g0, -spec.g0, spec.tbar, -spec.tbar)
        t0 = _snap_axis(t0, specials)
        gbar = _snap_axis(gbar, specials)
    return t0, gbar


def _node_params(spec, t0, gbar, boundary):
    return ModelParams.from_bars(tbar=spec.tbar, t0=t0, gbar=gbar,
                                 g0=spec.g0, L=spec.L, boundary=boundary)


def _status_flag(label):
    # degeneracy loci are flagged in maps that lack a degeneracy column
    return "ok" if label == GENERIC else label


def phase_diagram(spec):
    """Spectral-density measure M and spectrum class on the grid; PBC from
    the closed-form dispersion on k_m = 2 pi m / L, OBC from the reduced
    chain pair.

    One grid row (fixed gbar) at a time: the dispersion, M and the class
    labels are computed for the whole row at once, the chain spectra and
    the degeneracy label node by node, so a failure stays at its node.
    """
    t0_vals, gbar_vals = grid_axes(spec)
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    out = []
    for gbar in gbar_vals:
        nodes = [_node_params(spec, t0, gbar, PBC) for t0 in t0_vals]
        ep, em = pbc_dispersion(nodes, k)
        pbc_eigs = np.concatenate([ep, em], axis=-1)
        cls_pbc = classify(pbc_eigs,
                           tol_abs=1e-9 * np.abs(pbc_eigs).max(axis=-1))
        obc_eigs = np.zeros((len(nodes), 2 * spec.L), dtype=complex)
        labels, failed = [], {}
        for i, params in enumerate(nodes):
            try:
                obc_eigs[i] = np.concatenate(
                    obc_spectrum_via_chains(replace(params, boundary=OBC)))
                labels.append(classify_point(params).label)
            except Exception as exc:  # row-level marker, never abort the grid
                failed[i] = type(exc).__name__
                labels.append(None)
        cls_obc = classify(obc_eigs,
                           tol_abs=1e-9 * np.abs(obc_eigs).max(axis=-1))
        for i, t0 in enumerate(t0_vals):
            if i in failed:
                out.append(GridRow(t0=t0, gbar=gbar, status=failed[i]))
                continue
            out.append(GridRow(t0=t0, gbar=gbar, M_pbc=float(cls_pbc.M[i]),
                               M_obc=float(cls_obc.M[i]),
                               class_obc=str(cls_obc.label[i]),
                               degeneracy_label=labels[i]))
    return out


def _diagonalizable(params, label):
    """True at Generic nodes where u^2 v^2 > 0: each chain is then similar
    to an unreduced real or imaginary symmetric tridiagonal, whose
    eigenvalues are distinct, so no numerical test is needed."""
    d = derive(params)
    return label == GENERIC and d.u2 * d.v2 > 0.0


def _node_eig(params, label):
    """OBC eigenpairs: from the balanced chains at Generic nodes where the
    chain solve succeeds with residual <= CHAIN_RESIDUAL_GATE max|E|, from
    dense eig on the loci (no balancing exists) and next to them."""
    if label == GENERIC:
        with contextlib.suppress(Overflow, np.linalg.LinAlgError), \
                np.errstate(all="ignore"):
            res = obc_eig_via_chains(params)
            if res.residual_max <= \
                    CHAIN_RESIDUAL_GATE * np.abs(res.eigenvalues).max():
                return res
    return eig(build_realspace(params), want_vectors=True)


def dipr_map(spec):
    """Eigenstate-averaged half-chain IPR difference (eigenpairs from
    _node_eig) and a defectiveness flag, False where the chain structure
    proves the node diagonalizable; node by node, failures stay there."""
    t0_vals, gbar_vals = grid_axes(spec)
    out = []
    for gbar in gbar_vals:
        for t0 in t0_vals:
            try:
                params = _node_params(spec, t0, gbar, OBC)
                label = classify_point(params).label
                res = _node_eig(params, label)
                dfc = not _diagonalizable(params, label) and _defective_from(
                    res.eigenvalues, res.right_eigenvectors, 1e-6)
                out.append(GridRow(t0=t0, gbar=gbar,
                                   mean_dipr=mean_dipr(res, spec.L),
                                   defective=dfc, degeneracy_label=label,
                                   status=_status_flag(label)))
            except Exception as exc:  # row-level marker, never abort the grid
                out.append(GridRow(t0=t0, gbar=gbar,
                                   status=type(exc).__name__))
    return out


def mipr_map(spec, t_max=20.0, n_steps=200):
    """Displacement IPR of the evolved center-cell state at t_max per
    node; Overflow is recorded as a row marker.

    One grid row (fixed gbar) at a time: each node's one-step propagator
    is built on its own, then the row's states advance together, one
    stacked product per step, and the cell support and the final mIPR are
    computed on the fly. A failure stays at its node.
    """
    t0_vals, gbar_vals = grid_axes(spec)
    dim = 2 * spec.L
    out = []
    for gbar in gbar_vals:
        U = np.empty((len(t0_vals), dim, dim), dtype=complex)
        built, status, rows = [], {}, {}
        for i, t0 in enumerate(t0_vals):
            try:
                params = _node_params(spec, t0, gbar, spec.boundary)
                H, psi0, times = _evolution_inputs(
                    build_realspace(params), initial_state(spec.L),
                    t_max, n_steps, "expm")
                U[len(built)] = _step_propagator(H, times)
                built.append((i, psi0, classify_point(params).label))
            except Exception as exc:  # row-level marker, never abort the grid
                status[i] = type(exc).__name__
        if built:
            idx, psi, labels = zip(*built)
            mipr_final, max_support, dropped = _final_mipr_and_support(
                U[:len(built)], np.array(psi), times, spec.L)
            for j, i in enumerate(idx):
                if j in dropped:
                    status[i] = type(dropped[j]).__name__
                    continue
                rows[i] = GridRow(t0=t0_vals[i], gbar=gbar,
                                  mipr_final=float(mipr_final[j]),
                                  max_support=int(max_support[j]),
                                  degeneracy_label=labels[j],
                                  status=_status_flag(labels[j]))
        out += [rows[i] if i in rows else
                GridRow(t0=t0, gbar=gbar, status=status[i])
                for i, t0 in enumerate(t0_vals)]
    return out


class SpectrumOverlay(NamedTuple):
    """PBC and OBC eigenvalues of the same parameter set."""

    pbc: np.ndarray
    obc: np.ndarray


def spectrum_overlay(params):
    """Dense PBC and OBC spectra side by side for one parameter point."""
    pbc = eig(build_realspace(replace(params, boundary=PBC))).eigenvalues
    obc = eig(build_realspace(replace(params, boundary=OBC))).eigenvalues
    return SpectrumOverlay(pbc=pbc, obc=obc)
