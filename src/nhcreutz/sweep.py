"""Parameter-grid engines for phase maps, skin-effect maps, and
PBC/OBC spectrum overlays."""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .degeneracy import (DFB_PBC, GENERIC, _defective_flags,
                         classify_point, locus_labels, obc_tol_abs,
                         resolve_structure)
from .dynamics import (_final_mipr_and_support, _require_finite,
                       _step_propagator, _time_grid, initial_state)
from .localization import _dipr_means
from .model import (OBC, PBC, ModelParams, _bond_stack, _chain_pair,
                    build_nhssh, dressed, nhssh_permutation, w_basis)
from .spectral import (_chain_eigenpairs, _chain_intensities,
                       _tridiag_spectrum_from_squares, classify,
                       ladder_spectrum, pbc_bands)

# whole grid rows per stacked chain solve in phase_diagram, up to this
# many chain products: bounded memory at large L, and past about 128
# nodes per call a larger stack solves no faster
BLOCK_PRODUCTS = 2 ** 15

# grid nodes per stacked chain eigensolve in dipr_map, up to this many
# chain-vector entries (2 L^2 a node) and at least one node: the vectors
# and their real intensities stay a few MB at any L
BLOCK_VECTOR_ENTRIES = 2 ** 17


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
    chain pair. M counts |E| <= 1e-9 max|E| as real, except on OBC
    same-sign nodes (obc_tol_abs).

    A block of whole grid rows (fixed gbar) at a time, up to about
    BLOCK_PRODUCTS chain products and at least one row, all on arrays:
    model.dressed gives the bond products u^2, v^2 of every node,
    locus_labels their degeneracy labels, pbc_bands the dispersion, and
    obc_tol_abs and classify label both spectra of the whole block. No
    ModelParams is built. The (B, n, 2, L-1) stack of chain products goes
    to one _tridiag_spectrum_from_squares call: one svd per sign for the
    same-sign chains, the certified SSH roots for the mixed-sign ones,
    and one eigvals call on the halves of the few that fail the
    certificate. If that call raises, the block is solved node by node
    with the same function, so a failure stays at its node. Odd L has no
    chain split: every row's status is ValueError.
    """
    # a bad L raises here, as it did at the first node's ModelParams
    L = ModelParams.from_bars(tbar=spec.tbar, g0=spec.g0, L=spec.L).L
    t0_vals, gbar_vals = grid_axes(spec)
    if L % 2:
        return [GridRow(t0=t0, gbar=gbar, status="ValueError")
                for gbar in gbar_vals for t0 in t0_vals]
    k = 2.0 * np.pi * np.arange(L) / L
    tbar, g0 = spec.tbar, spec.g0
    per_block = max(1, BLOCK_PRODUCTS // (2 * (L - 1) * len(t0_vals)))
    out = []
    for start in range(0, len(gbar_vals), per_block):
        block = gbar_vals[start:start + per_block]
        col = block[:, None]  # gbar
        ep, em = pbc_bands(t0_vals[:, None], g0, tbar, col[..., None],
                           0.0, 0.0, k)  # balanced legs: dt = dg = 0
        pbc_eigs = np.concatenate([ep, em], axis=-1)
        cls_pbc = classify(pbc_eigs,
                           tol_abs=1e-9 * np.abs(pbc_eigs).max(axis=-1))
        _, _, _, _, u2, v2 = dressed(tbar, t0_vals, col, g0)
        labels = locus_labels(tbar, t0_vals, col, g0)
        sq = _chain_pair(v2, u2, L - 1)
        failed = {}
        try:
            obc_eigs = _tridiag_spectrum_from_squares(sq)
        except Exception:  # node by node, so the failure stays at its node
            obc_eigs = np.zeros(u2.shape + (2, L), dtype=complex)
            for node in np.ndindex(u2.shape):
                try:
                    obc_eigs[node] = _tridiag_spectrum_from_squares(sq[node])
                except Exception as exc:  # row-level marker
                    failed[node] = type(exc).__name__
        obc_eigs = obc_eigs.reshape(u2.shape + (2 * L,))
        cls_obc = classify(obc_eigs,
                           tol_abs=obc_tol_abs(labels, u2, v2, obc_eigs))
        fields = zip(cls_pbc.M.tolist(), cls_obc.M.tolist(),
                     cls_obc.label.tolist(), labels.tolist())
        for b, (gbar, row) in enumerate(zip(block, fields)):
            for i, (t0, m_pbc, m_obc, cls, label) in enumerate(
                    zip(t0_vals, *row)):
                out.append(GridRow(t0=t0, gbar=gbar, status=failed[b, i])
                           if (b, i) in failed else
                           GridRow(t0=t0, gbar=gbar, M_pbc=m_pbc, M_obc=m_obc,
                                   class_obc=cls, degeneracy_label=label))
    return out


def _dipr_chains(up, lo, sq):
    """(mean dIPR, defective) arrays of a stack of OBC nodes off the
    closed-form loci from the bonds (..., 2, L-1) of their two chains, in
    one _chain_eigenpairs call: the mean from the chain intensities
    (_dipr_means) and defective from the condition numbers of the
    balanced vectors (_defective_flags), with no vectors X formed. One
    node gives, bit for bit, _mean_dipr_chains on the vectors X of
    _obc_chain_eigs and the defective flag of resolve_structure on its
    chains. A failure anywhere in the stack raises."""
    with np.errstate(all="ignore"):
        _, Yt, d = _chain_eigenpairs(up, lo, sq)
        means = _dipr_means(*_chain_intensities(Yt, d))
    return means, _defective_flags(Yt)


def _locus_row(spec, t0, gbar):
    """The dipr_map row of a node on a locus of closed_form_blocks. There
    H is defective or its eigenvalues are degenerate, so the eigenvector
    average is not a function of H: the mean is None and defective is the
    closed form's (resolve_structure). A failure is the row's status."""
    try:
        params = _node_params(spec, t0, gbar, OBC)
        report = resolve_structure(params, classify_point(params))
        return GridRow(t0=t0, gbar=gbar, defective=report.defective,
                       degeneracy_label=report.label,
                       status=_status_flag(report.label))
    except Exception as exc:  # row-level marker, never abort the grid
        return GridRow(t0=t0, gbar=gbar, status=type(exc).__name__)


def dipr_map(spec):
    """Eigenstate-averaged half-chain IPR difference and a defectiveness
    flag per node. Off the loci the average comes straight from the
    eigenvectors of the two balanced chains, with no ladder Hamiltonian or
    ladder vectors; on the loci it is None, and the status names the
    locus.

    A block of grid nodes at a time, in row order (fixed gbar, then t0),
    up to about BLOCK_VECTOR_ENTRIES chain-vector entries and at least
    one node, so a wide row at large L is split: locus_labels labels the
    block, and model.dressed and _bond_stack lay out the chain bonds of
    its Generic and DFB_PBC nodes, which go to one _dipr_chains call: one
    svd with vectors per sign for the same-sign chains, the closed-form
    SSH vectors at the certified roots of _ssh_squares for the mixed-sign
    ones, and _split_eig on the few chains the certificate refuses (1.7%
    of the mixed-sign chains on the benchmark's dipr tiles). If that call
    raises, its nodes are solved one at a time by the same function, so a
    failure, such as a balancing envelope past the float range
    (Overflow), stays at its node and its name is the row's status. The
    other labels have closed forms (_locus_row), which take the scalar
    classify_point report, lam included. A bad or odd L gives that error
    as every row's status.
    """
    t0_vals, gbar_vals = grid_axes(spec)
    try:
        L = ModelParams.from_bars(tbar=spec.tbar, g0=spec.g0, L=spec.L).L
        if L % 2:
            raise ValueError("chain decomposition needs even L")
    except Exception as exc:  # every node would raise it
        return [GridRow(t0=t0, gbar=gbar, status=type(exc).__name__)
                for gbar in gbar_vals for t0 in t0_vals]
    tbar, g0 = spec.tbar, spec.g0
    # the nodes in row order (gbar outer, t0 inner)
    t0_nodes = np.tile(t0_vals, len(gbar_vals))
    gbar_nodes = np.repeat(gbar_vals, len(t0_vals))
    per_block = max(1, BLOCK_VECTOR_ENTRIES // (2 * L * L))
    out = []
    for start in range(0, len(t0_nodes), per_block):
        t0_b = t0_nodes[start:start + per_block]
        gbar_b = gbar_nodes[start:start + per_block]
        # products past the float range are left to the nodes' own solves
        with np.errstate(all="ignore"):
            labels = locus_labels(tbar, t0_b, gbar_b, g0)
            chain = np.flatnonzero((labels == GENERIC) | (labels == DFB_PBC))
            up, lo, sq = (x[..., :-1] for x in _bond_stack(
                *dressed(tbar, t0_b[chain], gbar_b[chain], g0), L))
        values = {}
        try:
            if len(chain):
                values = dict(zip(chain.tolist(), zip(
                    *(x.tolist() for x in _dipr_chains(up, lo, sq)))))
        except Exception:  # node by node, so the failure stays at its node
            for j, node in enumerate(chain.tolist()):
                try:
                    mean, flag = _dipr_chains(up[j], lo[j], sq[j])
                    values[node] = (float(mean), bool(flag))
                except Exception as exc:  # row-level marker
                    values[node] = type(exc).__name__
        for i, (t0, gbar) in enumerate(zip(t0_b, gbar_b)):
            value = values.get(i)
            if value is None:
                out.append(_locus_row(spec, t0, gbar))
            elif isinstance(value, str):
                out.append(GridRow(t0=t0, gbar=gbar, status=value))
            else:
                label = str(labels[i])
                out.append(GridRow(t0=t0, gbar=gbar, mean_dipr=value[0],
                                   defective=value[1], degeneracy_label=label,
                                   status=_status_flag(label)))
    return out


def mipr_map(spec, t_max=20.0, n_steps=200):
    """Displacement IPR of the evolved center-cell state at t_max per
    node; Overflow is recorded as a row marker. A bad t_max or n_steps
    raises ValueError before any node is computed.

    The state evolves on the two L x L NH-SSH chains of build_nhssh, not
    on the 2L x 2L ladder: in the w basis W the balanced ladder is
    W^+ P (H1 (+) H2) P^T W (P the chain permutation), so one step
    exp(-i dt H) is the two chain exponentials. Odd L and unbalanced legs
    have no chains, and their nodes get the error of build_nhssh.

    One grid row (fixed gbar) at a time: the row's degeneracy labels come
    from one locus_labels call, each node's real (2, L, L) stack of chain
    propagators (chain entries are imaginary) is built on its own, then
    the row's real states advance together, one stacked product per step,
    and the support and the final mIPR are computed on the fly
    (_final_mipr_and_support). A failure stays at its node.
    """
    times = _time_grid(t_max, n_steps)
    t0_vals, gbar_vals = grid_axes(spec)
    L = spec.L
    W = w_basis(L)
    wpsi = (W @ initial_state(L)).real  # leg a: both w amplitudes 1/sqrt 2
    out = []
    for gbar in gbar_vals:
        row_labels = locus_labels(spec.tbar, t0_vals, gbar, spec.g0).tolist()
        U = np.empty((len(t0_vals), 2, L, L))
        built, status, rows = [], {}, {}
        for i, t0 in enumerate(t0_vals):
            try:
                params = _node_params(spec, t0, gbar, spec.boundary)
                chains = np.stack(build_nhssh(params))
                _require_finite(chains)
                U[len(built)] = _step_propagator(chains.imag, times)
                built.append((i, row_labels[i]))
            except Exception as exc:  # row-level marker, never abort the grid
                status[i] = type(exc).__name__
        if built:
            idx, labels = zip(*built)
            # the permutation depends on L alone: any node's params give it
            perm = nhssh_permutation(params)
            z0 = np.tile(wpsi[perm].reshape(2, L), (len(built), 1, 1))
            mipr_final, max_support, dropped = _final_mipr_and_support(
                U[:len(built)], z0, times, W.conj().T[:, perm])
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
    """PBC and OBC spectra side by side for one parameter point, each by
    ladder_spectrum (dense eig only for OBC at imbalanced legs or odd L)."""
    return SpectrumOverlay(pbc=ladder_spectrum(replace(params, boundary=PBC)),
                           obc=ladder_spectrum(replace(params, boundary=OBC)))
