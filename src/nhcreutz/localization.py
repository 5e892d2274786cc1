"""Skin-effect diagnostics: half-chain inverse participation ratios."""

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, MissingEigenvectors, ZeroState


class IprSplit(NamedTuple):
    """Left/right half-chain IPR and their difference."""

    lipr: float
    ripr: float
    dipr: float


def _ipr_halves(rows, L):
    """lipr and ripr of each row of rows (..., 2L)."""
    p2 = np.abs(rows) ** 2
    norm2 = p2.sum(axis=-1)
    if not norm2.all():
        raise ZeroState("cannot normalize the zero state")
    p4 = (p2 / norm2[..., None]) ** 2
    # 2 sites per cell, L/2 cells on the left
    return p4[..., :L].sum(axis=-1), p4[..., L:].sum(axis=-1)


def dipr(state, L):
    """Half-chain IPR split of a ladder state (length 2L, cells 1..L).

    lipr sums |psi|^4 over cells j <= L/2, ripr over j > L/2, both
    normalized by <psi|psi>^2; dipr = lipr - ripr. Positive dipr means
    left-localized. A uniform state gives lipr = ripr = 1/(4L).
    """
    psi = np.asarray(state, dtype=complex).ravel()
    if L % 2 != 0:
        raise ValueError("even L required to split the chain in half")
    if psi.size != 2 * L:
        raise DimensionMismatch(f"expected 2L = {2 * L} sites, got {psi.size}")
    lipr, ripr = (float(x) for x in _ipr_halves(psi, L))
    return IprSplit(lipr, ripr, lipr - ripr)


def mean_dipr(spectrum_result, L):
    """Eigenstate-averaged dipr over all right eigenvectors."""
    vecs = spectrum_result.right_eigenvectors
    if vecs is None:
        raise MissingEigenvectors("spectrum was computed without eigenvectors")
    if vecs.shape[0] != 2 * L:
        raise DimensionMismatch(
            f"expected 2L = {2 * L} rows, got {vecs.shape[0]}")
    if L % 2 != 0:
        raise ValueError("even L required to split the chain in half")
    # one C-contiguous row per eigenvector, so that each row is summed in
    # the same pairwise order as dipr sums one vector
    lipr, ripr = _ipr_halves(np.ascontiguousarray(vecs.T, dtype=complex), L)
    return float(np.mean(lipr - ripr))


def _dipr_means(P, total):
    """Mean dIPR per node from chain intensities P (..., chains, modes,
    sites) and their sums per mode total: the eigenstate average of the
    balanced OBC ladder over all chain modes of a node.

    Chain site n = 0..L-1 is one w-orbital of cell L - n, and both ladder
    sites of that cell carry half its intensity. So a chain mode with p_n
    = P_n / total has dipr = (sum of p_n^2 over n >= L/2, the cells
    1..L/2, - sum over n < L/2) / 2. P is overwritten, so no second
    array of its size is formed. Raises ZeroState where a sum is 0 or
    infinite: a zero vector, or one whose norm left the float range.
    """
    if not np.all((total > 0.0) & (total < np.inf)):
        raise ZeroState("cannot normalize the zero state")
    p = P
    p /= total[..., None]
    p *= p
    # halves of a chain row at L/2: sites n < L/2 are the right cells
    half = p.shape[-1] // 2
    dip = p[..., half:].sum(axis=-1) - p[..., :half].sum(axis=-1)
    return np.mean(dip.reshape(dip.shape[:-2] + (-1,)), axis=-1) / 2.0

