"""Second-order perturbative correction evaluated from measured RDMs.

The numerators are the real parts of commutator expectations
<[a+_i a_a, H]> and <[a+_i a+_j a_b a_a, H]> expressed through the 1-/2-RDM
(plus a reducible 3-RDM reconstruction when more than two electrons are
present); the denominators use transformed orbital energies obtained from the
same RDMs.  On a determinant RDM everything collapses to textbook MP2.

Everything here is array code over the occupied/virtual blocks of the
reference: the numerators and transformed energies are block contractions,
the denominators are broadcast sums, one comparison per excitation rank finds
a degenerate channel, and ``math.fsum`` adds the kept terms, so the sum does
not depend on their order.  The scalar (per-element, loop) forms these were
derived from are kept in the tests as oracles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from .hamio import IntegralTable, ReferenceDeterminant, ActiveSpaceSpec, ValidationError
from .rdm import RdmPair

log = logging.getLogger(__name__)

DENOMINATOR_FLOOR = 1e-8


class DegenerateDenominatorError(ArithmeticError):
    def __init__(self, orbitals, value):
        self.orbitals = tuple(orbitals)
        self.value = float(value)
        super().__init__(
            f"energy denominator {value:.3e} Ha for orbital tuple {orbitals} "
            "is below the degeneracy floor; a perturbative correction is unreliable here")


def _check_pt2_input(rdm: RdmPair):
    if rdm.meta.provenance not in ("purified", "exact"):
        raise ValidationError(
            "perturbative corrections require a purified (or exact-oracle) RDM; "
            f"got provenance {rdm.meta.provenance!r}")


def _index(idx):
    """``idx`` as a slice when it is one ascending run of spin orbitals (as
    both sets of an aufbau reference are), so blocks cut with it are views
    rather than copies; otherwise as a list."""
    idx = list(idx)
    if idx and idx == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return idx


def _wedge(a, b) -> np.ndarray:
    """(a ^ b)_pqrs = a_pr b_qs - a_ps b_qr."""
    return a[:, None, :, None] * b[None, :, None, :] - a[:, None, None, :] * b[None, :, :, None]


# ---------------------------------------------------------------------------
# Transformed matrix elements (numerators)
# ---------------------------------------------------------------------------

def _fbar_matrix(rdm: RdmPair, table: IntegralTable, occ, virt) -> np.ndarray:
    """All Re <[a+_i a_a, H]> at once, shape (occ, virt)."""
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    occ, virt = _index(occ), _index(virt)
    one = (h[virt] @ r1[:, occ]).T - h[occ] @ r1[:, virt]
    # sum_mvw g_amvw rho_vwim  and  sum_mvw g_imvw rho_vwam
    up = np.tensordot(g[virt], r2[:, :, occ], axes=([1, 2, 3], [3, 0, 1]))
    down = np.tensordot(g[occ], r2[:, :, virt], axes=([1, 2, 3], [3, 0, 1]))
    return one + 0.5 * (up.T - down)


def _gammabar_tensor(rdm: RdmPair, table: IntegralTable, occ, virt,
                     include_3rdm=None) -> np.ndarray:
    """All Re <[a+_i a+_j a_b a_a, H]> at once, shape (occ, occ, virt, virt).

    The 3-RDM contractions vanish identically for 2-electron states and are
    skipped there unless ``include_3rdm`` forces them.
    """
    h, g = table.h, table.g
    r2 = rdm.rho2
    o, v, n = len(occ), len(virt), table.n_so
    if include_3rdm is None:
        include_3rdm = rdm.meta.n_electrons > 2
    three = _gamma_3rdm_terms(rdm, table, occ, virt) if include_3rdm else None
    occ, virt = _index(occ), _index(virt)
    r2_oo = r2[occ][:, occ]                           # (i, j, m, n)
    r2_vv = r2[:, :, virt][:, :, :, virt]             # (m, n, a, b)
    one = (h[occ] @ r2_vv[:, occ].reshape(n, -1)).reshape(o, o, v, v)
    one = one - one.transpose(1, 0, 2, 3)
    two = h[virt] @ r2_oo[:, :, :, virt]
    two = two - two.transpose(0, 1, 3, 2)
    gpart = 0.5 * (g[occ][:, occ].reshape(o * o, -1) @ r2_vv.reshape(-1, v * v)
                   - r2_oo.reshape(o * o, -1) @ g[:, :, virt][:, :, :, virt].reshape(-1, v * v))
    bracket = one - two + gpart.reshape(o, o, v, v)
    if include_3rdm:
        bracket = bracket + three
    return -bracket


def _gamma_3rdm_terms(rdm: RdmPair, table: IntegralTable, occ, virt) -> np.ndarray:
    """The two three-body contractions of the bracket,
    -1/2 A_ij sum_mnv g_ivmn rho_mnj,abv + 1/2 A_ab sum_mnv g_mnav rho_ijv,bmn,
    through the cumulant-truncated reconstruction (Mazziotti, Phys. Rev. A 57,
    4219, 1998) without materializing a six-index tensor.

    The reconstruction det3(rho1) + A(lambda ^ rho1), lambda = rho2 - rho1 ^ rho1,
    equals A(rho2 ^ rho1) - 2 det3(rho1), because the nine-term antisymmetrizer
    A counts each of the six products of det3 three times in
    A((rho1 ^ rho1) ^ rho1).  Against g, antisymmetric in its index pairs, the
    nine pair/single splits and the six det3 products coincide in pairs, and
    every term factors through a few rho1-contracted intermediates: the mean
    field F_pq = sum_st g_psqt rho_ts, G_ijmn = sum_v g_ivmn rho_jv,
    H_ivna = sum_m g_ivnm rho_ma, K_mnab = sum_v g_mnav rho_vb and
    R_miav = sum_n g_mnav rho_in.  The det3 products that share a
    contraction with a rho2 term fold into M = rho2 - 2 rho1 ^ rho1.
    """
    g = table.g
    r1, r2 = rdm.rho1, rdm.rho2
    o, v, n = len(occ), len(virt), table.n_so
    occ, virt = _index(occ), _index(virt)
    g_o = g[occ]                   # g_ivmn
    g_v = g[:, :, virt]            # g_mnav
    r1_o, r1_v = r1[occ], r1[:, virt]
    r1_ov = r1_o[:, virt]
    fock = np.tensordot(g, r1, axes=([1, 3], [1, 0]))
    f_o, f_v = fock[occ], fock[:, virt]

    # occupied side: sum_mnv g_ivmn rho_mnj,abv
    gr = (r1_o @ g_o.reshape(o, n, n * n)).reshape(o * o, n * n)             # G_ij,mn
    m_vv = r2[:, :, virt][:, :, :, virt] - 2 * _wedge(r1_v, r1_v)
    pair_a = (gr @ m_vv.reshape(n * n, v * v)).reshape(o, o, v, v)
    y = np.tensordot(g_o, r2[:, :, :, virt], axes=([1, 2, 3], [2, 0, 1]))     # (i, b)
    x = 0.5 * y + 2 * (f_o @ r1_v)
    xr = x[:, None, :, None] * r1_ov[None, :, None, :]
    hv = g_o @ r1_v                                                           # H_ivna
    t5 = np.tensordot(hv, r2[occ][:, :, :, virt], axes=([1, 2], [2, 1])).transpose(0, 2, 1, 3)
    t4 = (f_o @ r2[occ][:, :, virt][:, :, :, virt].reshape(o, n, v * v)).reshape(o, o, v, v)
    ta = (0.5 * pair_a + xr - xr.transpose(0, 1, 3, 2) + t4.transpose(1, 0, 2, 3)
          - t5 + t5.transpose(0, 1, 3, 2))

    # virtual side: sum_mnv g_mnav rho_ijv,bmn
    k = (g_v @ r1_v).reshape(n * n, v * v)                                    # K_mn,ab
    m_oo = r2[occ][:, occ] - 2 * _wedge(r1_o, r1_o)
    pair_b = (m_oo.reshape(o * o, n * n) @ k).reshape(o, o, v, v)
    b1 = r2[occ][:, occ][:, :, virt] @ f_v                                    # (i, j, b, a)
    rv = r1_o @ g_v.reshape(n, n, v * n)                                      # R_mi,av
    b4 = np.tensordot(rv.reshape(n, o, v, n), r2[:, occ][:, :, virt],
                      axes=([0, 3], [3, 0])).transpose(0, 2, 1, 3)
    s = np.tensordot(g_v, r2[:, occ], axes=([0, 1, 3], [3, 2, 0]))           # (a, j)
    w = 0.5 * s.T - 2 * (r1_o @ f_v)
    b45 = -b4 + r1_ov[:, None, None, :] * w[None, :, :, None]
    tb = 0.5 * pair_b + b1.transpose(0, 1, 3, 2) + b45 - b45.transpose(1, 0, 2, 3)

    ta = ta - ta.transpose(1, 0, 2, 3)
    tb = tb - tb.transpose(0, 1, 3, 2)
    return -ta + tb


# ---------------------------------------------------------------------------
# Transformed orbital energies (denominators)
# ---------------------------------------------------------------------------

def transformed_energies(rdm: RdmPair, table: IntegralTable,
                         ref: ReferenceDeterminant):
    """Per-orbital energies dressed by the off-diagonal RDM blocks.

    Correlation pushes occupied levels down and virtual levels up, widening
    the denominators (this is what keeps stretched-bond corrections from
    overbinding); on a determinant RDM both formulas collapse to the bare
    Fock diagonal.  Returns (eps_occ, eps_virt), arrays ordered like
    ``ref.occupied`` and ``ref.virtual``.
    """
    _check_pt2_input(rdm)
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    occ, virt = _index(ref.occupied), _index(ref.virtual)
    bare = h.diagonal() + np.einsum("pjpj->pj", g)[:, occ].sum(axis=1)
    g_oovv = g[occ][:, occ][:, :, virt][:, :, :, virt]
    g_vvoo = g[virt][:, virt][:, :, occ][:, :, :, occ]
    r2_oovv = r2[occ][:, occ][:, :, virt][:, :, :, virt]
    r2_vvoo = r2[virt][:, virt][:, :, occ][:, :, :, occ]
    eps_occ = (bare[occ] + (h[occ][:, virt] * r1[virt][:, occ].T).sum(axis=1)
               + 0.5 * (g_oovv * r2_vvoo.transpose(2, 3, 0, 1)).sum(axis=(1, 2, 3)))
    eps_virt = (bare[virt] - (h[virt][:, occ] * r1[occ][:, virt].T).sum(axis=1)
                - 0.5 * (g_vvoo * r2_oovv.transpose(2, 3, 0, 1)).sum(axis=(1, 2, 3)))
    return eps_occ, eps_virt


# ---------------------------------------------------------------------------
# The second-order energy
# ---------------------------------------------------------------------------

def _second_order_sum(eps_occ, eps_virt, fmat, gten, occ, virt, internal=None) -> float:
    """fsum of fmat_ia^2 / (e_i - e_a) + 1/4 gten_ijab^2 / (e_i + e_j - e_a - e_b).

    ``internal`` (the active spin orbitals, or None) drops every channel
    whose indices all lie in it.  A kept denominator below the floor raises
    DegenerateDenominatorError naming the first such channel in (i, a),
    then (i, j, a, b), order.
    """
    d1 = eps_occ[:, None] - eps_virt
    d2 = eps_occ[:, None, None, None] + eps_occ[:, None, None] - eps_virt[:, None] - eps_virt
    nums = (fmat ** 2, 0.25 * gten ** 2)
    roles = ((occ, virt), (occ, occ, virt, virt))
    keeps = (None, None)
    if internal is not None:
        act = np.zeros(len(occ) + len(virt), dtype=bool)
        act[list(internal)] = True
        act_o, act_v = act[occ], act[virt]
        keeps = (~(act_o[:, None] & act_v),
                 ~((act_o[:, None] & act_o)[:, :, None, None] & (act_v[:, None] & act_v)))
    terms = []
    for num, d, keep, role in zip(nums, (d1, d2), keeps, roles):
        small = np.abs(d) < DENOMINATOR_FLOOR
        if keep is not None:
            small &= keep
        if small.any():
            first = tuple(np.argwhere(small)[0])
            raise DegenerateDenominatorError(
                tuple(int(idx[k]) for idx, k in zip(role, first)), d[first])
        if keep is not None:
            num, d = num[keep], d[keep]
        terms += (num / d).ravel().tolist()
    return math.fsum(terms)


def rdm_pt2(rdm: RdmPair, table: IntegralTable, ref: ReferenceDeterminant,
            space: ActiveSpaceSpec | None = None, warn_positive=True) -> float:
    """Second-order correction from the measured RDMs.

    Sums over the occupied/virtual split of ``ref`` within ``table``'s
    orbital space.  For a full-space correction on an embedded RDM, pass the
    active-space partition as ``space``: excitation channels lying entirely
    inside the active set are then skipped, since the active solver already
    treats them variationally (their true transformed numerators vanish at
    its optimum, and only reconstruction error would survive here).

    Raises DegenerateDenominatorError below a 1e-8 Ha denominator gap.
    """
    _check_pt2_input(rdm)
    occ = list(ref.occupied)
    virt = list(ref.virtual)
    eps_occ, eps_virt = transformed_energies(rdm, table, ref)
    total = _second_order_sum(
        eps_occ, eps_virt, _fbar_matrix(rdm, table, occ, virt),
        _gammabar_tensor(rdm, table, occ, virt), occ, virt,
        internal=space.active if space is not None else None)
    if total > 0 and warn_positive:
        log.warning("positive second-order correction %.3e Ha (ground-state "
                    "corrections are expected to be negative)", total)
    return float(total)


def embed_active_rdm(active_rdm: RdmPair, spec: ActiveSpaceSpec) -> RdmPair:
    """Lift an active-space RDM to the full orbital space.

    Frozen-occupied orbitals get determinant blocks, frozen-active cross
    blocks are antisymmetrized products of the core density with the active
    1-RDM, and frozen-virtual blocks stay zero.
    """
    fo = list(spec.frozen_occupied)
    act = list(spec.active)
    fv = list(spec.frozen_virtual)
    if set(fo) & set(act) or set(fo) & set(fv) or set(act) & set(fv):
        raise ValidationError("active-space sets overlap")
    n = len(fo) + len(act) + len(fv)
    if active_rdm.n_so != len(act):
        raise ValidationError("active RDM size does not match the active set")
    r1a = active_rdm.rho1
    rho1 = np.zeros((n, n))
    rho2 = np.zeros((n, n, n, n))
    rho1[fo, fo] = 1.0
    rho1[np.ix_(act, act)] = r1a
    rho2[np.ix_(act, act, act, act)] = active_rdm.rho2
    core = np.array(fo, dtype=int)
    c, d = (core[i] for i in np.nonzero(~np.eye(core.size, dtype=bool)))  # c != d
    rho2[c, d, c, d] = 1.0
    rho2[c, d, d, c] = -1.0
    k = core[:, None, None]  # one (active x active) block per core orbital
    a = np.array(act, dtype=int)[:, None]
    b = a.T
    rho2[k, a, k, b] = r1a
    rho2[a, k, k, b] = -r1a
    rho2[k, a, b, k] = -r1a
    rho2[a, k, b, k] = r1a
    meta = replace(active_rdm.meta, n_electrons=active_rdm.meta.n_electrons + len(fo))
    return RdmPair(rho1, rho2, meta)


def hf_mp2(table: IntegralTable, ref: ReferenceDeterminant) -> float:
    """Textbook second-order correction for the Hartree-Fock reference.

    Independent of the RDM machinery on purpose: a sum over Fock matrix
    elements and bare integrals.
    """
    occ, virt = list(ref.occupied), list(ref.virtual)
    o_ix, v_ix = _index(occ), _index(virt)
    f = table.h + np.einsum("piqi->pq", table.g[:, o_ix][:, :, :, o_ix])
    eps = f.diagonal()
    g_oovv = table.g[o_ix][:, o_ix][:, :, v_ix][:, :, :, v_ix]
    return _second_order_sum(eps[o_ix], eps[v_ix], f[o_ix][:, v_ix], g_oovv, occ, virt)
