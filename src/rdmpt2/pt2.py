"""Second-order perturbative correction evaluated from measured RDMs.

The numerators are the real parts of commutator expectations
<[a+_i a_a, H]> and <[a+_i a+_j a_b a_a, H]> expressed through the 1-/2-RDM
(plus a reducible 3-RDM reconstruction when more than two electrons are
present); the denominators use transformed orbital energies obtained from the
same RDMs.  On a determinant RDM everything collapses to textbook MP2.

Everything here is array code over the occupied/virtual blocks of the
reference: the numerators and transformed energies are block contractions,
the denominators are broadcast sums, one comparison per excitation rank finds
a degenerate channel, and ``math.fsum`` adds the kept nonzero terms, so the
sum does not depend on their order.  The scalar (per-element, loop) and
dense einsum forms these were derived from are kept in the tests as oracles.

Every numerator contraction is split by index class.  On an RDM from
``embed_active_rdm``, rho1 is the identity on the frozen core, a block on the
active set and zero on the frozen virtuals, and rho2 is rho1 ^ rho1 outside
the active set, so the pair cumulant lambda = rho2 - rho1 ^ rho1 lives on the
active set only.  Over core indices a contraction with rho1 is a delta, which
makes it a slice or a diagonal sum of h and g; over active indices it runs on
the active set alone; nothing is contracted over frozen virtuals, and the
reconstructed 3-RDM, written in rho1 and lambda, splits the same way.
Without a partition the core is empty and every orbital counts as active, so
the same code reads any RDM in full.
"""

from __future__ import annotations

import functools
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
    rather than copies; otherwise as an index array."""
    idx = list(idx)
    if idx and idx == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=np.intp)


def _block(x, *idx):
    """``x`` cut with one ``_index`` per axis: the slices as one view, then one
    ``take`` per index array, leading axis first (a single fancy gather over
    several axes is slower, since it gathers element by element)."""
    x = x[tuple(i if isinstance(i, slice) else slice(None) for i in idx)]
    for axis, i in enumerate(idx):
        if not isinstance(i, slice):
            x = x.take(i, axis=axis)
    return x


def _dot(a, b, k=1) -> np.ndarray:
    """``np.tensordot(a, b, k)`` as one matmul: the last k axes of ``a``
    against the first k of ``b`` (tensordot's axis handling costs more than
    the product itself on blocks this small)."""
    m, n, kk = a.shape[:a.ndim - k], b.shape[k:], math.prod(b.shape[:k])
    return (a.reshape(math.prod(m), kk) @ b.reshape(kk, math.prod(n))).reshape(m + n)


def _wedge(a, b) -> np.ndarray:
    """(a ^ b)_pqrs = a_pr b_qs - a_ps b_qr."""
    return a[:, None, :, None] * b[None, :, None, :] - a[:, None, None, :] * b[None, :, :, None]


def _check_embedded(rho1, ref: ReferenceDeterminant, space: ActiveSpaceSpec):
    """The O(n^2) check that rho1 has ``embed_active_rdm``'s form."""
    space.validate(len(rho1))
    if not (set(space.frozen_occupied) <= set(ref.occupied)
            and set(space.frozen_virtual) <= set(ref.virtual)):
        raise ValidationError("frozen-occupied orbitals must be occupied and frozen-virtual "
                              "ones virtual in the reference")
    core, act = list(space.frozen_occupied), np.ix_(space.active, space.active)
    embedded = np.zeros_like(rho1)
    embedded[core, core] = 1.0
    embedded[act] = rho1[act]
    if not np.array_equal(rho1, embedded):
        raise ValidationError(
            "with an active-space partition, rho1 must have the embedded form: the identity "
            "on the frozen-occupied orbitals, zero on the frozen-virtual ones and no "
            "frozen-active coupling")


class _Split:
    """An RDM and the integrals cut by index class for the numerators.

    Classes: the core C (frozen-occupied), the active set A, its occupied
    and virtual parts Ao and Av, and the frozen virtuals V.  On an embedded
    RDM rho1 is the identity on C, a block r on A and zero elsewhere, and rho2
    is rho1 ^ rho1 outside A^4, so only r, rho2 on A^4 and the blocks of g
    they touch are read.  Without a partition C and V are empty and every
    orbital counts as active.

    The numerators are built with the occupied axis ordered C then Ao and the
    virtual axis as in the reference when Av and V each form one run there
    (Av at the slice ``va``), else Av then V; ``to_ref`` restores the
    reference's order when it differs.  A is ordered Ao then Av.
    """

    def __init__(self, rdm: RdmPair, table: IntegralTable, ref: ReferenceDeterminant,
                 space: ActiveSpaceSpec | None = None):
        occ, virt = tuple(ref.occupied), tuple(ref.virtual)
        core = fv = ()
        ao, av = occ, virt
        if space is not None:
            _check_embedded(rdm.rho1, ref, space)
            core, fv = space.frozen_occupied, space.frozen_virtual
            ao = tuple(p for p in occ if p in space.active)
            av = tuple(p for p in virt if p in space.active)
        self.nc, self.nao, self.nav = nc, nao, nav = len(core), len(ao), len(av)
        self.nv = len(virt)
        virt_order = virt if virt == fv + av else av + fv
        start = virt_order.index(av[0]) if av else 0
        self.va = slice(start, start + nav)
        self.perm = None
        if core + ao != occ or virt_order != virt:
            self.perm = ([(core + ao).index(p) for p in occ], [virt_order.index(p) for p in virt])
        self.n_electrons = rdm.meta.n_electrons
        self.h, self.g = table.h, table.g
        self.C, self.A, self.O, self.W, self.CA, self.AW = (_index(x) for x in (
            core, ao + av, core + ao, virt_order, core + ao + av, ao + av + virt_order))

        A, every = self.A, slice(None)
        self.r = r = _block(rdm.rho1, A, A)
        self.r2 = _block(rdm.rho2, A, A, A, A)
        self.ro, self.rv, self.t = r[:, :nao], r[:, nao:], r[:nao, nao:]
        self.g_xaaa = _block(self.g, every, A, A, A)
        # the core's mean field sum_c g_pcqc, a diagonal sum of g
        self.gf_core = (np.einsum("pcqc->pq", _block(self.g, every, self.C, every, self.C))
                        if nc else 0.0)

    def occ_side(self, x_core, x_act):
        """sum_m rho_mi x_m... along a leading axis split over C and A, for i
        in C + Ao: a slice for core i, a contraction with r for active i."""
        act = _dot(self.ro.T, x_act)
        return np.concatenate([x_core, act]) if self.nc else act

    def one_body(self, f):
        """sum_m (f_am rho_mi - f_im rho_ma), shape (occ, virt); rho_ma
        vanishes unless a is active."""
        out = self.occ_side(_block(f, self.C, self.W), _block(f, self.A, self.W))
        out[:, self.va] -= _block(f, self.O, self.A) @ self.rv
        return out

    @functools.cached_property
    def fbar(self):
        """fbar in the numerators' order (see ``_fbar_matrix``)."""
        nc, nao = self.nc, self.nao
        out = self.one_body(self.h + self.gf_core)
        # 1/2 sum_mvw (g_amvw rho2_vwim - g_imvw rho2_vwam) over A is
        # 1/2 (y_ia - y_ai), y_pq = sum_wmn g_pwmn rho2_mnwq, by the
        # symmetries of g and rho2
        y = _dot(self.g_xaaa, self.r2.transpose(2, 0, 1, 3), 3)
        out[nc:] -= 0.5 * y[self.W][:, :nao].T
        out[:, self.va] += 0.5 * y[self.O][:, nao:]
        if nc:  # the active mean field on a core i
            g_cawa = _block(self.g, self.C, self.A, self.W, self.A)
            out[:nc] += _dot(g_cawa.transpose(0, 2, 1, 3), self.r.T, 2)
        return out

    def to_ref(self, x):
        if self.perm is None:
            return x
        po, pv = self.perm
        return x[np.ix_(po, pv)] if x.ndim == 2 else x[np.ix_(po, po, pv, pv)]


# ---------------------------------------------------------------------------
# Transformed matrix elements (numerators)
# ---------------------------------------------------------------------------

def _fbar_matrix(s: _Split) -> np.ndarray:
    """All Re <[a+_i a_a, H]> at once, shape (occ, virt).

    fbar_ia = sum_m (h_am rho_mi - h_im rho_ma)
              + 1/2 sum_mvw (g_amvw rho2_vwim - g_imvw rho2_vwam).
    rho_mi is a delta for a core i and rho_ma vanishes unless a is active;
    the core parts of rho2 reduce to mean fields (the core's, sum_c g_pcqc,
    everywhere, and the active one for a core i), so g contracts rho2 over A
    only.
    """
    return s.to_ref(s.fbar)


def _gammabar_tensor(s: _Split, include_3rdm=None) -> np.ndarray:
    """All Re <[a+_i a+_j a_b a_a, H]> at once, shape (occ, occ, virt, virt).

    gammabar = X - U - A_ij A_ab S (A_ij S = S - S with i, j swapped):
    X_ijab = 1/2 sum_mn rho2_ijmn g_mnab is g_ijab on core i, j;
    U_ijab = 1/2 sum_mn g_ijmn rho2_mnab is nonzero only for active a, b; and
    the generator S, nonzero only for active b, holds the one-body terms
    1/2 sum_m h_im rho2_mjab - sum_m h_am rho2_ijmb, which need an active j
    (the latter halved for active i, whose mirror term A_ij supplies).  The
    three-body terms add to S (``_gamma_3rdm_terms``); they vanish
    identically for 2-electron states and are skipped there unless
    ``include_3rdm`` forces them.
    """
    if include_3rdm is None:
        include_3rdm = s.n_electrons > 2
    nc, nao, nav, va, A, O, W, h, r2 = s.nc, s.nao, s.nav, s.va, s.A, s.O, s.W, s.h, s.r2
    # the pair transform of g_mnaw, w in W for X and, first, in A for the
    # three-body terms; U_ivab also for v in Av there
    om = _pair_transform(s, W, s.AW if include_3rdm else W)
    u = 0.5 * _dot(_block(s.g, O, s.CA if include_3rdm else O, A, A), r2[:, :, nao:, nao:], 2)
    if include_3rdm:
        gen = _gamma_3rdm_terms(s, om, u)
    else:
        gen = np.zeros(om.shape[:3] + (nav,))
    gen[:, nc:, va] += 0.5 * _dot(_block(h, O, A), r2[:, :nao, nao:, nao:])
    if nc:
        gen[:nc, nc:] -= _block(h, s.C, W)[:, None, :, None] * s.t[:, None, :]
    gen[nc:, nc:] -= 0.5 * (r2[:nao, :nao, :, nao:].transpose(0, 1, 3, 2)
                            @ _block(h, A, W)).transpose(0, 1, 3, 2)
    gen -= gen.transpose(1, 0, 2, 3)
    out = om[..., -s.nv:]                                  # X
    out[:, :, va, va] -= u[:, :nc + nao]                   # U
    out[..., va] -= gen
    out[:, :, va] += gen.transpose(0, 1, 3, 2)
    return s.to_ref(out)


def _pair_transform(s: _Split, w, x) -> np.ndarray:
    """1/2 sum_mn rho2_ijmn g_mnwx for i, j in C + Ao and w, x cut by the
    ``_index`` values ``w``, ``x``.

    On core i, j this is g_ijwx itself; on core i and active j it is
    sum_n g_inwx rho_nj; only active i, j contract rho2, over A x A.
    """
    nc, nao, C, A = s.nc, s.nao, s.C, s.A
    aa = 0.5 * _dot(s.r2[:nao, :nao], _block(s.g, A, A, w, x), 2)
    if not nc:
        return aa
    out = np.empty((nc + nao, nc + nao) + aa.shape[2:])
    out[:nc, :nc] = _block(s.g, C, C, w, x)
    ca = _dot(s.ro.T, _block(s.g, C, A, w, x).transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    out[:nc, nc:] = ca
    out[nc:, :nc] = -ca.transpose(1, 0, 2, 3)
    out[nc:, nc:] = aa
    return out


def _gamma_3rdm_terms(s: _Split, om, u) -> np.ndarray:
    """The three-body contractions of the bracket,
    -1/2 A_ij sum_mnv g_ivmn rho_mnj,abv + 1/2 A_ab sum_mnv g_mnav rho_ijv,bmn,
    through the cumulant-truncated reconstruction (Mazziotti, Phys. Rev. A 57,
    4219, 1998) det3(rho1) + A(lambda ^ rho1), lambda = rho2 - rho1 ^ rho1,
    without a six-index tensor.

    Returns their part of the generator S of ``_gammabar_tensor``.  lambda
    lives on A^4, and the det3 products and rho1 ^ rho1 parts fold into
    mean-field terms (the mean field F = sum_st g_psqt rho_ts, and fbar less
    its one-body part) and into pair terms built from ``om`` (the pair
    transform of g_mnaw, w in A first) and ``u`` (U_ivab for v in C + A);
    what remains contracts lambda with g over active indices only.
    """
    nc, nao, va, A, W, r = s.nc, s.nao, s.va, s.A, s.W, s.r
    lam = s.r2 - _wedge(r, r)
    every = slice(None)
    gf = s.gf_core + _dot(_block(s.g, every, A, every, A).transpose(0, 2, 1, 3), r.T, 2)
    # 1/2 sum_mn rho2_ijmn K_mnab, K_mnab = sum_w g_mnaw rho_wb
    gen = 0.5 * (om[..., :len(r)] @ s.rv)
    # -1/4 sum_mn G_ijmn rho2_mnab, G_ijmn = sum_v g_ivmn rho_jv
    u = u.transpose(1, 0, 2, 3)
    gen[:, :, va] -= 0.5 * s.occ_side(u[:nc], u[nc:]).transpose(1, 0, 2, 3)
    # mean-field terms: -(fbar less its h terms)_ia rho_jb
    # + 1/2 sum_m (F_im lambda_mjab - F_am lambda_ijmb)
    phi = s.one_body(s.h) - s.fbar
    gen[:, nc:] += phi[:, None, :, None] * s.t[:, None, :]
    gen[:, nc:, va] += 0.5 * _dot(_block(gf, s.O, A), lam[:, :nao, nao:, nao:])
    gen[nc:, nc:] -= 0.5 * (lam[:nao, :nao, :, nao:].transpose(0, 1, 3, 2)
                            @ _block(gf, A, W)).transpose(0, 1, 3, 2)
    # T5_ijab = sum_wn (sum_m g_iwmn rho_ma) lambda_jnwb
    hh = s.g_xaaa[s.O].transpose(0, 1, 3, 2) @ s.rv           # (i, w, n, a)
    gen[:, nc:, va] -= _dot(hh.transpose(0, 3, 1, 2), lam[:nao, :, :, nao:].transpose(2, 1, 0, 3),
                            2).transpose(0, 2, 1, 3)
    # b4_ijab = -sum_nmw rho_ni g_mnaw lambda_wjbm
    g_acwa = _block(s.g, A, s.CA, W, A)                        # g_mnaw, n in C + A
    v = _dot(g_acwa.transpose(1, 2, 0, 3), lam[:, :nao, nao:].transpose(3, 0, 1, 2), 2)
    gen[:, nc:] -= s.occ_side(v[:nc], v[nc:]).transpose(0, 2, 1, 3)
    return gen


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
    then (i, j, a, b), order.  Zero numerators (spin-forbidden channels and
    the i = j, a = b diagonals) are left out of the sum: ``math.fsum`` is
    correctly rounded, so that does not change the result.
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
        keep = num != 0 if keep is None else keep & (num != 0)
        terms += (num[keep] / d[keep]).tolist()
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

    With ``space`` the numerators read only the active blocks of rho1 and
    rho2 and the partition (core deltas, active cumulant, nothing over frozen
    virtuals), so the RDM must be ``embed_active_rdm``'s: rho1 the identity on
    ``frozen_occupied``, zero rows and columns on ``frozen_virtual`` and no
    core-active coupling (checked; ValidationError otherwise), and rho2 the
    embedding's (not checked).

    Raises DegenerateDenominatorError below a 1e-8 Ha denominator gap.
    """
    _check_pt2_input(rdm)
    split = _Split(rdm, table, ref, space)
    eps_occ, eps_virt = transformed_energies(rdm, table, ref)
    total = _second_order_sum(
        eps_occ, eps_virt, _fbar_matrix(split), _gammabar_tensor(split),
        list(ref.occupied), list(ref.virtual),
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
