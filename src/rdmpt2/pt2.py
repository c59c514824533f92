"""Second-order perturbative correction evaluated from measured RDMs.

The numerators are the real parts of commutator expectations
<[a+_i a_a, H]> and <[a+_i a+_j a_b a_a, H]> expressed through the 1-/2-RDM
(plus a reducible 3-RDM reconstruction when the reference holds more than
two electrons); the denominators use transformed orbital energies obtained
from the same RDMs.  On a determinant RDM everything collapses to textbook MP2.

Everything here is array code over the occupied/virtual blocks of the
reference: the numerators and transformed energies are block contractions
(or, with a two-electron reference, rows of one compiled affine map), the
denominators are broadcast sums, one comparison per excitation rank finds
a degenerate channel, and ``math.fsum`` adds the kept nonzero terms, so the
sum does not depend on their order.  The scalar (per-element, loop) and
dense einsum forms these were derived from are kept in the tests as oracles.

Every contraction is split by index class.  On an RDM from
``embed_active_rdm``, rho1 is the identity on the frozen core, a block on the
active set and zero on the frozen virtuals, and rho2 is rho1 ^ rho1 outside
the active set, so the pair cumulant lambda = rho2 - rho1 ^ rho1 lives on the
active set only.  Over core indices a contraction with rho1 is a delta, which
makes it a slice or a diagonal sum of h and g; over active indices it runs on
the active set alone; nothing is contracted over frozen virtuals, and the
reconstructed 3-RDM, written in rho1 and lambda, splits the same way.  The
transformed energies dress only the active levels, so nothing reads rho2
outside A^4, nor rho1 outside A but for the O(n^2) embedded-form check.
Without a partition the core is empty and every orbital counts as active, so
the same code reads any RDM in full.  With a partition the RDM may also be
the active pair itself, rho over ``space.active``, which is all the
embedded one is read for.

Every RDM block carries a leading resample axis (of length 1 for one pair),
so a stack of pairs (a bootstrap block) runs through the same contractions:
``_dot`` is a broadcasting matmul, and each resample's product is the one
matmul of its pair alone.  The second-order sum stays per resample; a
degenerate denominator is NaN for that resample of a stack, and raises for
one pair.

With a reference of two electrons there are no three-body terms, and the
transformed energies and both numerator blocks are affine in the active
blocks (r, r2).  Such a plan compiles them, on its first call, into one map
out = c + v @ L (``_Plan.affine``): v is r then r2, flattened (16 + 256
entries on four active spin orbitals), and out is eps_occ, eps_virt, fbar
and gammabar (24 values there).  The contractions are the compiler: run once
on a stack of the zero pair and every unit pair, they give c and the rows of
L.  After that each call reads its rows from one (B, 1, m) @ (m, K) product,
so each resample's rows are those of its pair alone.  Over n active spin
orbitals the compile's stack grows as n^8 and the product as n^6, so only
plans on at most ``_COMPILED_ACTIVE`` (four) active spin orbitals compile: on
six, one compile already costs more than a point's evaluations save.  Larger
two-electron plans, and plans whose reference holds more than two electrons
(full-space PT2 with a frozen core), compile nothing and contract on every
call.

What depends only on the integral table, the reference and the partition is
computed once, on the first call, and kept while the table lives (the plans
are weakly keyed by the table): one ``_Plan`` per (reference, partition)
holds the index classes, the partition and reference checks, whether the
three-body terms apply (the reference holds more than two electrons), the bare
Fock diagonal, every block of h and g that is read (with the core's mean field
and h plus it) and the masks of the channels the second-order sum keeps,
and, once compiled, a two-electron plan's affine map.  Per RDM there remain
its active blocks, the embedded-form check and the map's product or the
contractions themselves, whose inputs and summation order are those of
cutting the blocks on every call.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import replace

import numpy as np

from .hamio import IntegralTable, ReferenceDeterminant, ActiveSpaceSpec, ValidationError
from .rdm import RdmPair

DENOMINATOR_FLOOR = 1e-8
# The most active spin orbitals a two-electron plan compiles its affine map on
# (``_Plan.affine``): the map's unit stack holds (1 + m) m numbers, m = n^2 +
# n^4, which is 0.6 MB and ~1 ms of compile at n = 4 but 14 MB and ~20 ms at
# n = 6, where the warm call saves only ~50 us.
_COMPILED_ACTIVE = 4


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
    """``np.tensordot(a, b, k)`` per resample as one broadcasting matmul.

    ``a`` and ``b`` each lead with a resample axis (length 1 for a plan
    block, which broadcasts); the last k axes of ``a`` contract with the k
    after ``b``'s first.  Each resample's product is the one matmul of a
    single pair (tensordot's axis handling costs more than the product
    itself on blocks this small)."""
    kk = math.prod(b.shape[1:1 + k])
    out = a.reshape(a.shape[0], -1, kk) @ b.reshape(b.shape[0], kk, -1)
    return out.reshape(out.shape[:1] + a.shape[1:-k] + b.shape[1 + k:])


def _wedge(a, b) -> np.ndarray:
    """(a ^ b)_pqrs = a_pr b_qs - a_ps b_qr, per resample."""
    return (a[:, :, None, :, None] * b[:, None, :, None, :]
            - a[:, :, None, None, :] * b[:, None, :, :, None])


# Plans, weakly keyed by the table: each is built on first use and dropped
# with its table, which no plan refers to.
_PLANS = weakref.WeakKeyDictionary()


def _plan(table: IntegralTable, ref: ReferenceDeterminant,
          space: ActiveSpaceSpec | None) -> "_Plan":
    """The ``_Plan`` of (table, ref, space), built on the first call and
    reused after; a build that raises caches nothing."""
    key = (ref, space)
    plans = _PLANS.get(table)
    if plans is not None and key in plans:
        return plans[key]
    plan = _Plan(table, ref, space)
    _PLANS.setdefault(table, {})[key] = plan
    return plan


class _Plan:
    """What ``rdm_pt2`` reads of one (table, reference, partition): index
    classes, the blocks of h and g behind the numerators and the transformed
    energies, the bare Fock diagonal, and the masks of the channels kept.

    Classes: the core C (frozen-occupied), the active set A, its occupied
    and virtual parts Ao and Av, and the frozen virtuals V.  On an embedded
    RDM rho1 is the identity on C, a block r on A and zero elsewhere, and rho2
    is rho1 ^ rho1 outside A^4, so only r, rho2 on A^4 and the blocks of g
    they touch are read.  Without a partition C and V are empty and every
    orbital counts as active.

    The numerators, the masks ``keeps`` and the second-order sum share the
    plan's axes ``occ`` (O: C then Ao) and ``virt`` (W: as in the reference
    when Av and V each form one run there, Av at the slice ``va``, else Av
    then V); ``o_pos``/``w_pos`` gather the transformed energies onto them.
    A is ordered Ao then Av.

    A block is kept in the layout its first use reads: as cut (a view where
    every index is one run) for products and matmuls, C-contiguous where
    ``_dot`` would copy it into that layout anyway.

    A plan without three-body terms (a two-electron reference) on at most
    ``_COMPILED_ACTIVE`` active spin orbitals (``compiles``) compiles, in its
    first call, the affine map ``affine`` of its transformed energies and
    numerators from these blocks, and ``energies`` and ``numerators`` read
    its rows from then on.  Any other plan never compiles one: those two
    contract the blocks on every call.
    """

    def __init__(self, table: IntegralTable, ref: ReferenceDeterminant,
                 space: ActiveSpaceSpec | None):
        occ, virt = tuple(ref.occupied), tuple(ref.virtual)
        core = fv = ()
        ao, av = occ, virt
        self.embedded = None
        if space is not None:
            space.validate(table.n_so)
            if not (set(space.frozen_occupied) <= set(occ)
                    and set(space.frozen_virtual) <= set(virt)):
                raise ValidationError("frozen-occupied orbitals must be occupied and "
                                      "frozen-virtual ones virtual in the reference")
            core, fv = space.frozen_occupied, space.frozen_virtual
            ao = tuple(p for p in occ if p in space.active)
            av = tuple(p for p in virt if p in space.active)
            template = np.zeros((table.n_so,) * 2)
            template[list(core), list(core)] = 1.0
            self.embedded = template, np.ix_(space.active, space.active)
            self.n_active = len(space.active)
            self.A_pos = _index(map(space.active.index, ao + av))  # A within the active pair
        self.nc, self.nao, self.nav = nc, nao, nav = len(core), len(ao), len(av)
        self.occ = core + ao
        self.virt = virt if virt == fv + av else av + fv
        start = self.virt.index(av[0]) if av else 0
        self.va = slice(start, start + nav)
        self.o_pos = _index(map(occ.index, self.occ))
        self.w_pos = _index(map(virt.index, self.virt))
        C, A, O, W, CA, AW = (_index(x) for x in (
            core, ao + av, self.occ, self.virt, core + ao + av, ao + av + self.virt))
        self.A, self.O, self.W = A, O, W

        h, g, every = table.h, table.g, slice(None)
        # ``transformed_energies``' bare Fock diagonal in the reference's
        # order, the positions of Ao and Av there, and h and g on (Ao, Av)
        o_ix = _index(occ)
        bare = h.diagonal() + np.einsum("pjpj->pj", g)[:, o_ix].sum(axis=1)
        self.bare_occ, self.bare_virt = bare[o_ix], bare[_index(virt)]
        self.ao_pos, self.av_pos = _index(map(occ.index, ao)), _index(map(virt.index, av))
        Ao, Av = _index(ao), _index(av)
        self.h_ov, self.h_vo = _block(h, Ao, Av), _block(h, Av, Ao)
        self.g_oovv, self.g_vvoo = _block(g, Ao, Ao, Av, Av), _block(g, Av, Av, Ao, Ao)
        # the core's mean field sum_c g_pcqc, a diagonal sum of g
        self.gf_core = (np.einsum("pcqc->pq", _block(g, every, C, every, C)) if nc else 0.0)
        # ``one_body``'s blocks of h and of h plus the core's mean field
        self.h_cuts, self.hf_cuts = ((_block(f, C, W), _block(f, A, W), _block(f, O, A))
                                     for f in (h, h + self.gf_core))
        g_xaaa = _block(g, every, A, A, A)
        self.g_xaaa = np.ascontiguousarray(g_xaaa)
        self.g_oaaa = g_xaaa[O].transpose(0, 1, 3, 2)                  # g_iwnm
        self.g_cwaa = (np.ascontiguousarray(_block(g, C, A, W, A).transpose(0, 2, 1, 3))
                       if nc else None)                                # g_iawb, i in C
        self.g_xxaa = np.ascontiguousarray(
            _block(g, every, A, every, A).transpose(0, 2, 1, 3))       # g_pmqn
        self.g_kwaa = np.ascontiguousarray(
            _block(g, A, CA, W, A).transpose(1, 2, 0, 3))              # g_mnaw, n in C + A
        # ``_pair_transform``'s g_mnwx and U's g_ijmn: x in W and j in O for
        # a two-electron reference; x in A + W and j in C + A with the
        # three-body terms, which a reference of more electrons needs
        self.three_body = len(self.occ) > 2
        # whether ``energies`` and ``numerators`` read the compiled ``affine``:
        # a two-electron plan on at most _COMPILED_ACTIVE active spin orbitals
        self.compiles = not self.three_body and nao + nav <= _COMPILED_ACTIVE
        x, j = (AW, CA) if self.three_body else (W, O)
        self.pair = (
            np.ascontiguousarray(_block(g, A, A, W, x)),
            _block(g, C, C, W, x) if nc else None,
            np.ascontiguousarray(_block(g, C, A, W, x).transpose(1, 0, 2, 3)) if nc else None,
            np.ascontiguousarray(_block(g, O, j, A, A)))
        # ``_second_order_sum``'s masks: with a partition, every channel
        # whose indices all lie in the active set is dropped
        self.keeps = (None, None)
        if space is not None:
            act = np.zeros(len(occ) + len(virt), dtype=bool)
            act[list(space.active)] = True
            act_o, act_v = act[list(self.occ)], act[list(self.virt)]
            self.keeps = (~(act_o[:, None] & act_v),
                          ~((act_o[:, None] & act_o)[:, :, None, None]
                            & (act_v[:, None] & act_v)))

    @functools.cached_property
    def affine(self):
        """(c, L) of the two-electron map ``out = c + v @ L``, compiled on the
        first read: v is r then r2, flattened (n^2 + n^4 entries over the n
        active spin orbitals), and out is eps_occ, eps_virt (in the reference's
        order), fbar and gammabar (in the plan's), flattened.

        Without three-body terms all four are affine in (r, r2), so the
        contraction form, run once on a stack of the zero pair (c) and the
        m = n^2 + n^4 unit pairs (c plus a row of L each), is the whole map.
        That stack holds (1 + m) m numbers, so only a plan that ``compiles``
        (n <= ``_COMPILED_ACTIVE``) reads it."""
        n = self.nao + self.nav
        m = n * n + n ** 4
        v = np.eye(1 + m, m, -1)
        r, r2 = v[:, :n * n].reshape(-1, n, n), v[:, n * n:].reshape((-1,) + (n,) * 4)
        s = _Split(self, r, r2)
        rows = np.concatenate([x.reshape(1 + m, -1) for x in (
            *_dressed_energies(self, r, r2), s.fbar, _gammabar_tensor(s))], axis=1)
        return rows[0], rows[1:] - rows[0]

    def _rows(self, r, r2, cols):
        """Columns ``cols`` of the compiled map at a stack of active blocks:
        one (B, 1, m) @ (m, K) product, so each resample's row is the one of
        its pair alone."""
        c, L = self.affine
        v = np.concatenate((r.reshape(len(r), -1), r2.reshape(len(r2), -1)), axis=1)
        return c[cols] + (v[:, None] @ L[:, cols])[:, 0]

    def energies(self, r, r2):
        """(eps_occ, eps_virt) of a stack of active blocks, in the reference's
        order: the compiled rows, or the contractions if none is compiled."""
        if not self.compiles:
            return _dressed_energies(self, r, r2)
        no = len(self.occ)
        rows = self._rows(r, r2, slice(no + len(self.virt)))
        return rows[:, :no], rows[:, no:]

    def numerators(self, r, r2):
        """(fbar, gammabar) of a stack of active blocks, in the plan's order:
        the compiled rows, or the contractions if none is compiled."""
        if not self.compiles:
            s = _Split(self, r, r2)
            return s.fbar, _gammabar_tensor(s)
        no, nw = len(self.occ), len(self.virt)
        rows = self._rows(r, r2, slice(no + nw, None))
        return (rows[:, :no * nw].reshape(-1, no, nw),
                rows[:, no * nw:].reshape(-1, no, no, nw, nw))

    def check_embedded(self, rho1):
        """The O(n^2) check that rho1 (one, or each of a stack) has
        ``embed_active_rdm``'s form."""
        template, act = self.embedded
        same = rho1.shape[-2:] == template.shape
        if same:
            embedded = np.empty(rho1.shape)
            embedded[...] = template
            embedded[(...,) + act] = rho1[(...,) + act]
            same = np.array_equal(rho1, embedded)
        if not same:
            raise ValidationError(
                "with an active-space partition, rho1 must have the embedded form: the "
                "identity on the frozen-occupied orbitals, zero on the frozen-virtual ones "
                "and no frozen-active coupling")


def _cut(rdm: RdmPair, p: _Plan, check=False):
    """A stack of the RDM's active blocks: (r, r2, stacked), r = rho1 on A and
    r2 = rho2 on A^4 with one leading resample axis (of length 1 for a single
    pair).  With a partition ``rdm`` is the embedded pair, or the active pair
    (rho over ``space.active``, ``embed_active_rdm``'s input).  ``check``
    checks an embedded rho1's form: ``transformed_energies`` asks for it, and
    ``rdm_pt2`` calls that first."""
    stacked = rdm.rho1.ndim == 3
    rho1, rho2 = (rdm.rho1, rdm.rho2) if stacked else (rdm.rho1[None], rdm.rho2[None])
    A = p.A
    if p.embedded is not None:
        if rho1.shape[-1] == p.n_active:
            A = p.A_pos
        elif check:
            p.check_embedded(rho1)
    every = slice(None)
    return _block(rho1, every, A, A), _block(rho2, every, A, A, A, A), stacked


class _Split:
    """One stack of active blocks read against a plan: r = rho1 on A, r2 =
    rho2 on A^4 (``_cut``) and the blocks ro, rv, t of r, each with a leading
    resample axis."""

    def __init__(self, plan: _Plan, r, r2):
        self.plan, self.r, self.r2 = plan, r, r2
        nao = plan.nao
        self.ro, self.rv, self.t = r[:, :, :nao], r[:, :, nao:], r[:, :nao, nao:]

    def occ_side(self, x_core, x_act):
        """sum_m rho_mi x_m... along the axis after the resample axis, split
        over C and A, for i in C + Ao: a slice for core i, a contraction with
        r for active i.  Both parts lead with a resample axis."""
        act = _dot(self.ro.transpose(0, 2, 1), x_act)
        nc = self.plan.nc
        if not nc:
            return act
        out = np.empty((len(act), nc + act.shape[1]) + act.shape[2:])
        out[:, :nc], out[:, nc:] = x_core, act
        return out

    def one_body(self, cuts):
        """sum_m (f_am rho_mi - f_im rho_ma), shape (occ, virt), from the
        blocks (f_CW, f_AW, f_OA); rho_ma vanishes unless a is active."""
        f_cw, f_aw, f_oa = cuts
        out = self.occ_side(f_cw[None], f_aw[None])
        out[:, :, self.plan.va] -= f_oa @ self.rv
        return out

    @functools.cached_property
    def fbar(self):
        """All Re <[a+_i a_a, H]> at once, shape (occ, virt) in the plan's order.

        fbar_ia = sum_m (h_am rho_mi - h_im rho_ma)
                  + 1/2 sum_mvw (g_amvw rho2_vwim - g_imvw rho2_vwam).
        rho_mi is a delta for a core i and rho_ma vanishes unless a is active;
        the core parts of rho2 reduce to mean fields (the core's, sum_c g_pcqc,
        everywhere, and the active one for a core i), so g contracts rho2 over A
        only.
        """
        p = self.plan
        nc, nao = p.nc, p.nao
        out = self.one_body(p.hf_cuts)
        # 1/2 sum_mvw (g_amvw rho2_vwim - g_imvw rho2_vwam) over A is
        # 1/2 (y_ia - y_ai), y_pq = sum_wmn g_pwmn rho2_mnwq, by the
        # symmetries of g and rho2
        y = _dot(p.g_xaaa[None], self.r2.transpose(0, 3, 1, 2, 4), 3)
        out[:, nc:] -= 0.5 * y[:, p.W][:, :, :nao].transpose(0, 2, 1)
        out[:, :, p.va] += 0.5 * y[:, p.O][:, :, nao:]
        if nc:  # the active mean field on a core i
            out[:, :nc] += _dot(p.g_cwaa[None], self.r.transpose(0, 2, 1), 2)
        return out


# ---------------------------------------------------------------------------
# Transformed matrix elements (numerators)
# ---------------------------------------------------------------------------

def _gammabar_tensor(s: _Split) -> np.ndarray:
    """All Re <[a+_i a+_j a_b a_a, H]> at once, shape (occ, occ, virt, virt)
    in the plan's order, after the resample axis.

    gammabar = X - U - A_ij A_ab S (A_ij S = S - S with i, j swapped):
    X_ijab = 1/2 sum_mn rho2_ijmn g_mnab is g_ijab on core i, j;
    U_ijab = 1/2 sum_mn g_ijmn rho2_mnab is nonzero only for active a, b; and
    the generator S, nonzero only for active b, holds the one-body terms
    1/2 sum_m h_im rho2_mjab - sum_m h_am rho2_ijmb, which need an active j
    (the latter halved for active i, whose mirror term A_ij supplies).  The
    three-body terms add to S (``_gamma_3rdm_terms``); they vanish
    identically for 2-electron states and are skipped when the plan's
    reference holds two electrons (``_Plan.three_body``).
    """
    p, r2 = s.plan, s.r2
    nc, nao, nav, va = p.nc, p.nao, p.nav, p.va
    h_cw, h_aw, h_oa = p.h_cuts
    # the pair transform of g_mnaw, w in W for X and, first, in A for the
    # three-body terms; U_ivab also for v in Av there
    g_aawx, g_ccwx, g_acwx, g_ojaa = p.pair
    om = _pair_transform(s, g_aawx, g_ccwx, g_acwx)
    u = 0.5 * _dot(g_ojaa[None], r2[:, :, :, nao:, nao:], 2)
    if p.three_body:
        gen = _gamma_3rdm_terms(s, om, u)
    else:
        gen = np.zeros(om.shape[:4] + (nav,))
    gen[:, :, nc:, va] += 0.5 * _dot(h_oa[None], r2[:, :, :nao, nao:, nao:])
    if nc:
        gen[:, :nc, nc:] -= h_cw[:, None, :, None] * s.t[:, None, :, None, :]
    gen[:, nc:, nc:] -= 0.5 * (r2[:, :nao, :nao, :, nao:].transpose(0, 1, 2, 4, 3)
                               @ h_aw).transpose(0, 1, 2, 4, 3)
    gen -= gen.transpose(0, 2, 1, 3, 4)
    out = om[..., -len(p.virt):]                           # X
    out[:, :, :, va, va] -= u[:, :, :nc + nao]             # U
    out[..., va] -= gen
    out[:, :, :, va] += gen.transpose(0, 1, 2, 4, 3)
    return out


def _pair_transform(s: _Split, g_aawx, g_ccwx, g_acwx) -> np.ndarray:
    """1/2 sum_mn rho2_ijmn g_mnwx for i, j in C + Ao, from the plan's
    blocks g_mnwx on A x A, C x C and (transposed) C x A.

    On core i, j this is g_ijwx itself; on core i and active j it is
    sum_n g_inwx rho_nj; only active i, j contract rho2, over A x A.
    """
    nc, nao = s.plan.nc, s.plan.nao
    aa = 0.5 * _dot(s.r2[:, :nao, :nao], g_aawx[None], 2)
    if not nc:
        return aa
    out = np.empty((len(aa), nc + nao, nc + nao) + aa.shape[3:])
    out[:, :nc, :nc] = g_ccwx
    ca = _dot(s.ro.transpose(0, 2, 1), g_acwx[None]).transpose(0, 2, 1, 3, 4)
    out[:, :nc, nc:] = ca
    out[:, nc:, :nc] = -ca.transpose(0, 2, 1, 3, 4)
    out[:, nc:, nc:] = aa
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
    p, r = s.plan, s.r
    nc, nao, va, every = p.nc, p.nao, p.va, slice(None)
    lam = s.r2 - _wedge(r, r)
    gf = p.gf_core + _dot(p.g_xxaa[None], r.transpose(0, 2, 1), 2)
    # 1/2 sum_mn rho2_ijmn K_mnab, K_mnab = sum_w g_mnaw rho_wb
    gen = 0.5 * (om[..., :r.shape[-1]] @ s.rv[:, None, None])
    # -1/4 sum_mn G_ijmn rho2_mnab, G_ijmn = sum_v g_ivmn rho_jv
    u = u.transpose(0, 2, 1, 3, 4)
    gen[:, :, :, va] -= 0.5 * s.occ_side(u[:, :nc], u[:, nc:]).transpose(0, 2, 1, 3, 4)
    # mean-field terms: -(fbar less its h terms)_ia rho_jb
    # + 1/2 sum_m (F_im lambda_mjab - F_am lambda_ijmb)
    phi = s.one_body(p.h_cuts) - s.fbar
    gen[:, :, nc:] += phi[:, :, None, :, None] * s.t[:, None, :, None, :]
    gen[:, :, nc:, va] += 0.5 * _dot(_block(gf, every, p.O, p.A), lam[:, :, :nao, nao:, nao:])
    gen[:, nc:, nc:] -= 0.5 * (lam[:, :nao, :nao, :, nao:].transpose(0, 1, 2, 4, 3)
                               @ _block(gf, every, p.A, p.W)[:, None, None]
                               ).transpose(0, 1, 2, 4, 3)
    # T5_ijab = sum_wn (sum_m g_iwmn rho_ma) lambda_jnwb
    hh = p.g_oaaa @ s.rv[:, None, None]                        # (i, w, n, a)
    gen[:, :, nc:, va] -= _dot(hh.transpose(0, 1, 4, 2, 3),
                               lam[:, :nao, :, :, nao:].transpose(0, 3, 2, 1, 4),
                               2).transpose(0, 1, 3, 2, 4)
    # b4_ijab = -sum_nmw rho_ni g_mnaw lambda_wjbm
    v = _dot(p.g_kwaa[None], lam[:, :, :nao, nao:].transpose(0, 4, 1, 2, 3), 2)
    gen[:, :, nc:] -= s.occ_side(v[:, :nc], v[:, nc:]).transpose(0, 1, 3, 2, 4)
    return gen


# ---------------------------------------------------------------------------
# Transformed orbital energies (denominators)
# ---------------------------------------------------------------------------

def transformed_energies(rdm: RdmPair, table: IntegralTable,
                         ref: ReferenceDeterminant, space: ActiveSpaceSpec | None = None):
    """Per-orbital energies dressed by the off-diagonal RDM blocks.

    Correlation pushes occupied levels down and virtual levels up, widening
    the denominators (this is what keeps stretched-bond corrections from
    overbinding); on a determinant RDM both formulas collapse to the bare
    Fock diagonal.  Returns (eps_occ, eps_virt), arrays ordered like
    ``ref.occupied`` and ``ref.virtual``, with a leading resample axis for a
    stack of pairs.

    With ``space`` (``rdm_pt2``'s partition) the RDM is the active pair, or
    the embedded one, whose rho1 must have the embedded form (checked;
    ValidationError otherwise): its occupied-virtual blocks vanish outside
    the active set, so only the active levels are dressed, from rho1 on
    Ao x Av and rho2 on Ao^2 x Av^2.  Without it the RDM is read in full.
    """
    _check_pt2_input(rdm)
    p = _plan(table, ref, space)
    r, r2, stacked = _cut(rdm, p, check=True)
    eps_occ, eps_virt = p.energies(r, r2)
    return (eps_occ, eps_virt) if stacked else (eps_occ[0], eps_virt[0])


def _dressed_energies(p: _Plan, r, r2):
    """``transformed_energies`` of a stack of active blocks as contractions."""
    o, v = slice(p.nao), slice(p.nao, None)  # Ao and Av within A
    eps_occ, eps_virt = p.bare_occ[None].repeat(len(r), 0), p.bare_virt[None].repeat(len(r), 0)
    eps_occ[:, p.ao_pos] = (
        p.bare_occ[p.ao_pos] + (p.h_ov * r[:, v, o].transpose(0, 2, 1)).sum(axis=2)
        + 0.5 * (p.g_oovv * r2[:, v, v, o, o].transpose(0, 3, 4, 1, 2)).sum(axis=(2, 3, 4)))
    eps_virt[:, p.av_pos] = (
        p.bare_virt[p.av_pos] - (p.h_vo * r[:, o, v].transpose(0, 2, 1)).sum(axis=2)
        - 0.5 * (p.g_vvoo * r2[:, o, o, v, v].transpose(0, 3, 4, 1, 2)).sum(axis=(2, 3, 4)))
    return eps_occ, eps_virt


# ---------------------------------------------------------------------------
# The second-order energy
# ---------------------------------------------------------------------------

def _second_order_sum(eps_occ, eps_virt, fmat, gten, occ, virt, keeps=(None, None)) -> float:
    """fsum of fmat_ia^2 / (e_i - e_a) + 1/4 gten_ijab^2 / (e_i + e_j - e_a - e_b).

    ``keeps`` holds a mask per excitation rank (or None: every channel) of
    the channels summed; ``occ``/``virt`` name the spin orbitals along each
    axis.  A kept denominator below the floor raises
    DegenerateDenominatorError naming the first such channel, singles before
    doubles, first in the order of the axes it is given.  Zero numerators
    (spin-forbidden channels and the i = j, a = b diagonals) are left out of
    the sum: ``math.fsum`` is correctly rounded, so neither that nor the
    order of the axes changes the result.
    """
    d1 = eps_occ[:, None] - eps_virt
    d2 = eps_occ[:, None, None, None] + eps_occ[:, None, None] - eps_virt[:, None] - eps_virt
    nums = (fmat ** 2, 0.25 * gten ** 2)
    roles = ((occ, virt), (occ, occ, virt, virt))
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
            space: ActiveSpaceSpec | None = None):
    """Second-order correction from the measured RDMs.

    Sums over the occupied/virtual split of ``ref`` within ``table``'s
    orbital space.  For a full-space correction, pass the active-space
    partition as ``space``: excitation channels lying entirely inside the
    active set are then skipped, since the active solver already treats
    them variationally (their true transformed numerators vanish at its
    optimum, and only reconstruction error would survive here).

    With ``space`` the numerators and transformed energies read only the
    active blocks of rho1 and rho2 and the partition (core deltas, active
    cumulant, nothing over frozen virtuals).  The RDM is then the active
    pair (rho over ``space.active``), or ``embed_active_rdm``'s embedding of
    it: rho1 the identity on ``frozen_occupied``, zero rows and columns on
    ``frozen_virtual`` and no core-active coupling (checked; ValidationError
    otherwise), and rho2 the embedding's (not checked).

    One pair gives a float and raises DegenerateDenominatorError below a
    1e-8 Ha denominator gap.  A stack of pairs gives one value per resample,
    the same as each pair's alone, and NaN where that resample's
    denominator is degenerate.
    """
    eps_occ, eps_virt = transformed_energies(rdm, table, ref, space)  # checks the input
    p = _plan(table, ref, space)
    r, r2, stacked = _cut(rdm, p)
    if not stacked:
        eps_occ, eps_virt = eps_occ[None], eps_virt[None]
    sums = []
    for args in zip(eps_occ[:, p.o_pos], eps_virt[:, p.w_pos], *p.numerators(r, r2)):
        try:
            sums.append(_second_order_sum(*args, p.occ, p.virt, p.keeps))
        except DegenerateDenominatorError:
            if not stacked:
                raise
            sums.append(np.nan)
    return np.array(sums) if stacked else sums[0]


def embed_active_rdm(active_rdm: RdmPair, spec: ActiveSpaceSpec) -> RdmPair:
    """Lift an active-space RDM to the full orbital space.

    Frozen-occupied orbitals get determinant blocks, frozen-active cross
    blocks are antisymmetrized products of the core density with the active
    1-RDM, and frozen-virtual blocks stay zero.
    """
    fo, act = list(spec.frozen_occupied), list(spec.active)
    n = len(fo) + len(act) + len(spec.frozen_virtual)
    spec.validate(n)
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
