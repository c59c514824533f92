"""Reduced density matrices from Pauli measurements, symmetry enforcement,
and bootstrap error propagation.

Conventions: rho1[p, q] = <a+_p a_q>, rho2[p, q, r, s] = <a+_p a+_q a_s a_r>,
so the traces are N and N(N-1) and the two-body energy carries a 1/4 factor.

Measurement is one linear map, compiled once per schedule:

    x = k0 + K . vec(P),    raw = sign * x[index]

P is the G x 2^n stack of outcome probabilities, one row per qubit-wise
commuting group in the order of ``schedule.bases`` (13 x 16 for 4 qubits),
column i the little-endian outcome after the group's basis rotation.  x holds
the measured elements (``elements1`` then ``elements2``, 18 for 4 qubits):
row e of K is e's Pauli coefficients times the outcome parities of its
words.  The coefficients come from matrices: e's ladder product A is a
matmul of ``qsim.jw_ladder`` matrices, and its hermitian part
O = (A + A+)/2 has c_w = Tr(P_w O) / 2^n on word w (k0 holds c_I).
raw is rho1.ravel() followed by rho2.ravel() (16 + 256 entries); each
position reads its element with the antisymmetry sign, and a vanishing
(Sz-changing or p = q) position has sign 0.
Sampled counts reach P through readout mitigation or normalisation, the
amplitudes psi of ``qsim.simulate`` as P[g] = |R_g psi|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, product

import numpy as np

from . import qsim
from .hamio import ValidationError


class CoverageError(ValidationError):
    """A required Pauli word was not present in any shot table."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("no shot table covers: " + ", ".join(self.missing))


@dataclass
class RdmMeta:
    """What the chain reads of a pair's history: ``provenance`` (raw ->
    symmetrized -> purified, or exact) gates purification and PT2;
    ``n_electrons`` defaults to the 2 that every measured pair holds;
    ``purification`` holds ``purify_rdm``'s diagnostics; ``readout_clipped``
    is the largest clipped quasi-probability mass of a circuit."""

    provenance: str = "raw"  # raw | symmetrized | purified | exact
    n_electrons: int = 2
    purification: dict | None = None
    readout_clipped: float = 0.0


@dataclass
class RdmPair:
    """Measured or derived 1-/2-RDM over the active spin orbitals."""

    rho1: np.ndarray
    rho2: np.ndarray
    meta: RdmMeta = field(default_factory=RdmMeta)

    @property
    def n_so(self) -> int:
        return self.rho1.shape[0]


# ---------------------------------------------------------------------------
# Sz bookkeeping
# ---------------------------------------------------------------------------

def _spins(n_so):
    return np.arange(n_so) & 1


def sz_conserving_mask_1(n_so):
    s = _spins(n_so)
    return s[:, None] == s[None, :]


def sz_conserving_mask_2(n_so):
    s = _spins(n_so)
    return (s[:, None, None, None] + s[None, :, None, None]
            == s[None, None, :, None] + s[None, None, None, :])


# ---------------------------------------------------------------------------
# Measurement schedule and the compiled map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasurementSchedule:
    """Which RDM elements are measured, and the compiled measurement map.

    ``elements1``/``elements2`` are the measured (stored-form) elements.
    Group g measures ``words[g]`` in basis ``bases[g]``, after the basis
    rotation whose unitary is ``rotations[g]``; ``k0``, ``K``, ``index`` and
    ``sign`` map the group probabilities to the raw RDMs (module docstring).
    Compared and hashed by identity: ``build_schedule`` returns one object
    per key.
    """

    n_so: int
    elements1: tuple
    elements2: tuple
    bases: tuple
    words: tuple
    rotations: np.ndarray
    k0: np.ndarray
    K: np.ndarray
    index: np.ndarray
    sign: np.ndarray


def _order_element(t):
    """Sort an index tuple into the stored form, tracking the antisymmetry sign."""
    if len(t) == 2:
        return (t, 1.0) if t[0] <= t[1] else ((t[1], t[0]), 1.0)
    p, q, r, s = t
    sign = 1.0
    if p > q:
        p, q, sign = q, p, -sign
    if r > s:
        r, s, sign = s, r, -sign
    if (p, q) > (r, s):
        p, q, r, s = r, s, p, q  # hermitian transpose, real tensors
    return ((p, q, r, s), sign)


def _elements(n_so):
    """Stored-form Sz-conserving elements."""
    mask1 = sz_conserving_mask_1(n_so)
    mask2 = sz_conserving_mask_2(n_so)
    el1 = [(p, q) for p in range(n_so) for q in range(p, n_so) if mask1[p, q]]
    el2 = [(p, q, r, s) for p in range(n_so) for q in range(p + 1, n_so)
           for r in range(n_so) for s in range(r + 1, n_so)
           if (p, q) <= (r, s) and mask2[p, q, r, s]]
    return el1, el2


_PAULI_BASIS = np.array([qsim.pauli_matrix(c) for c in "IXYZ"])


def _pauli_words(n):
    """Every n-letter Pauli word, in sorted order."""
    return ["".join(t) for t in product("IXYZ", repeat=n)]


def _pauli_coefficients(ops, n):
    """c[e, w] = Tr(P_w O_e) / 2^n for a stack of 2^n x 2^n operators, the
    words w in ``_pauli_words(n)`` order: one contraction of every qubit's
    row and column index with the 4 x 2 x 2 stack of I, X, Y, Z."""
    # the reshaped axes list qubit n - 1 first; labels: row of qubit q is
    # 1 + q, its column 1 + n + q and its letter 1 + 2n + q
    qubits = range(n - 1, -1, -1)
    args = [ops.reshape((len(ops),) + (2,) * (2 * n)),
            [0] + [1 + q for q in qubits] + [1 + n + q for q in qubits]]
    for q in range(n):  # Tr(P O) = sum_ij P[j, i] O[i, j]
        args += [_PAULI_BASIS, [1 + 2 * n + q, 1 + n + q, 1 + q]]
    coeffs = np.einsum(*args, [0] + [1 + 2 * n + q for q in range(n)], optimize=True)
    return coeffs.reshape(len(ops), -1) / (1 << n)


@lru_cache(maxsize=8)
def build_schedule(n_so) -> MeasurementSchedule:
    el1, el2 = _elements(n_so)
    a = [qsim.jw_ladder(p, n_so) for p in range(n_so)]
    ad = [m.conj().T for m in a]
    ops = np.array([ad[p] @ a[q] for p, q in el1]
                   + [ad[p] @ ad[q] @ a[s] @ a[r] for p, q, r, s in el2])
    coeffs = _pauli_coefficients(0.5 * (ops + ops.conj().transpose(0, 2, 1)), n_so).real
    k0, coeffs = coeffs[:, 0], coeffs[:, 1:]  # word 0 is the identity
    used = coeffs.any(axis=0)
    words = [w for w, u in zip(_pauli_words(n_so)[1:], used) if u]
    bases, assignment = qsim.qwc_groups(words)
    group = dict(zip(words, assignment))

    dim = 1 << n_so
    K = np.zeros((len(ops), len(bases) * dim))
    for w, c in zip(words, coeffs[:, used].T):
        K[:, group[w] * dim:(group[w] + 1) * dim] += np.outer(c, qsim.z_parity_signs(w))
    slot = {e: j for j, e in enumerate(el1 + el2)}
    index = np.zeros(n_so ** 2 + n_so ** 4, dtype=int)
    sign = np.zeros(index.size)
    positions = chain(product(range(n_so), repeat=2), product(range(n_so), repeat=4))
    for i, t in enumerate(positions):  # raw order: rho1.ravel(), rho2.ravel()
        e, s = _order_element(t)
        if e in slot:  # else the element vanishes: sign 0
            index[i], sign[i] = slot[e], s
    return MeasurementSchedule(
        n_so=n_so, elements1=tuple(el1), elements2=tuple(el2),
        bases=tuple(bases),
        words=tuple(tuple(w for w in words if group[w] == g) for g in range(len(bases))),
        rotations=np.array([qsim.basis_rotation(b).unitary() for b in bases]),
        k0=k0, K=K, index=index, sign=sign)


def _assemble(schedule: MeasurementSchedule, probs) -> np.ndarray:
    """The raw RDM vectors of a (..., G, 2^n) stack of group probabilities."""
    x = schedule.k0 + probs.reshape(probs.shape[:-2] + (-1,)) @ schedule.K.T
    return schedule.sign * x[..., schedule.index]


def _pair(schedule: MeasurementSchedule, raw, meta: RdmMeta) -> RdmPair:
    n = schedule.n_so
    return RdmPair(raw[:n * n].reshape(n, n), raw[n * n:].reshape(n, n, n, n), meta)


def _group_tables(tables, schedule: MeasurementSchedule) -> list:
    """One table per group, in group order; a CoverageError names the words
    of every group that has no table in its basis."""
    by_basis = {t.basis: t for t in tables}
    missing = [w for b, words in zip(schedule.bases, schedule.words)
               if b not in by_basis for w in words]
    if missing:
        raise CoverageError(missing)
    return [by_basis[b] for b in schedule.bases]


def _probabilities(counts, model):
    """Per-row outcome probabilities, readout-mitigated when ``model`` is
    given, and the largest clipped fraction of any row (0 without a model)."""
    if model is not None:
        probs, clipped = qsim.mitigate_readout(counts, model)
        return probs, float(clipped.max())
    total = counts.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValidationError("empty shot table")
    return counts / total, 0.0


def rdm_from_shots(tables, schedule: MeasurementSchedule, model=None) -> RdmPair:
    """Assemble the raw RDMs from measured shot tables, inverting ``model``'s
    readout confusion first when one is given.

    Every group of the schedule needs a table in its basis; otherwise a
    CoverageError lists the words of the uncovered groups.
    """
    tables = _group_tables(tables, schedule)
    counts = np.array([t.counts for t in tables], dtype=float)
    probs, clipped = _probabilities(counts, model)
    return _pair(schedule, _assemble(schedule, probs), RdmMeta(readout_clipped=clipped))


def rdm_from_state(amplitudes, schedule: MeasurementSchedule) -> RdmPair:
    """Infinite-shot (exact expectation) assembly from the amplitude array
    psi of ``qsim.simulate``: P[g] = |R_g psi|^2."""
    probs = np.abs(schedule.rotations @ amplitudes) ** 2
    return _pair(schedule, _assemble(schedule, probs), RdmMeta())


# ---------------------------------------------------------------------------
# Symmetry enforcement
# ---------------------------------------------------------------------------

def symmetrize(rdm: RdmPair) -> RdmPair:
    """Zero every element whose indices change total Sz, then average each
    element with its alpha<->beta reflection (idempotent).  A raw pair comes
    out "symmetrized"; exact and purified pairs keep their provenance."""
    n = rdm.n_so
    f = np.arange(n) ^ 1  # alpha <-> beta spin partner
    rho1 = np.where(sz_conserving_mask_1(n), rdm.rho1, 0.0)
    rho2 = np.where(sz_conserving_mask_2(n), rdm.rho2, 0.0)
    rho1 = 0.5 * (rho1 + rho1[np.ix_(f, f)])
    rho2 = 0.5 * (rho2 + rho2[np.ix_(f, f, f, f)])
    kept = rdm.meta.provenance in ("purified", "exact")
    return RdmPair(rho1, rho2, replace(
        rdm.meta, provenance=rdm.meta.provenance if kept else "symmetrized"))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

# Resamples mitigated and assembled per call.  The stacked arrays of a block
# are freed before the next one: holding all 200 resamples of a LiH point
# raised the process's peak RSS by 1.5 MiB, blocks of 25 by 0.3 MiB.
_BOOTSTRAP_BLOCK = 25


@dataclass
class BootstrapEnsemble:
    """Multinomial-resampling ensemble of pipeline outputs: ``samples`` maps
    each scalar name to its per-resample values, NaN where a resample failed;
    ``failed`` counts those resamples, and ``mean``/``std`` are taken over the
    rest, so a name whose every resample failed has neither."""

    n_resamples: int
    samples: dict
    mean: dict
    std: dict
    failed: dict


def bootstrap(tables, schedule: MeasurementSchedule, n, pipeline, model=None,
              seed=0) -> BootstrapEnsemble:
    """Resample each circuit's counts n times and rerun the pipeline.

    Resample i draws every circuit in one multinomial from its own
    generator.  Blocks of ``_BOOTSTRAP_BLOCK`` resamples are mitigated (with
    ``model``) and assembled in one call each, and ``pipeline`` maps each
    resample's raw RdmPair to a dict of floats; a value of None, or a name
    the dict leaves out, marks that resample failed for that name.  Summary
    statistics use the population convention, so one kept resample gives
    std 0.
    """
    if n < 1:
        raise ValidationError("need at least one resample")
    for t in tables:
        if t.shots < 1:
            raise ValidationError("every table needs at least one shot")
    tables = _group_tables(tables, schedule)
    shots = [t.shots for t in tables]
    probs, _ = _probabilities(np.array([t.counts for t in tables], dtype=float), None)
    out = {}
    for start in range(0, n, _BOOTSTRAP_BLOCK):
        block = range(start, min(n, start + _BOOTSTRAP_BLOCK))
        draws = np.array([qsim._rng_for(seed, 1, i).multinomial(shots, probs)
                          for i in block], dtype=float)
        raw = _assemble(schedule, _probabilities(draws, model)[0])
        for i, raw_i in zip(block, raw):
            for k, v in pipeline(_pair(schedule, raw_i, RdmMeta())).items():
                if k not in out:
                    out[k] = np.full(n, np.nan)
                out[k][i] = np.nan if v is None else v
    kept = {k: v[~np.isnan(v)] for k, v in out.items()}
    mean = {k: float(v.mean()) for k, v in kept.items() if v.size}
    std = {k: float(v.std(ddof=0)) for k, v in kept.items() if v.size}
    return BootstrapEnsemble(n_resamples=n, samples=out, mean=mean, std=std,
                             failed={k: n - v.size for k, v in kept.items()})
