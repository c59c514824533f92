"""Reduced density matrices from Pauli measurements, symmetry enforcement,
and bootstrap error propagation.

Conventions: rho1[p, q] = <a+_p a_q>, rho2[p, q, r, s] = <a+_p a+_q a_s a_r>,
so the traces are N and N(N-1) and the two-body energy carries a 1/4 factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .hamio import ValidationError
from .qsim import PauliString, ShotTable, jw_hermitian


class CoverageError(ValidationError):
    """A required Pauli word was not present in any shot table."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("no shot table covers: " + ", ".join(self.missing))


@dataclass
class RdmMeta:
    provenance: str = "raw"  # raw | symmetrized | purified | exact
    shots: int = 0
    seed: int = 0
    n_electrons: int = 2
    sz_enforced: bool = False
    reflection_averaged: bool = False
    purification: dict | None = None


@dataclass
class RdmPair:
    """Measured or derived 1-/2-RDM over the active spin orbitals."""

    rho1: np.ndarray
    rho2: np.ndarray
    meta: RdmMeta = field(default_factory=RdmMeta)

    @property
    def n_so(self) -> int:
        return self.rho1.shape[0]

    def trace1(self) -> float:
        return float(np.trace(self.rho1))

    def trace2(self) -> float:
        return float(np.einsum("pqpq->", self.rho2))

    def validate(self, tol=1e-8):
        if not np.allclose(self.rho1, self.rho1.T, atol=tol):
            raise ValidationError("rho1 is not hermitian")
        r2 = self.rho2
        if not np.allclose(r2, -r2.transpose(1, 0, 2, 3), atol=tol):
            raise ValidationError("rho2 violates bra antisymmetry")
        if not np.allclose(r2, -r2.transpose(0, 1, 3, 2), atol=tol):
            raise ValidationError("rho2 violates ket antisymmetry")
        if not np.allclose(r2, r2.transpose(2, 3, 0, 1), atol=tol):
            raise ValidationError("rho2 is not hermitian")
        return self

    def to_json(self) -> dict:
        return {
            "n_so": self.n_so,
            "rho1": self.rho1.tolist(),
            "rho2": self.rho2.reshape(-1).tolist(),
            "meta": {
                "provenance": self.meta.provenance,
                "shots": self.meta.shots,
                "seed": self.meta.seed,
                "n_electrons": self.meta.n_electrons,
                "sz_enforced": self.meta.sz_enforced,
                "reflection_averaged": self.meta.reflection_averaged,
                "purification": self.meta.purification,
            },
            "trace1": self.trace1(),
            "trace2": self.trace2(),
        }

    @classmethod
    def from_json(cls, d) -> "RdmPair":
        n = int(d["n_so"])
        meta = RdmMeta(**d["meta"])
        return cls(np.asarray(d["rho1"], dtype=float),
                   np.asarray(d["rho2"], dtype=float).reshape(n, n, n, n), meta)


def determinant_rdm(occupied, n_so) -> RdmPair:
    """Exact RDMs of a single determinant."""
    occ = sorted(occupied)
    rho1 = np.zeros((n_so, n_so))
    for p in occ:
        rho1[p, p] = 1.0
    n = rho1.diagonal()
    rho2 = (np.einsum("p,q,pr,qs->pqrs", n, n, np.eye(n_so), np.eye(n_so))
            - np.einsum("p,q,ps,qr->pqrs", n, n, np.eye(n_so), np.eye(n_so)))
    return RdmPair(rho1, rho2, RdmMeta(provenance="exact", n_electrons=len(occ)))


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


def _flip(n_so):
    """alpha <-> beta index permutation (spin partner)."""
    idx = np.arange(n_so)
    return idx ^ 1


# ---------------------------------------------------------------------------
# Measurement schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementSchedule:
    """Which RDM elements are measured and their Pauli decompositions.

    Each element maps to (identity offset, ((pauli word, real coeff), ...)).
    With ``mirror`` set, only one representative per spin-reflection orbit is
    scheduled and the partner is filled in by symmetry at assembly time.
    """

    n_so: int
    mirror: bool
    elements1: tuple
    elements2: tuple
    decomp1: dict
    decomp2: dict
    observables: tuple


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


def _canonical_element(idx, n_so):
    """Representative of the spin-reflection orbit of an index tuple.

    Returns (canonical tuple, sign); the canonical tuple is the
    lexicographically smaller of the ordered element and its ordered spin flip.
    """
    a, sa = _order_element(idx)
    b, sb = _order_element(tuple(i ^ 1 for i in idx))
    return (a, sa) if a <= b else (b, sb)


def _decompose(ops, n_so):
    """Identity offset and real Pauli coefficients of (A + A+)/2."""
    const = 0.0
    terms = []
    for t in jw_hermitian(ops, n_so):
        if abs(t.coeff.imag) > 1e-12:
            raise AssertionError("hermitian part produced a complex coefficient")
        c = float(t.coeff.real)
        if t.ops == "I" * n_so:
            const += c
        else:
            terms.append((t.ops, c))
    return const, tuple(terms)


@lru_cache(maxsize=8)
def build_schedule(n_so, mirror=False) -> MeasurementSchedule:
    mask1 = sz_conserving_mask_1(n_so)
    mask2 = sz_conserving_mask_2(n_so)
    el1, el2 = [], []
    for p in range(n_so):
        for q in range(p, n_so):
            if not mask1[p, q]:
                continue
            if mirror and _canonical_element((p, q), n_so)[0] != (p, q):
                continue
            el1.append((p, q))
    for p in range(n_so):
        for q in range(p + 1, n_so):
            for r in range(n_so):
                for s in range(r + 1, n_so):
                    if (p, q) > (r, s) or not mask2[p, q, r, s]:
                        continue
                    if mirror and _canonical_element((p, q, r, s), n_so)[0] != (p, q, r, s):
                        continue
                    el2.append((p, q, r, s))
    d1 = {e: _decompose([(e[0], True), (e[1], False)], n_so) for e in el1}
    d2 = {e: _decompose([(e[0], True), (e[1], True), (e[3], False), (e[2], False)], n_so)
          for e in el2}
    words = sorted({w for _, terms in list(d1.values()) + list(d2.values())
                    for w, _ in terms})
    return MeasurementSchedule(
        n_so=n_so, mirror=mirror, elements1=tuple(el1), elements2=tuple(el2),
        decomp1=d1, decomp2=d2,
        observables=tuple(PauliString(w) for w in words))


def _set1(rho1, p, q, v):
    rho1[p, q] = v
    rho1[q, p] = v


def _set2(rho2, p, q, r, s, v):
    for (a, b, sg1) in ((p, q, 1.0), (q, p, -1.0)):
        for (c, d, sg2) in ((r, s, 1.0), (s, r, -1.0)):
            rho2[a, b, c, d] = sg1 * sg2 * v
            rho2[c, d, a, b] = sg1 * sg2 * v


def rdm_from_expectations(expectation, schedule: MeasurementSchedule,
                          meta: RdmMeta | None = None) -> RdmPair:
    """Assemble an RdmPair from a Pauli-word expectation callable."""
    n = schedule.n_so
    rho1 = np.zeros((n, n))
    rho2 = np.zeros((n, n, n, n))
    for e, (const, terms) in schedule.decomp1.items():
        v = const + sum(c * expectation(w) for w, c in terms)
        _set1(rho1, *e, v)
    for e, (const, terms) in schedule.decomp2.items():
        v = const + sum(c * expectation(w) for w, c in terms)
        _set2(rho2, *e, v)
    if schedule.mirror:
        full = build_schedule(n, mirror=False)
        for e in full.elements1:
            if e not in schedule.decomp1:
                src, sign = _order_element(tuple(i ^ 1 for i in e))
                _set1(rho1, *e, sign * rho1[src])
        for e in full.elements2:
            if e not in schedule.decomp2:
                src, sign = _order_element(tuple(i ^ 1 for i in e))
                _set2(rho2, *e, sign * rho2[src])
    return RdmPair(rho1, rho2, meta or RdmMeta())


def rdm_from_shots(tables, schedule: MeasurementSchedule, n_electrons=2) -> RdmPair:
    """Assemble the raw RDMs from measured shot tables.

    Every scheduled Pauli word must be measurable in some table's basis;
    otherwise a CoverageError lists the uncovered words.
    """
    lookup = {}
    missing = []
    for pauli in schedule.observables:
        table = next((t for t in tables
                      if all(c == "I" or c == t.basis[k]
                             for k, c in enumerate(pauli.ops))), None)
        if table is None:
            missing.append(pauli.ops)
        else:
            lookup[pauli.ops] = table.expectation(pauli)
    if missing:
        raise CoverageError(missing)
    shots = max((t.shots for t in tables), default=0)
    seed = tables[0].seed if tables else 0
    meta = RdmMeta(provenance="raw", shots=shots, seed=seed, n_electrons=n_electrons)
    return rdm_from_expectations(lookup.__getitem__, schedule, meta)


def rdm_from_state(statevector, schedule: MeasurementSchedule,
                   n_electrons=2) -> RdmPair:
    """Infinite-shot (exact expectation) assembly from a statevector."""
    cache = {}

    def expectation(word):
        if word not in cache:
            cache[word] = float(statevector.expectation(PauliString(word)).real)
        return cache[word]

    meta = RdmMeta(provenance="raw", shots=0, seed=0, n_electrons=n_electrons)
    return rdm_from_expectations(expectation, schedule, meta)


# ---------------------------------------------------------------------------
# Symmetry enforcement
# ---------------------------------------------------------------------------

def enforce_sz(rdm: RdmPair) -> RdmPair:
    """Zero every element whose index multiset changes total Sz (idempotent)."""
    n = rdm.n_so
    rho1 = np.where(sz_conserving_mask_1(n), rdm.rho1, 0.0)
    rho2 = np.where(sz_conserving_mask_2(n), rdm.rho2, 0.0)
    meta = replace(rdm.meta, sz_enforced=True)
    meta.provenance = _symmetrized_provenance(meta)
    return RdmPair(rho1, rho2, meta)


def spin_reflection_average(rdm: RdmPair) -> RdmPair:
    """Average each element with its alpha<->beta reflection (idempotent)."""
    n = rdm.n_so
    f = _flip(n)
    rho1 = 0.5 * (rdm.rho1 + rdm.rho1[np.ix_(f, f)])
    rho2 = 0.5 * (rdm.rho2 + rdm.rho2[np.ix_(f, f, f, f)])
    meta = replace(rdm.meta, reflection_averaged=True)
    meta.provenance = _symmetrized_provenance(meta)
    return RdmPair(rho1, rho2, meta)


def _symmetrized_provenance(meta: RdmMeta) -> str:
    if meta.provenance in ("purified", "exact"):
        return meta.provenance
    return "symmetrized" if (meta.sz_enforced and meta.reflection_averaged) else meta.provenance


def symmetrize(rdm: RdmPair) -> RdmPair:
    return spin_reflection_average(enforce_sz(rdm))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass
class BootstrapEnsemble:
    """Multinomial-resampling ensemble of pipeline outputs.

    ``samples`` maps each scalar name to its per-resample values; pipelines
    returning a bare float are stored under "value".
    """

    n_resamples: int
    samples: dict
    mean: dict
    std: dict

    def summary(self) -> dict:
        return {k: {"mean": self.mean[k], "std": self.std[k]} for k in sorted(self.samples)}


def _resample_table(table: ShotTable, rng) -> ShotTable:
    v = table.count_vector()
    total = v.sum()
    if total <= 0:
        raise ValidationError("cannot resample an empty shot table")
    probs = v / total
    counts = rng.multinomial(table.shots, probs)
    from .qsim import bitstring
    return ShotTable(basis=table.basis,
                     counts={bitstring(i, table.n_qubits): int(c)
                             for i, c in enumerate(counts) if c},
                     shots=table.shots, seed=table.seed, n_qubits=table.n_qubits)


def bootstrap(tables, n, pipeline, seed=0) -> BootstrapEnsemble:
    """Resample each circuit's counts n times and rerun the pipeline.

    ``pipeline`` maps a list of ShotTables to a float or a dict of floats.
    Summary statistics use the population convention, so n = 1 gives std 0.
    """
    if n < 1:
        raise ValidationError("need at least one resample")
    for t in tables:
        if t.shots < 1:
            raise ValidationError("every table needs at least one shot")
    out = None
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(1, i))))
        vals = pipeline([_resample_table(t, rng) for t in tables])
        if not isinstance(vals, dict):
            vals = {"value": float(vals)}
        if out is None:
            out = {k: np.empty(n) for k in vals}
        for k, v in vals.items():
            out[k][i] = float(v)
    mean = {k: float(v.mean()) for k, v in out.items()}
    std = {k: float(v.std(ddof=0)) for k, v in out.items()}
    return BootstrapEnsemble(n_resamples=n, samples=out, mean=mean, std=std)
