"""Molecular integral tables and Hamiltonian bookkeeping.

Spin orbitals are indexed ``2 * spatial + spin`` with spin 0 = alpha,
1 = beta.  Two-electron integrals are stored dense in the antisymmetrized
physicists' convention g_pqrs = <pq||rs>; FCIDUMP files (chemists' (ij|kl)
over spatial orbitals) are converted once at load time.

An FCIDUMP body line is ``value i j k l`` with 1-based orbital indices in
[0, NORB]: ``0 0 0 0`` is the core energy (the last one wins); ``i j 0 0``
is a one-body integral; ``i 0 0 0`` (or ``0 j 0 0``) is an orbital-energy
record, which is skipped; a two-body integral has all four indices >= 1.
A later line for the same integral, up to its permutation symmetry, wins.
Anything else raises an error that names the line.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP content."""


class ValidationError(ValueError):
    """Raised when inputs violate a structural precondition."""


def _is_count(x, least=1) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def _is_finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _reject_unknown(cfg, cls, what):
    """Reject, by name, the keys of ``cfg`` that are no field of dataclass ``cls``."""
    unknown = sorted(set(cfg) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(unknown)}")


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """One- and two-body integrals over spin orbitals, plus nuclear repulsion.

    ``h`` is hermitian, ``g`` carries the full antisymmetry
    g_pqrs = -g_qprs = -g_pqsr and vanishes unless spins pair up.
    Instances are immutable; the arrays are marked read-only.  A table is
    hashed and compared by identity (``pt2`` keys its plans by it).
    """

    n_spatial: int
    n_electrons: int
    e_nuclear: float
    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        h = np.ascontiguousarray(self.h, dtype=float)
        g = np.ascontiguousarray(self.g, dtype=float)
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        n = 2 * self.n_spatial
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise ValidationError(
                f"tensor shapes {self.h.shape}/{self.g.shape} do not match "
                f"{self.n_spatial} spatial orbitals")

    @property
    def n_so(self) -> int:
        return 2 * self.n_spatial


@dataclass(frozen=True)
class ReferenceDeterminant:
    """A single determinant: the occupied spin orbitals of |phi>."""

    occupied: tuple
    n_so: int

    def __post_init__(self):
        occ = tuple(sorted(self.occupied))
        if len(set(occ)) != len(occ):
            raise ValidationError("duplicate occupied index")
        if occ and (occ[0] < 0 or occ[-1] >= self.n_so):
            raise ValidationError("occupied index out of range")
        object.__setattr__(self, "occupied", occ)

    @property
    def virtual(self) -> tuple:
        occ = set(self.occupied)
        return tuple(p for p in range(self.n_so) if p not in occ)

    @classmethod
    def aufbau(cls, table: IntegralTable) -> "ReferenceDeterminant":
        return cls(tuple(range(table.n_electrons)), table.n_so)


@dataclass(frozen=True)
class NormalOrderedHamiltonian:
    """E0 and Fock matrix f relative to a determinant (the two-body part
    is the table's g unchanged)."""

    e0: float
    f: np.ndarray


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Partition of the spin orbitals into frozen/active sets."""

    frozen_occupied: tuple
    active: tuple
    frozen_virtual: tuple

    def __post_init__(self):
        for name in ("frozen_occupied", "active", "frozen_virtual"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))

    def validate(self, n_so: int):
        union = set(self.frozen_occupied) | set(self.active) | set(self.frozen_virtual)
        total = len(self.frozen_occupied) + len(self.active) + len(self.frozen_virtual)
        if union != set(range(n_so)) or total != n_so:
            raise ValidationError("sets do not partition the spin orbitals")
        return self

    @classmethod
    def from_active_spatials(cls, n_spatial, n_electrons, active_spatials):
        """Active space from spatial orbital indices; the rest is frozen by aufbau."""
        act = []
        for sp in sorted(active_spatials):
            act += [2 * sp, 2 * sp + 1]
        occ = set(range(n_electrons))
        rest = [p for p in range(2 * n_spatial) if p not in set(act)]
        return cls(tuple(p for p in rest if p in occ), tuple(act),
                   tuple(p for p in rest if p not in occ))


# ---------------------------------------------------------------------------
# FCIDUMP ingestion
# ---------------------------------------------------------------------------

def _spin_expand(h_sp, chem, n_sp):
    """Spatial chemists' integrals -> spin-orbital <pq||rs>."""
    n_so = 2 * n_sp
    h = np.zeros((n_so, n_so))
    direct = np.zeros((n_so,) * 4)
    # <pq|rs> = (PR|QS) on matching spins; chem (ij|kl) = <ik|jl>
    phys_sp = chem.transpose(0, 2, 1, 3)
    for s in (0, 1):
        h[s::2, s::2] = h_sp
        for t in (0, 1):
            direct[s::2, t::2, s::2, t::2] = phys_sp
    g = direct - direct.transpose(0, 1, 3, 2)
    return h, g


def load_fcidump(path) -> IntegralTable:
    """Parse an FCIDUMP file into a spin-orbital IntegralTable.

    The file holds chemists' (ij|kl) integrals over spatial orbitals with
    1-based indices; all 8-fold permutation symmetries are expanded.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    header_lines = []
    body_start = None
    for ln, line in enumerate(lines):
        header_lines.append(line)
        if "&END" in line.upper() or line.strip() == "/" or line.strip().endswith("/"):
            body_start = ln + 1
            break
    if body_start is None:
        raise FcidumpError("no &END (or '/') terminating the header")
    header = " ".join(header_lines)
    if "&FCI" not in header.upper():
        raise FcidumpError(f"header does not start a &FCI namelist: {header_lines[0]!r}")

    def field_int(name):
        m = re.search(rf"{name}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if not m:
            raise FcidumpError(f"header is missing {name}: {header_lines[0]!r}")
        return int(m.group(1))

    n_sp = field_int("NORB")
    n_elec = field_int("NELEC")
    ms2 = field_int("MS2")
    if ms2 != 0:
        raise FcidumpError(f"MS2={ms2}: only closed-shell (MS2=0) systems are supported")
    if n_sp < 1:
        raise FcidumpError(f"NORB={n_sp}: at least one orbital is needed")
    if not (0 <= n_elec <= 2 * n_sp and n_elec % 2 == 0):
        raise FcidumpError(f"NELEC={n_elec}: a closed shell needs an even count "
                           f"from 0 to 2*NORB = {2 * n_sp}")

    h_sp = np.zeros((n_sp, n_sp))
    chem = np.zeros((n_sp, n_sp, n_sp, n_sp))
    e_nuc = None
    for ln in range(body_start, len(lines)):
        line = lines[ln].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {ln + 1}: expected 'value i j k l', got {line!r}")
        try:
            val = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {ln + 1}: {exc}") from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_sp:
                raise ValidationError(f"line {ln + 1}: orbital index {idx} out of range")
        if i == j == k == l == 0:
            e_nuc = val
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                continue  # orbital-energy records from some writers
            h_sp[i - 1, j - 1] = h_sp[j - 1, i - 1] = val
        else:
            if 0 in (i, j, k, l):
                raise ValidationError(f"line {ln + 1}: malformed index quartet")
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for (p, q, r, s) in {(a, b, c, d), (b, a, c, d), (a, b, d, c),
                                 (b, a, d, c), (c, d, a, b), (d, c, a, b),
                                 (c, d, b, a), (d, c, b, a)}:
                chem[p, q, r, s] = val
    if e_nuc is None:
        raise ValidationError("missing core entry (0 0 0 0 nuclear repulsion)")

    h, g = _spin_expand(h_sp, chem, n_sp)
    return IntegralTable(n_spatial=n_sp, n_electrons=n_elec,
                         e_nuclear=e_nuc, h=h, g=g)


# ---------------------------------------------------------------------------
# Normal ordering and derived energies
# ---------------------------------------------------------------------------

def normal_order(table: IntegralTable, ref: ReferenceDeterminant) -> NormalOrderedHamiltonian:
    """Rewrite the Hamiltonian relative to ``ref`` (Wick's theorem).

    e0 = e_nuclear + sum_i h_ii + 1/2 sum_ij g_ijij over occupied indices,
    f_pq = h_pq + sum_i g_piqi, and the two-body part is unchanged.
    """
    if ref.n_so != table.n_so:
        raise ValidationError("reference determinant does not match the table")
    occ = list(ref.occupied)
    e0 = table.e_nuclear + float(np.trace(table.h[np.ix_(occ, occ)]))
    e0 += 0.5 * float(np.einsum("ijij->", table.g[np.ix_(occ, occ, occ, occ)]))
    f = table.h + np.einsum("piqi->pq", table.g[:, occ][:, :, :, occ])
    return NormalOrderedHamiltonian(e0=e0, f=f)


def freeze_core(table: IntegralTable, spec: ActiveSpaceSpec) -> IntegralTable:
    """Fold frozen-occupied orbitals into an active-space effective table."""
    spec.validate(table.n_so)
    core = list(spec.frozen_occupied)
    act = list(spec.active)
    pairs = {p >> 1 for p in act}
    if len(act) != 2 * len(pairs):
        raise ValidationError("active set must contain full alpha/beta pairs")
    e_core = table.e_nuclear + float(np.trace(table.h[np.ix_(core, core)]))
    e_core += 0.5 * float(np.einsum("cdcd->", table.g[np.ix_(core, core, core, core)]))
    h_act = table.h[np.ix_(act, act)] + np.einsum(
        "pcqc->pq", table.g[np.ix_(act, core, act, core)])
    g_act = table.g[np.ix_(act, act, act, act)]
    return IntegralTable(n_spatial=len(act) // 2,
                         n_electrons=table.n_electrons - len(core),
                         e_nuclear=e_core, h=h_act, g=g_act)


def energy_from_rdm(table: IntegralTable, rdm) -> float:
    """E = e_nuclear + sum h_pq rho_pq + 1/4 sum g_pqrs rho_pqrs."""
    rho1 = np.asarray(rdm.rho1)
    rho2 = np.asarray(rdm.rho2)
    n = table.n_so
    if rho1.shape != (n, n) or rho2.shape != (n, n, n, n):
        raise ValidationError(
            f"RDM dimensions {rho1.shape}/{rho2.shape} do not match table ({n} spin orbitals)")
    return (table.e_nuclear + float(np.sum(table.h * rho1))
            + 0.25 * float(np.sum(table.g * rho2)))


# ---------------------------------------------------------------------------
# Fixture registry
# ---------------------------------------------------------------------------

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_manifest() -> dict:
    return json.loads((FIXTURE_DIR / "manifest.json").read_text())


def load_fixture(fixture_id: str):
    """Load a committed fixture; returns (IntegralTable, manifest entry)."""
    manifest = load_manifest()
    if fixture_id not in manifest["fixtures"]:
        raise KeyError(f"fixture not found: {fixture_id!r} "
                       f"(available: {sorted(manifest['fixtures'])})")
    entry = manifest["fixtures"][fixture_id]
    table = load_fcidump(FIXTURE_DIR / entry["file"])
    return table, entry
