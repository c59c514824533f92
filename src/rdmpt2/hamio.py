"""Molecular integral tables and Hamiltonian bookkeeping.

Spin orbitals are indexed ``2 * spatial + spin`` with spin 0 = alpha,
1 = beta.  Two-electron integrals are stored dense in the antisymmetrized
physicists' convention g_pqrs = <pq||rs>; FCIDUMP files (chemists' (ij|kl)
over spatial orbitals) are converted once at load time.

An FCIDUMP body line is ``value i j k l`` with 1-based orbital indices in
[0, NORB]: ``0 0 0 0`` is the core energy (the last one wins); ``i j 0 0``
is a one-body integral; ``i 0 0 0`` is an orbital-energy record, which is
skipped; a two-body integral has all four indices >= 1.
A later line for the same integral, up to its permutation symmetry, wins.
Anything else raises an error that names the line.
The body is read in one pass that splits and converts (``float``, ``int``)
every line; the rules then run on arrays, and the first bad line in file
order raises.  With 0 as an index, the core energy, h and (ij|kl) are blocks
of one (NORB + 1)^4 array, and one scatter writes the last line of each
permutation class: NumPy leaves open which of two writes to one entry wins.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from itertools import chain
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


def _read_only(array):
    """``array`` marked read-only, for an array that callers share."""
    array.flags.writeable = False
    return array


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
        for name in ("h", "g"):
            object.__setattr__(self, name, _read_only(
                np.ascontiguousarray(getattr(self, name), dtype=float)))
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
        act = [p for sp in sorted(active_spatials) for p in (2 * sp, 2 * sp + 1)]
        occ = set(range(n_electrons))
        rest = [p for p in range(2 * n_spatial) if p not in set(act)]
        return cls(tuple(p for p in rest if p in occ), tuple(act),
                   tuple(p for p in rest if p not in occ))


# ---------------------------------------------------------------------------
# FCIDUMP ingestion
# ---------------------------------------------------------------------------

def _spin_expand(h_sp, chem, n_sp):
    """Spatial chemists' integrals -> spin-orbital <pq||rs>, spin block by block."""
    h = np.zeros((2 * n_sp,) * 2)
    g = np.zeros((2 * n_sp,) * 4)
    # <pq|rs> = (PR|QS) on matching spins; chem (ij|kl) = <ik|jl>
    direct = chem.transpose(0, 2, 1, 3)
    exchange = direct.transpose(0, 1, 3, 2)
    same_spin, exchange_only = direct - exchange, 0.0 - exchange  # -exchange has -0.0s
    for s, t in ((0, 1), (1, 0)):
        h[s::2, s::2] = h_sp
        g[s::2, s::2, s::2, s::2] = same_spin
        g[s::2, t::2, s::2, t::2] = direct
        g[s::2, t::2, t::2, s::2] = exchange_only
    return h, g


def _convert(tokens):
    """The values of whole 5-token lines, and their indices i, then j, k, l."""
    return (np.array(list(map(float, tokens[0::5]))),
            list(map(int, tokens[1::5] + tokens[2::5] + tokens[3::5] + tokens[4::5])))


# The axes i, j, k, l go to in (ij|kl), (ji|kl), ... (kl|ji), (lk|ji)
_AXES = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2],
                  [2, 3, 0, 1], [2, 3, 1, 0], [3, 2, 0, 1], [3, 2, 1, 0]])
# Zero bits of i, j, k, l; well-formed: 0, 12 'i j 0 0', 14 'i 0 0 0', 15 core
# (13, '0 j 0 0', gets a hint of its own)
_ZERO_BITS = np.array([1, 2, 4, 8])
_MALFORMED = np.array([bits not in (0, 12, 14, 15) for bits in range(16)])


def load_fcidump(path) -> IntegralTable:
    """Parse an FCIDUMP file into a spin-orbital IntegralTable.

    The file holds chemists' (ij|kl) integrals over spatial orbitals with
    1-based indices; all 8-fold permutation symmetries are expanded.  The
    body is read in one pass and checked as arrays; the first bad line
    raises, and the last line of each integral is kept before one scatter.
    """
    lines = Path(path).read_text().splitlines()
    body_start = next((ln + 1 for ln, line in enumerate(lines)
                       if "&END" in line.upper() or line.strip().endswith("/")), None)
    if body_start is None:
        raise FcidumpError("no &END (or '/') terminating the header")
    header = " ".join(lines[:body_start])
    if "&FCI" not in header.upper():
        raise FcidumpError(f"header does not start a &FCI namelist: {lines[0]!r}")

    def field_int(name):
        m = re.search(rf"{name}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if not m:
            raise FcidumpError(f"header is missing {name}: {lines[0]!r}")
        return int(m.group(1))

    n_sp, n_elec, ms2 = map(field_int, ("NORB", "NELEC", "MS2"))
    if ms2 != 0:
        raise FcidumpError(f"MS2={ms2}: only closed-shell (MS2=0) systems are supported")
    if n_sp < 1:
        raise FcidumpError(f"NORB={n_sp}: at least one orbital is needed")
    if not (0 <= n_elec <= 2 * n_sp and n_elec % 2 == 0):
        raise FcidumpError(f"NELEC={n_elec}: a closed shell needs an even count "
                           f"from 0 to 2*NORB = {2 * n_sp}")

    split = list(map(str.split, lines[body_start:]))
    rows = [parts for parts in split if parts]
    line_no = [ln for ln, parts in enumerate(split, body_start + 1) if parts]
    widths = list(map(len, rows))
    n = len(rows) if widths.count(5) == len(rows) else int(np.argmax(np.array(widths) != 5))
    late = None if n == len(rows) else FcidumpError(  # raised unless an earlier line fails
        f"line {line_no[n]}: expected 'value i j k l', got {lines[line_no[n] - 1].strip()!r}")
    tokens = list(chain.from_iterable(rows[:n]))
    try:
        values, ints = _convert(tokens)
    except ValueError:  # stop before the first line that does not convert
        for r in range(n):
            try:
                _convert(tokens[5 * r:5 * r + 5])
            except ValueError as exc:
                late, n = FcidumpError(f"line {line_no[r]}: {exc}"), r
                break
        values, ints = _convert(tokens[:5 * n])
    try:
        idx = np.array(ints, dtype=np.int64).reshape(4, n)
    except OverflowError:  # beyond int64 is out of range all the same
        idx = np.array([min(max(x, -1), n_sp + 1) for x in ints]).reshape(4, n)
    outside = idx.view(np.uint64) > n_sp  # a negative index wraps above NORB
    pattern = _ZERO_BITS @ (idx == 0)
    bad = outside.any(axis=0) | _MALFORMED[pattern]
    if bad.any():
        r = int(np.argmax(bad))
        if outside[:, r].any():
            raise ValidationError(f"line {line_no[r]}: orbital index "
                                  f"{ints[np.argmax(outside[:, r]) * n + r]} out of range")
        hint = (f" {lines[line_no[r] - 1].strip()!r}; an orbital-energy record is "
                "written 'i 0 0 0'") if pattern[r] == 13 else ""
        raise ValidationError(f"line {line_no[r]}: malformed index quartet{hint}")
    if late is not None:
        raise late
    if not (pattern == 15).any():
        raise ValidationError("missing core entry (0 0 0 0 nuclear repulsion)")
    sites = (n_sp + 1) ** (3 - _AXES) @ idx  # flat positions, (8, lines)
    _, first = np.unique(sites.min(axis=0)[::-1], return_index=True)
    last = n - 1 - first  # the last line of each permutation class
    out = np.zeros((n_sp + 1,) * 4)
    out.reshape(-1)[sites[:, last]] = values[last]
    h, g = _spin_expand(out[1:, 1:, 0, 0], out[1:, 1:, 1:, 1:], n_sp)
    return IntegralTable(n_spatial=n_sp, n_electrons=n_elec,
                         e_nuclear=float(out[0, 0, 0, 0]), h=h, g=g)


# ---------------------------------------------------------------------------
# Normal ordering and derived energies
# ---------------------------------------------------------------------------

def normal_order(table: IntegralTable, ref: ReferenceDeterminant) -> float:
    """The energy of ``ref``: the constant e0 of the Hamiltonian normal-ordered
    relative to it (Wick's theorem),
    e0 = e_nuclear + sum_i h_ii + 1/2 sum_ij g_ijij over occupied indices.
    """
    if ref.n_so != table.n_so:
        raise ValidationError("reference determinant does not match the table")
    occ = list(ref.occupied)
    e0 = table.e_nuclear + float(np.trace(table.h[np.ix_(occ, occ)]))
    return e0 + 0.5 * float(np.einsum("ijij->", table.g[np.ix_(occ, occ, occ, occ)]))


def freeze_core(table: IntegralTable, spec: ActiveSpaceSpec) -> IntegralTable:
    """Fold frozen-occupied orbitals into an active-space effective table:
    its e_nuclear is the core determinant's energy (``normal_order``)."""
    spec.validate(table.n_so)
    core = list(spec.frozen_occupied)
    act = list(spec.active)
    pairs = {p >> 1 for p in act}
    if len(act) != 2 * len(pairs):
        raise ValidationError("active set must contain full alpha/beta pairs")
    e_core = normal_order(table, ReferenceDeterminant(spec.frozen_occupied, table.n_so))
    h_act = table.h[np.ix_(act, act)] + np.einsum(
        "pcqc->pq", table.g[np.ix_(act, core, act, core)])
    g_act = table.g[np.ix_(act, act, act, act)]
    return IntegralTable(n_spatial=len(act) // 2,
                         n_electrons=table.n_electrons - len(core),
                         e_nuclear=e_core, h=h_act, g=g_act)


def energy_from_rdm(table: IntegralTable, rdm):
    """E = e_nuclear + sum h_pq rho_pq + 1/4 sum g_pqrs rho_pqrs.

    A float for one pair; for a stack (rho1 and rho2 with one leading
    resample axis) an array of one energy per resample, each summed as one
    pair's is: ``np.sum`` per resample, since one reduction over the stack's
    trailing axes can add in another order."""
    rho1 = np.asarray(rdm.rho1)
    rho2 = np.asarray(rdm.rho2)
    n = table.n_so
    if (rho1.shape[-2:] != (n, n) or rho2.shape[-4:] != (n, n, n, n)
            or rho1.shape[:-2] != rho2.shape[:-4] or rho1.ndim > 3):
        raise ValidationError(
            f"RDM dimensions {rho1.shape}/{rho2.shape} do not match table ({n} spin orbitals)")
    if rho1.ndim == 3:
        return np.array([_energy(table, r1, r2) for r1, r2 in zip(rho1, rho2)])
    return _energy(table, rho1, rho2)


def _energy(table: IntegralTable, rho1, rho2) -> float:
    return (table.e_nuclear + float(np.sum(table.h * rho1))
            + 0.25 * float(np.sum(table.g * rho2)))


# ---------------------------------------------------------------------------
# Fixture registry
# ---------------------------------------------------------------------------

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_manifest() -> dict:
    return json.loads((FIXTURE_DIR / "manifest.json").read_text())


def load_fixture(molecule: str, bond_length: float):
    """Load the committed fixture of ``molecule`` (any case) at ``bond_length``
    Angstrom (to 1e-9); returns (fixture id, IntegralTable, manifest entry)."""
    fixtures = load_manifest()["fixtures"]
    for fid, entry in fixtures.items():
        if (entry["molecule"].lower() == molecule.lower()
                and abs(entry["bond_length_angstrom"] - bond_length) < 1e-9):
            return fid, load_fcidump(FIXTURE_DIR / entry["file"]), entry
    raise KeyError(f"no fixture for {molecule} at {bond_length} A "
                   f"(available: {sorted(fixtures)})")
