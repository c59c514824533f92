import logging

import numpy as np
import pytest
from hypothesis import settings

import oracles
from rdmpt2 import hamio, rdm

logging.getLogger("rdmpt2").setLevel(logging.ERROR)

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failure prints the blob that replays it (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)

# Every committed fixture as ``hamio.load_fixture`` takes it: (molecule, bond length)
FIXTURES = (("h2", 0.7), ("h2", 2.0), ("h2", 3.0), ("h2", 4.0),
            ("lih", 1.5949), ("nah", 1.8874))


@pytest.fixture(scope="session")
def h2():
    _, table, entry = hamio.load_fixture("h2", 0.7)
    return table, entry


@pytest.fixture(scope="session")
def h2_fci(h2):
    table, _ = h2
    energy, amps = oracles.fci_ground_state(table)
    basis = oracles.SectorBasis.build(table.n_so, 2, 0)
    return energy, amps, basis


@pytest.fixture(scope="session")
def lih():
    _, table, entry = hamio.load_fixture("lih", 1.5949)
    return table, entry


def random_rdm_pair(rng, n_so=4, n_elec=2):
    """A structurally valid (hermitian, antisymmetric) but unphysical RdmPair."""
    rho1 = rng.normal(size=(n_so, n_so))
    rho1 = 0.5 * (rho1 + rho1.T)
    rho2 = rng.normal(size=(n_so,) * 4)
    rho2 = rho2 - rho2.transpose(1, 0, 2, 3)
    rho2 = rho2 - rho2.transpose(0, 1, 3, 2)
    rho2 = 0.5 * (rho2 + rho2.transpose(2, 3, 0, 1))
    return rdm.RdmPair(rho1, rho2, rdm.RdmMeta(provenance="raw", n_electrons=n_elec))


def random_pure_2e_rdm(rng, n_so=4):
    """Exact RDMs of a random normalized 2-electron Sz=0 state."""
    basis = oracles.SectorBasis.build(n_so, 2, 0)
    amps = rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    return oracles.rdms_from_amplitudes(amps, basis)


def same_bits(a, b):
    """Equal shape, dtype and bytes: sign bits of zeros included, which
    ``np.array_equal`` does not compare."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())
