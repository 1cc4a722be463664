import numpy as np
import pytest

from ionjc.chain import ChainModel, LaserDrive
from ionjc.fock import HilbertConfig
from ionjc.hamiltonians import ModelSpec


def make_single_model(Omega_R=0.3, delta=0.7, k_L=0.1, n_max=40, guard=10,
                      phase=0.0, omega_ge=0.0, phi_beam=0.0):
    """One ion, one drive; defaults give eta = k_L (mu = 0.5, nu1 = 1)."""
    chain = ChainModel.build(1)
    config = HilbertConfig(n_modes=1, n_max=n_max, n_spins=1, guard=guard)
    drive = LaserDrive(ion=1, Omega_R=Omega_R, omega_L=omega_ge - delta, k_L=k_L,
                       phi_beam=phi_beam, phase=phase, omega_ge=omega_ge)
    return ModelSpec(chain=chain, drives=(drive,), config=config, omega_ge=omega_ge)


def make_two_ion_model(Om1=0.2, Om2=0.3, delta1=None, delta2=None, k_L=0.04,
                       n_max=12, guard=4, phases=(0.0, 0.0), phi_beams=(0.0, 0.0)):
    """Two ions, two drives; defaults sit on the corrected resonances of modes 1 and 2."""
    chain = ChainModel.build(2)
    config = HilbertConfig(n_modes=2, n_max=n_max, n_spins=2, guard=guard)
    if delta1 is None:
        delta1 = float(np.sqrt(chain.nu[0] ** 2 - 4 * Om1**2))
    if delta2 is None:
        delta2 = float(np.sqrt(chain.nu[1] ** 2 - 4 * Om2**2))
    drives = (
        LaserDrive(ion=1, Omega_R=Om1, omega_L=-delta1, k_L=k_L, phi_beam=phi_beams[0], phase=phases[0]),
        LaserDrive(ion=2, Omega_R=Om2, omega_L=-delta2, k_L=k_L, phi_beam=phi_beams[1], phase=phases[1]),
    )
    return ModelSpec(chain=chain, drives=drives, config=config, omega_ge=0.0)


@pytest.fixture(scope="session")
def single_model():
    return make_single_model()


@pytest.fixture(scope="session")
def two_ion_model():
    return make_two_ion_model()
