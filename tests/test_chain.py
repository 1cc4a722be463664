import numpy as np
import pytest

from ionjc.chain import (
    ChainModel,
    LaserDrive,
    equilibrium_positions,
    equilibrium_residual,
    lamb_dicke_matrix,
    normal_modes,
)

ROOT2_POS = 0.25 ** (1.0 / 3.0)   # analytic N = 2 position: u^3 = 1/4
ROOT3_POS = 1.25 ** (1.0 / 3.0)   # analytic N = 3 outer position: u^3 = 5/4


def test_single_ion_sits_at_center():
    assert np.array_equal(equilibrium_positions(1), [0.0])


def test_two_ion_positions_analytic():
    u = equilibrium_positions(2)
    assert u == pytest.approx([-ROOT2_POS, ROOT2_POS], abs=1e-10)


def test_three_ion_positions_analytic():
    u = equilibrium_positions(3)
    assert u == pytest.approx([-ROOT3_POS, 0.0, ROOT3_POS], abs=1e-10)


@pytest.mark.parametrize("n", range(1, 11))
def test_equilibrium_residual_and_symmetry(n):
    u = equilibrium_positions(n)
    assert np.abs(equilibrium_residual(u)).max() <= 1e-12
    assert np.allclose(u, -u[::-1])
    assert np.all(np.diff(u) > 0) or n == 1


def test_single_ion_modes():
    m, nu = normal_modes(1)
    assert np.allclose(m, [[1.0]])
    assert nu == pytest.approx([1.0])


def test_two_ion_modes_analytic():
    # 2x2 Hessian [[2, -1], [-1, 2]]: eigenvalues 1 and 3, vectors (1,1)/sqrt2
    # and +-(1,-1)/sqrt2; the zero-sum breathing column gets a positive leading
    # component under the deterministic sign rule
    m, nu = normal_modes(2)
    assert nu == pytest.approx([1.0, np.sqrt(3.0)], abs=1e-10)
    s = m * np.sqrt(nu)[None, :]
    assert s[:, 0] == pytest.approx([1 / np.sqrt(2)] * 2, abs=1e-10)
    assert s[:, 1] == pytest.approx([1 / np.sqrt(2), -1 / np.sqrt(2)], abs=1e-10)


def test_three_ion_modes_analytic():
    m, nu = normal_modes(3)
    assert nu == pytest.approx([1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)], abs=1e-10)


@pytest.mark.parametrize("n", range(2, 7))
def test_breathing_mode_frequency(n):
    _, nu = normal_modes(n)
    assert nu[0] == pytest.approx(1.0, abs=1e-12)
    assert nu[1] == pytest.approx(np.sqrt(3.0), abs=1e-10)


@pytest.mark.parametrize("n", range(2, 8))
def test_mode_eigenvectors(n):
    m, nu = normal_modes(n)
    s = m * np.sqrt(nu)[None, :]
    assert np.abs(s.T @ s - np.eye(n)).max() <= 1e-12
    assert s[:, 0] == pytest.approx([1 / np.sqrt(n)] * n, abs=1e-10)  # uniform COM vector


def test_mode_signs_deterministic():
    m1, _ = normal_modes(5)
    m2, _ = normal_modes(5)
    assert np.array_equal(m1, m2)
    s, nu = normal_modes(5)
    s = s * np.sqrt(nu)[None, :]
    for p in range(5):
        col = s[:, p]
        total = col.sum()
        if abs(total) > 1e-8:
            assert total > 0
        else:
            assert col[np.abs(col) > 1e-8][0] > 0


def test_lamb_dicke_single_ion_prefactor():
    chain = ChainModel.build(1)  # mu = 0.5, nu1 = 1 so prefactor = k_L cos(phi)
    drive = LaserDrive(ion=1, Omega_R=0.1, omega_L=0.0, k_L=0.1)
    eta = lamb_dicke_matrix(chain, [drive])
    assert np.allclose(eta, [[0.1]])


def test_lamb_dicke_com_scaling():
    chain = ChainModel.build(2)
    drives = [LaserDrive(ion=j, Omega_R=0.1, omega_L=0.0, k_L=0.1) for j in (1, 2)]
    eta = lamb_dicke_matrix(chain, drives)
    assert np.abs(eta[:, 0]) == pytest.approx([0.1 / np.sqrt(2.0)] * 2, abs=1e-12)


def test_lamb_dicke_perpendicular_beam_vanishes():
    chain = ChainModel.build(2)
    drive = LaserDrive(ion=1, Omega_R=0.1, omega_L=0.0, k_L=0.1, phi_beam=np.pi / 2)
    eta = lamb_dicke_matrix(chain, [drive])
    assert np.abs(eta).max() <= 1e-17


def test_lamb_dicke_linearity():
    chain = ChainModel.build(3)
    base = LaserDrive(ion=2, Omega_R=0.1, omega_L=0.0, k_L=0.05)
    doubled = LaserDrive(ion=2, Omega_R=0.1, omega_L=0.0, k_L=0.10)
    angled = LaserDrive(ion=2, Omega_R=0.1, omega_L=0.0, k_L=0.05, phi_beam=np.pi / 3)
    eta = lamb_dicke_matrix(chain, [base, doubled, angled])
    assert eta[1] == pytest.approx(2.0 * eta[0], abs=1e-15)
    assert eta[2] == pytest.approx(np.cos(np.pi / 3) * eta[0], abs=1e-15)


def test_drive_validation():
    with pytest.raises(ValueError):
        LaserDrive(ion=1, Omega_R=-0.1, omega_L=0.0, k_L=0.1)
    with pytest.raises(ValueError):
        LaserDrive(ion=1, Omega_R=0.1, omega_L=0.0, k_L=0.0)
    with pytest.raises(ValueError):
        lamb_dicke_matrix(ChainModel.build(2), [LaserDrive(ion=3, Omega_R=0.1, omega_L=0.0, k_L=0.1)])


def test_chain_build_carries_consistent_fields():
    chain = ChainModel.build(4, mu=0.5, nu1=1.0)
    assert chain.N == 4
    assert chain.M.shape == (4, 4)
    assert np.all(np.diff(chain.nu) > 0)
