import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from ionjc import fock, reference
from ionjc.fock import (
    HilbertConfig,
    NumericalValidationError,
    OperatorMatrix,
    basis_state,
    check_matrix,
    coherent_state,
    displacement_factors,
    embed_factors,
    guard_mask,
    guarded_infidelity,
    kron_terms,
    mode_occupations,
    parity_gauge,
    population_above_guard,
    spin_signs,
)
from ionjc.reference import displacement, expm_unitary, guarded_norm, ladder, spin_op


def test_config_validation():
    with pytest.raises(ValueError):
        HilbertConfig(n_modes=0, n_max=4)
    with pytest.raises(ValueError):
        HilbertConfig(n_modes=1, n_max=1)
    with pytest.raises(ValueError):
        HilbertConfig(n_modes=1, n_max=4, guard=4)
    cfg = HilbertConfig(n_modes=2, n_max=5, n_spins=2, guard=1)
    assert cfg.dim == 5**2 * 2**2


def test_config_rejects_dense_matrix_over_budget():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"dim 13824 needs 3057647616 bytes"):
            HilbertConfig(n_modes=3, n_max=12, n_spins=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # nothing of matrix size is allocated


def test_parity_gauge_turns_quadratures_real():
    cfg = HilbertConfig(n_modes=2, n_max=5, n_spins=2)
    gauge = parity_gauge(cfg)
    assert not gauge.flags.writeable
    assert set(gauge.tolist()) == {1, 1j, -1, -1j}
    for mode in (1, 2):
        a = ladder(cfg, mode, "annihilate")
        # P^dag (a + a^dag) P = i (a - a^dag), exactly
        conj = gauge.conj()[:, None] * (a + a.conj().T) * gauge[None, :]
        assert np.array_equal(conj, 1j * (a - a.conj().T))
        # P^dag D(i x) P = D(x), which the propagators build as a real factor
        conj = gauge.conj()[:, None] * displacement(cfg, mode, 0.37j) * gauge[None, :]
        assert np.abs(conj - displacement(cfg, mode, 0.37)).max() <= 1e-15
    assert all(f.dtype == np.float64 for f in displacement_factors(cfg, [0.37, -1.2]).values())


def test_real_displacement_rejects_imaginary_residue(monkeypatch):
    # a real-argument displacement is exactly real; an imaginary part above UNITARY_ATOL is a numerical fault
    cfg = HilbertConfig(n_modes=1, n_max=6)
    exact = fock._expm_hermitian
    monkeypatch.setattr(fock, "_expm_hermitian", lambda m, t: exact(m, t) + 1e-9j)
    with pytest.raises(NumericalValidationError, match="Im D"):
        displacement_factors(cfg, [0.1])
    assert displacement_factors(cfg, [0.1j])[1].dtype == np.complex128  # complex arguments are not checked


def test_annihilate_lowers_single_quantum():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    a = ladder(cfg, 1, "annihilate")
    one = basis_state(cfg, [1], ["g"])
    zero = basis_state(cfg, [0], ["g"])
    assert np.allclose(a @ one, zero)  # sqrt(1) = 1


def test_number_operator_eigenvalue():
    cfg = HilbertConfig(n_modes=1, n_max=4)
    n = ladder(cfg, 1, "number")
    two = basis_state(cfg, [2], ["e"])
    assert np.allclose(n @ two, 2.0 * two)


def test_create_annihilates_top_level():
    cfg = HilbertConfig(n_modes=1, n_max=5)
    adag = ladder(cfg, 1, "create")
    top = basis_state(cfg, [4], ["g"])
    assert np.allclose(adag @ top, 0.0)


def test_commutator_identity_below_cutoff():
    # [a, a^dag] = 1 everywhere except the single entry at the top Fock level
    cfg = HilbertConfig(n_modes=1, n_max=8)
    a = ladder(cfg, 1, "annihilate")
    comm = a @ a.conj().T - a.conj().T @ a - np.eye(cfg.dim)
    interior = mode_occupations(cfg)[0] < cfg.n_max - 1
    assert np.abs(comm[np.ix_(interior, interior)]).max() <= 1e-13
    assert np.abs(comm).max() == pytest.approx(cfg.n_max)  # the violated corner


def test_ladder_mode_out_of_range():
    cfg = HilbertConfig(n_modes=2, n_max=3)
    with pytest.raises(ValueError):
        ladder(cfg, 3, "annihilate")
    with pytest.raises(ValueError):
        ladder(cfg, 0, "number")
    for mode in (3, 0):
        with pytest.raises(ValueError, match="mode index"):
            displacement(cfg, mode, 0.1)


def test_dagger_matches_conjugate_transpose():
    cfg = HilbertConfig(n_modes=1, n_max=6)
    a = ladder(cfg, 1, "annihilate")
    adag = ladder(cfg, 1, "create")
    assert np.array_equal(a.conj().T, adag)


def test_displacement_zero_is_identity():
    cfg = HilbertConfig(n_modes=1, n_max=10)
    d = displacement(cfg, 1, 0.0)
    assert np.allclose(d, np.eye(cfg.dim), atol=1e-14)


def test_displacement_vacuum_overlap_series():
    # <0|D(alpha)|0> against the power series sum_k (-|alpha|^2/2)^k / k!
    cfg = HilbertConfig(n_modes=1, n_max=30)
    alpha = 0.3
    d = displacement(cfg, 1, alpha)
    vac = basis_state(cfg, [0], ["g"])
    x = -abs(alpha) ** 2 / 2.0
    series, term = 0.0, 1.0
    for k in range(80):
        series += term
        term *= x / (k + 1)
    got = np.vdot(vac, d @ vac)
    assert got == pytest.approx(series, abs=1e-10)
    assert series == pytest.approx(0.955997481833, abs=1e-10)


def test_displacement_shift_property_guarded():
    # truncation tail decays fast with the guard width: ~1e-7 at guard 8,
    # below 1e-8 from guard 10 on (n_max = 30, alpha = 0.3)
    alpha = 0.3
    for guard, bound in ((8, 1e-6), (10, 1e-8)):
        cfg = HilbertConfig(n_modes=1, n_max=30, guard=guard)
        d = displacement(cfg, 1, alpha)
        a = ladder(cfg, 1, "annihilate")
        shifted = d @ a @ d.conj().T
        assert guarded_norm(shifted - (a - alpha * np.eye(cfg.dim)), cfg) <= bound


def test_displacement_exactly_unitary():
    cfg = HilbertConfig(n_modes=1, n_max=12)
    for alpha in (0.5, 2.0 + 1.0j, -3.0j):
        d = displacement(cfg, 1, alpha)
        assert np.abs(d.conj().T @ d - np.eye(cfg.dim)).max() <= 1e-12


def test_spin_algebra():
    cfg = HilbertConfig(n_modes=1, n_max=3, n_spins=2)
    for ion in (1, 2):
        sp = spin_op(cfg, ion, "plus")
        sm = spin_op(cfg, ion, "minus")
        sz = spin_op(cfg, ion, "z")
        assert np.allclose(sp @ sm + sm @ sp, np.eye(cfg.dim))
        assert np.allclose(sz @ sp - sp @ sz, 2.0 * sp)
    ground = basis_state(cfg, [0], ["g", "g"])
    assert np.allclose(spin_op(cfg, 1, "z") @ ground, -ground)


def test_spin_ion_out_of_range():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    with pytest.raises(ValueError):
        spin_op(cfg, 2, "z")


def test_expm_unitary_basics():
    cfg = HilbertConfig(n_modes=1, n_max=2)
    sz = spin_op(cfg, 1, "z")
    assert np.allclose(expm_unitary(sz, 0.0), np.eye(cfg.dim))
    u = expm_unitary(sz, np.pi / 2)
    # diag(e^{-i pi/2}, e^{+i pi/2}) on the spin factor
    expected = embed_factors(cfg, spin_ops={1: np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])})
    assert np.allclose(u, expected, atol=1e-14)


def test_expm_group_property():
    rng = np.random.default_rng(7)
    cfg = HilbertConfig(n_modes=1, n_max=6)
    raw = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    h = check_matrix(0.1 * (raw + raw.conj().T), hermitian=True)
    t1, t2 = 0.83, 1.91
    left = check_matrix(expm_unitary(h, t1) @ expm_unitary(h, t2), unitary=True)
    right = expm_unitary(h, t1 + t2)
    assert np.abs(left - right).max() <= 1e-12


def test_expm_rejects_non_hermitian():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    a = ladder(cfg, 1, "annihilate")
    with pytest.raises(NumericalValidationError):
        expm_unitary(a, 1.0)
    bad = check_matrix(np.eye(cfg.dim), hermitian=True) + 1e-6 * 1j
    with pytest.raises(NumericalValidationError):
        expm_unitary(bad, 1.0)


@pytest.mark.parametrize("build, tag", [
    (lambda cfg: ladder(cfg, 1, "number"), "hermitian"),
    (lambda cfg: spin_op(cfg, 1, "z"), "hermitian"),
    (lambda cfg: displacement(cfg, 1, 0.3 - 0.2j), "unitary"),
    (lambda cfg: expm_unitary(np.diag(np.arange(cfg.dim, dtype=complex)), 0.4), "unitary"),
])
def test_builders_check_their_tag_before_returning(monkeypatch, build, tag):
    # the check a builder's record ran at construction now runs on the complex array it returns
    cfg = HilbertConfig(n_modes=1, n_max=4)
    assert build(cfg).dtype == np.complex128
    embed, expm = fock.embed_factors, fock._expm_hermitian
    monkeypatch.setattr(reference, "embed_factors", lambda *a, **kw: embed(*a, **kw) + 1e-6 * np.tri(cfg.dim, k=-1))
    for module in (fock, reference):  # displacement's single-mode factor reaches it through fock
        monkeypatch.setattr(module, "_expm_hermitian", lambda m, t: (1.0 + 1e-9) * expm(m, t))
    message = {"hermitian": r"matrix tagged hermitian violates \|\|H - H\^dag\|\|_max <= 1e-10 \(got 1\.000e-06\)",
               "unitary": r"matrix tagged unitary violates \|\|U\^dag U - I\|\|_max <= 1e-12"}[tag]
    with pytest.raises(NumericalValidationError, match=message):
        build(cfg)


def test_operator_matrix_shape_checked():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match config dimension 6"):
        OperatorMatrix(cfg, np.zeros((3, 3)))


def test_unitary_tag_enforced():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    with pytest.raises(NumericalValidationError):
        OperatorMatrix(cfg, 2.0 * np.eye(cfg.dim), unitary=True)
    # the same checks on real input, as the propagators run them on gauged matrices
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    assert check_matrix(rotation, unitary=True) is rotation
    with pytest.raises(NumericalValidationError, match="unitary"):
        check_matrix(rotation + 1e-9, unitary=True)
    with pytest.raises(NumericalValidationError, match="hermitian"):
        check_matrix(rotation, hermitian=True)
    assert check_matrix(rotation + rotation.T, hermitian=True).dtype == np.float64


@pytest.mark.parametrize("tag", ["unitary", "hermitian"])
def test_nan_matrix_fails_every_tag(tag):
    # a NaN residual compares False against any tolerance; the check must still reject it
    for m in (np.full((4, 4), np.nan), np.where(np.eye(4) > 0, np.nan, np.eye(4))):
        with pytest.raises(NumericalValidationError, match=tag):
            check_matrix(m, **{tag: True})
        with pytest.raises(NumericalValidationError, match=tag):
            check_matrix(m.astype(complex), **{tag: True})


def _nearly_unitary(rng, n, dtype):
    z = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0.0)
    q, _ = np.linalg.qr(z)
    return q + 1e-14 * rng.normal(size=(n, n))


@pytest.mark.parametrize("dtype", [float, complex])
def test_check_residuals_equal_dense_formulas(dtype):
    # the tiled hermiticity residual and the in-place unitarity residual are the dense formulas bit for bit;
    # 300 rows span three tile rows of 128 of the hermiticity loop and end in a partial one
    rng = np.random.default_rng(5)
    for n in (1, 31, 32, 70, 300):
        u = _nearly_unitary(rng, n, dtype)
        z = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0.0)
        for m in (u, z, z + z.conj().T, u + u.conj().T + 1e-12 * z):
            assert fock._unitary_residual(m) == np.abs(m.conj().T @ m - np.eye(n)).max()
            assert fock._hermitian_residual(m) == np.abs(m - m.conj().T).max()
    # past the tolerance both still raise
    u = _nearly_unitary(rng, 70, dtype)
    check_matrix(u, unitary=True)
    bad = u.copy()
    bad[69, 69] *= 1.0 + 1e-9
    with pytest.raises(NumericalValidationError, match="unitary"):
        check_matrix(bad, unitary=True)
    # a norm defect of the last column shows only on the Gram matrix's last diagonal entry
    u300 = _nearly_unitary(rng, 300, dtype)
    check_matrix(u300, unitary=True)
    h300 = u300 + u300.conj().T
    u300[:, -1] *= 1.0 + 1e-9
    with pytest.raises(NumericalValidationError, match="unitary"):
        check_matrix(u300, unitary=True)
    # an asymmetry only in the last, partial diagonal tile of the hermiticity loop, then one below the
    # diagonal, which only the mirror tile above it reads
    check_matrix(h300, hermitian=True)
    for i, j in ((299, 260), (299, 3)):
        bad = h300.copy()
        bad[i, j] += 1e-9
        with pytest.raises(NumericalValidationError, match="hermitian"):
            check_matrix(bad, hermitian=True)
    h = u + u.conj().T
    check_matrix(h, hermitian=True)
    h[69, 3] += 1e-9
    with pytest.raises(NumericalValidationError, match="hermitian"):
        check_matrix(h, hermitian=True)


def _dense_term(cfg, c, mode_ops, spin_ops):
    factors = [mode_ops.get(p, np.eye(cfg.n_max)) for p in range(1, cfg.n_modes + 1)]
    factors += [spin_ops.get(j, np.eye(2)) for j in range(1, cfg.n_spins + 1)]
    return c * reduce(np.kron, factors)


@pytest.mark.parametrize("n_modes, n_max, n_spins", [(1, 4, 1), (2, 3, 2), (3, 2, 3)])
def test_kron_terms_against_dense_kron(n_modes, n_max, n_spins):
    cfg = HilbertConfig(n_modes=n_modes, n_max=n_max, n_spins=n_spins)
    rng = np.random.default_rng(n_spins)

    def mode():
        return rng.normal(size=(n_max, n_max))

    plus, minus = fock._SPIN_2X2["plus"], fock._SPIN_2X2["minus"]
    terms = [
        (0.7, {1: mode()}, {1: plus}),
        (-1.3 + 0.4j, {n_modes: mode() + 1j * mode()}, {n_spins: minus}),  # complex coefficient and factor
        (0.5, {p: mode() for p in range(1, n_modes + 1)}, {j: rng.normal(size=(2, 2)) for j in range(1, n_spins + 1)}),
        (2.0, {}, {1: plus}),  # reaches the blocks of the first term again
    ]
    # the first two terms reach disjoint blocks: every other block of a new matrix is exactly zero
    assert kron_terms(cfg, terms[:1]).dtype == float
    pair = kron_terms(cfg, terms[:2])
    assert pair.dtype == complex
    assert np.array_equal(pair, _dense_term(cfg, *terms[0]) + _dense_term(cfg, *terms[1]))
    expected = sum(_dense_term(cfg, *term) for term in terms)
    full = kron_terms(cfg, terms)
    assert np.allclose(full, expected, rtol=0.0, atol=1e-13)
    assert np.allclose(embed_factors(cfg, *terms[2][1:]), _dense_term(cfg, 1.0, *terms[2][1:]), rtol=0.0, atol=1e-13)
    # adjoint=True adds S + S^dag: real and complex terms, on spin-off-diagonal and spin-diagonal blocks
    z, ee = fock._SPIN_2X2["z"], fock._SPIN_2X2["ee"]
    for group in ([terms[0]], [terms[1]], terms[:2], [(0.3, {1: mode()}, {n_spins: z})],
                  [(0.2 - 0.9j, {n_modes: mode() + 1j * mode()}, {1: ee})]):
        dense = sum(_dense_term(cfg, *term) for term in group)
        both = kron_terms(cfg, group, adjoint=True)
        assert both.dtype == dense.dtype
        assert np.array_equal(both, dense + dense.conj().T)
    with pytest.raises(ValueError, match=f"mode index {n_modes + 1} out of range 1..{n_modes}"):
        kron_terms(cfg, [(1.0, {n_modes + 1: mode()}, {})])
    with pytest.raises(ValueError, match=f"ion index 0 out of range 1..{n_spins}"):
        kron_terms(cfg, terms[:1] + [(1.0, {}, {0: plus})])


def test_guarded_distance_basics():
    cfg = HilbertConfig(n_modes=1, n_max=10, guard=3)
    a = ladder(cfg, 1, "annihilate")
    assert guarded_norm(a - a, cfg) == 0.0
    # guard = 0 reduces to the plain spectral distance
    cfg0 = HilbertConfig(n_modes=1, n_max=10, guard=0)
    a0 = ladder(cfg0, 1, "annihilate")
    z0 = np.zeros((cfg0.dim, cfg0.dim))
    assert guarded_norm(a0 - z0, cfg0) == pytest.approx(np.linalg.norm(a0, 2))


def test_guarded_distance_ignores_edge_entries():
    # a and its guard-projected copy differ only at the top level
    cfg = HilbertConfig(n_modes=1, n_max=10, guard=1)
    a = ladder(cfg, 1, "annihilate")
    keep = guard_mask(cfg)
    projected = a * np.outer(keep, keep)
    assert guarded_norm(a - projected, cfg) == 0.0
    assert np.abs(a - projected).max() > 0


def test_guarded_distance_pseudo_metric():
    rng = np.random.default_rng(11)
    cfg = HilbertConfig(n_modes=1, n_max=6, n_spins=1, guard=2)
    mats = [
        rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
        for _ in range(3)
    ]
    a, b, c = mats
    assert guarded_norm(a - b, cfg) == pytest.approx(guarded_norm(b - a, cfg))
    assert guarded_norm(a - c, cfg) <= guarded_norm(a - b, cfg) + guarded_norm(b - c, cfg) + 1e-12


def test_guarded_distance_dimension_mismatch():
    cfg4, cfg5 = HilbertConfig(n_modes=1, n_max=4), HilbertConfig(n_modes=1, n_max=5)
    a, b = ladder(cfg4, 1, "annihilate"), ladder(cfg5, 1, "annihilate")
    with pytest.raises(ValueError, match="could not be broadcast"):
        guarded_norm(a - b, cfg4)
    with pytest.raises(ValueError, match="different Hilbert configurations"):
        guarded_infidelity(OperatorMatrix(cfg4, a), OperatorMatrix(cfg5, b))


def test_guarded_infidelity_basics():
    cfg = HilbertConfig(n_modes=1, n_max=8, guard=2)
    u = OperatorMatrix(cfg, displacement(cfg, 1, 0.4), unitary=True)
    assert guarded_infidelity(u, u) == pytest.approx(0.0, abs=1e-14)
    v = OperatorMatrix(cfg, np.exp(0.7j) * u.entries, unitary=True)
    assert guarded_infidelity(u, v) == pytest.approx(0.0, abs=1e-14)
    # a full spin flip against the identity has vanishing guarded trace
    eye = OperatorMatrix(cfg, np.eye(cfg.dim), unitary=True)
    flip = spin_op(cfg, 1, "x")
    assert guarded_infidelity(eye, OperatorMatrix(cfg, flip, unitary=True)) == pytest.approx(1.0)


def test_guarded_infidelity_of_guarded_columns():
    # U given as its guarded columns scores bit for bit like U, in either memory layout
    cfg = HilbertConfig(n_modes=2, n_max=4, n_spins=1, guard=1)
    keep = guard_mask(cfg)
    u = OperatorMatrix(cfg, displacement(cfg, 1, 0.3 - 0.2j), unitary=True)
    v = OperatorMatrix(cfg, displacement(cfg, 2, 0.5j), unitary=True)
    block = u.entries[:, keep]
    for layout in (block, np.ascontiguousarray(block), np.asfortranarray(block)):
        assert guarded_infidelity(layout, v) == guarded_infidelity(u, v)
    with pytest.raises(ValueError, match=r"column block shape \(32, 32\) is not the guarded columns of dim 32"):
        guarded_infidelity(u.entries, v)


def test_disjoint_factors_commute_exactly():
    cfg = HilbertConfig(n_modes=2, n_max=4, n_spins=2)
    a1 = ladder(cfg, 1, "annihilate")
    n2 = ladder(cfg, 2, "number")
    s1 = spin_op(cfg, 1, "plus")
    s2 = spin_op(cfg, 2, "x")
    for left, right in [(a1, n2), (a1, s1), (a1, s2), (n2, s2), (s1, s2)]:
        assert np.abs(left @ right - right @ left).max() == 0.0


def test_basis_and_coherent_states():
    cfg = HilbertConfig(n_modes=1, n_max=40, guard=10)
    psi = basis_state(cfg, [3], ["e"])
    assert np.linalg.norm(psi) == 1.0
    coh = coherent_state(cfg, [2.0], ["g"])
    assert np.linalg.norm(coh) == pytest.approx(1.0)
    # mean phonon number of |alpha|^2 = 4
    occ = mode_occupations(cfg)[0]
    assert occ @ np.abs(coh) ** 2 == pytest.approx(4.0, abs=1e-6)
    assert population_above_guard(cfg, coh) < 1e-12
    small = HilbertConfig(n_modes=1, n_max=12, guard=4)
    assert population_above_guard(small, coherent_state(small, [2.5], ["g"])) > 1e-6
    # exp(-|alpha|^2 / 2) underflows to 0: rejected, not normalised into NaNs
    with pytest.raises(ValueError, match="underflow"):
        coherent_state(cfg, [40.0], ["g"])
    # a Fock index is an integer: 1.5 and 2.9 are not truncated, True is not read as 1
    four = HilbertConfig(n_modes=1, n_max=4)
    for fock_index in ([1.5], [True], [2.9]):
        with pytest.raises(ValueError, match=r"one Fock index in 0\.\.3 per mode"):
            basis_state(four, fock_index, ["g"])
    assert np.array_equal(basis_state(four, [np.int64(2)], ["g"]), basis_state(four, [2], ["g"]))


def test_spin_signs_and_occupations():
    cfg = HilbertConfig(n_modes=1, n_max=3, n_spins=2)
    psi = basis_state(cfg, [2], ["e", "g"])
    idx = int(np.argmax(np.abs(psi)))
    assert mode_occupations(cfg)[0, idx] == 2
    assert spin_signs(cfg)[0, idx] == 1.0
    assert spin_signs(cfg)[1, idx] == -1.0
    # every basis state of two modes and two spins sits at its Kronecker-order index
    cfg = HilbertConfig(n_modes=2, n_max=3, n_spins=2)
    occ, signs = mode_occupations(cfg), spin_signs(cfg)
    for n1, n2, s1, s2 in itertools.product(range(3), range(3), "eg", "eg"):
        idx = ((n1 * 3 + n2) * 2 + "eg".index(s1)) * 2 + "eg".index(s2)
        psi = basis_state(cfg, [n1, n2], [s1, s2])
        assert np.flatnonzero(psi).tolist() == [idx] and psi[idx] == 1.0
        assert occ[:, idx].tolist() == [n1, n2]
        assert signs[:, idx].tolist() == [1.0 if s == "e" else -1.0 for s in (s1, s2)]
    sigma_z = np.diag([1.0, -1.0])
    op = embed_factors(cfg, {2: np.diag([0.0, 1.0, 2.0])}, {1: sigma_z})
    assert np.array_equal(op, np.diag(occ[1] * signs[0]))
