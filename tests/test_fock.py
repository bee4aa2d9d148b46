import numpy as np
import pytest

from cvwitness import fock, witness
from cvwitness.errors import SingularMatrix, StationarityViolated
from cvwitness.fock import ProductStateVec
from cvwitness.witness import PositivityMode, SixParamDetect

SIGMA1_I2 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


def vacuum_detect():
    return SixParamDetect(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.OPERATOR_PSD)


def test_random_detect_operator_draws_python_floats():
    # the numpy rejection loop it replaced, as the reference: same draws, same
    # values bit for bit, handed on as Python floats
    for seed in range(200):
        rng = np.random.default_rng(seed)
        while True:
            r = rng.normal(size=(4, 4))
            g = r @ r.T + fock._JITTER * np.eye(4)
            want = (g[0, 0], g[1, 1], g[2, 2], g[3, 3], g[0, 2], -g[1, 3])
            if SixParamDetect.least_eigenvalue(*want) >= 0.0:
                break
        d = fock.random_detect_operator(seed)
        got = (d.m1, d.m2, d.m3, d.m4, d.m5, d.m6)
        assert got == want and all(type(x) is float for x in got)


def test_beta_fock_vacuum():
    d = vacuum_detect()
    beta = fock._generating_matrices(d.cm(), 1.0, 1.0)
    sdb = 4.0 / np.sqrt(witness.detect_determinant(d, 1.0, 1.0))
    assert sdb == pytest.approx(1.0)
    assert np.allclose(beta, -SIGMA1_I2, atol=1e-12)


def test_beta_fock_decouples_without_coupling():
    d = SixParamDetect(2.0, 1.5, 1.2, 1.8, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    beta = fock._generating_matrices(d.cm(), 1.3, 0.7)
    # modes decouple: no cross-mode entries in either block
    for blk in (beta[:2, :2], beta[:2, 2:], beta[2:, :2], beta[2:, 2:]):
        assert abs(blk[0, 1]) < 1e-12 and abs(blk[1, 0]) < 1e-12


def test_sqrt_det_beta_identity_at_arbitrary_points():
    d = fock.random_detect_operator(12)
    for x, y in [(0.5, 2.0), (1.0, 1.0), (3.0, 0.4)]:
        beta = fock._generating_matrices(d.cm(), x, y)
        sdb = 4.0 / np.sqrt(witness.detect_determinant(d, x, y))
        assert sdb == pytest.approx(np.sqrt(abs(np.linalg.det(beta))), rel=1e-9)
        assert sdb == pytest.approx(
            4.0 / np.sqrt(witness.detect_determinant(d, x, y)), rel=1e-9
        )


def test_generating_coeffs_symmetric_operator():
    d = SixParamDetect(2.0, 2.0, 2.0, 2.0, 0.8, 0.8, PositivityMode.OPERATOR_PSD)
    g = fock.generating_coeffs(d)
    assert g.x == pytest.approx(1.0, abs=1e-6)
    assert g.y == pytest.approx(1.0, abs=1e-6)
    k1, k2, k3, k4, k5, k6 = g.k
    assert k1 == pytest.approx(k3)
    assert k2 == pytest.approx(k4)


def test_generating_coeffs_zero_coupling():
    d = SixParamDetect(2.0, 1.5, 1.2, 1.8, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    g = fock.generating_coeffs(d)
    assert g.k[4] == pytest.approx(0.0, abs=1e-12)
    assert g.k[5] == pytest.approx(0.0, abs=1e-12)
    # cross-mode couplings vanish; same-mode ones (n2, n4) survive
    assert g.n1 == pytest.approx(0.0, abs=1e-9)
    assert g.n3 == pytest.approx(0.0, abs=1e-9)


def test_generating_matrix_matches_beta():
    for seed in range(5):
        d = fock.random_detect_operator(seed)
        g = fock.generating_coeffs(d)
        beta = fock._generating_matrices(d.cm(), g.x, g.y)
        gm = beta + SIGMA1_I2
        assert np.max(np.abs(np.diag(gm))) < 1e-12
        for n, (i, j) in zip((g.n1, g.n2, g.n3, g.n4), ((0, 1), (0, 2), (0, 3), (1, 3))):
            assert n == pytest.approx(gm[i, j], abs=1e-12)


def test_generating_coeffs_rejects_nonstationary_point():
    d = fock.random_detect_operator(12)
    with pytest.raises(StationarityViolated):
        fock.generating_coeffs(d, x=5.0, y=0.1)


def test_fock_elements_vacuum_entry():
    d = fock.random_detect_operator(4)
    op = fock.fock_elements(d, 6)
    assert op.tensor[0, 0, 0, 0] == pytest.approx(op.sqrt_det_beta, rel=1e-12)


def test_fock_elements_parity_rule():
    d = fock.random_detect_operator(4)
    t = fock.fock_elements(d, 6).tensor
    k1, k2, m1, m2 = np.indices(t.shape)
    odd = (k1 + k2 + m1 + m2) % 2 == 1
    assert np.max(np.abs(t[odd])) == 0.0


def test_fock_elements_symmetric():
    d = fock.random_detect_operator(5)
    t = fock.fock_elements(d, 6).tensor
    assert np.max(np.abs(t - t.transpose(2, 3, 0, 1))) < 1e-10


def test_fock_trace_converges_to_one():
    d = fock.random_detect_operator(7)
    errs = [abs(np.einsum("ijij->", fock.fock_elements(d, c).tensor) - 1.0)
            for c in (10, 20, 30)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_m0_vacuum_is_one():
    d = fock.random_detect_operator(9)
    g = fock.generating_coeffs(d)
    e0 = np.zeros(6)
    e0[0] = 1.0
    psi = ProductStateVec(a=e0.astype(complex), b=e0.astype(complex))
    assert fock.m0_eval(g, psi) == pytest.approx(1.0, rel=1e-12)


def test_m0_cross_path():
    rng = np.random.default_rng(100)
    for cutoff in (6, 10):
        for seed in range(10):
            d = fock.random_detect_operator(seed)
            g = fock.generating_coeffs(d)
            op = fock.fock_elements(d, cutoff)
            a = fock.random_state_vector(rng, cutoff)
            b = fock.random_state_vector(rng, cutoff)
            psi = ProductStateVec(a=a, b=b)
            via_sum = fock.m0_eval(g, psi)
            via_tensor = np.real(
                np.einsum("abkl,a,b,k,l->", op.tensor, np.conj(a), np.conj(b), a, b)
            ) / op.sqrt_det_beta
            assert via_sum == pytest.approx(via_tensor, abs=1e-8)


def test_m0_cutoff_convergence():
    # low-photon states: cutoff 6 and 8 agree closely
    rng = np.random.default_rng(200)
    d = fock.random_detect_operator(3)
    g = fock.generating_coeffs(d)
    for _ in range(5):
        a = np.zeros(8, dtype=complex)
        a[0] = 1.0
        a += 0.4 * (rng.normal(size=8) + 1j * rng.normal(size=8)) * 0.5 ** np.arange(8)
        a /= np.linalg.norm(a)
        b = np.zeros(8, dtype=complex)
        b[0] = 1.0
        b /= np.linalg.norm(b)
        psi = ProductStateVec(a=a, b=b)
        assert fock._mean_photons(a) < 2.0
        m6 = fock.m0_eval(g, psi, truncation=6)
        m8 = fock.m0_eval(g, psi, truncation=8)
        assert abs(m6 - m8) < 1e-4


def test_conditional_matrix_vacuum_column():
    d = fock.random_detect_operator(6)
    op = fock.fock_elements(d, 6)
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    mat = fock._conditional(op.tensor, e0, 2)
    assert np.allclose(mat, op.tensor[:, 0, :, 0], atol=1e-12)


def test_conditional_matrix_hermitian():
    rng = np.random.default_rng(77)
    d = fock.random_detect_operator(6)
    op = fock.fock_elements(d, 6)
    for mode in (1, 2):
        b = fock.random_state_vector(rng, 6)
        mat = fock._conditional(op.tensor, b, mode)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


def test_conditional_matrix_eigenvalue_bounded_by_lambda():
    d = fock.random_detect_operator(6)
    op = fock.fock_elements(d, 6)
    lam, _, _ = witness.lambda_product_vacuum(d)
    rng = np.random.default_rng(5)
    b = fock.random_state_vector(rng, 6)
    top = np.linalg.eigvalsh(fock._conditional(op.tensor, b, 2))[-1]
    assert top <= op.sqrt_det_beta * (1.0 + 1e-6)


def test_alternate_maximize_monotone_and_converges():
    d = fock.iteration_detect(fock.random_detect_operator(21))
    op = fock.fock_elements(d, 6)
    res = fock.alternate_maximize(op, seed=21)
    assert res.converged
    assert res.m0 > 0.99999
    assert all(b >= a - 1e-9 for a, b in zip(res.m0_trace, res.m0_trace[1:]))
    # converged runs end near the vacuum
    assert res.photon_trace[-1] < 0.01


def test_alternate_maximize_respects_max_rounds():
    d = fock.iteration_detect(fock.random_detect_operator(21))
    op = fock.fock_elements(d, 6)
    res = fock.alternate_maximize(op, seed=21, max_rounds=1)
    assert res.rounds == 1
    assert not res.converged or res.m0 > 0.99999


def test_conditional_matrix_rejects_unnormalized_vector():
    # the maximization checks its conditioning vectors once, where they enter
    op = fock.fock_elements(fock.random_detect_operator(6), 6)
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    with pytest.raises(ValueError):
        fock._maximize(op.tensor[None], [op.sqrt_det_beta], 2.0 * e0[None], 10)


def stacked_inputs(cutoff, count=8):
    """Seeded element-tensor operators and one unit start vector for each."""
    rng = np.random.default_rng(cutoff)
    ops = [fock.fock_elements(fock.iteration_detect(fock.random_detect_operator(s)), cutoff)
           for s in range(count)]
    starts = [fock.random_state_vector(rng, cutoff) for _ in ops]
    return ops, starts


@pytest.mark.parametrize("cutoff", [4, 6])
def test_stacked_maximization_matches_batches_of_one(cutoff):
    ops, starts = stacked_inputs(cutoff)
    free = [fock.alternate_maximize(op, initial=b).rounds for op, b in zip(ops, starts)]
    # a cap between the fastest and the slowest sample cuts some of them off
    cap = sorted(free)[len(free) // 2]
    assert len(set(free)) > 2 and max(free) > cap
    rounds, converged, m0, factors = fock._maximize(np.array([op.tensor for op in ops]),
                                                    [op.sqrt_det_beta for op in ops],
                                                    np.array(starts), cap)
    assert set(converged.tolist()) == {True, False}
    for i, (op, b) in enumerate(zip(ops, starts)):
        ref = fock.alternate_maximize(op, initial=b, max_rounds=cap)
        r = int(rounds[i])
        assert r == ref.rounds == len(ref.m0_trace) == len(ref.photon_trace)
        assert converged[i] == ref.converged
        assert np.allclose(m0[i, :r], ref.m0_trace, rtol=1e-12, atol=0.0)
        assert m0[i, r - 1] == pytest.approx(ref.m0, rel=1e-12)
        photons = fock._mean_photons(factors[i, 1:r + 2])
        assert np.allclose(0.5 * (photons[1:] + photons[:-1]), ref.photon_trace,
                           rtol=1e-12, atol=0.0)
        # entries past a sample's rounds stay 0
        assert not m0[i, r:].any() and not factors[i, r + 2:].any()


def test_stacked_maximization_rejects_unnormalized_start():
    ops, starts = stacked_inputs(6, count=3)
    starts[1] = 1.5 * starts[1]
    with pytest.raises(ValueError):
        fock._maximize(np.array([op.tensor for op in ops]), [op.sqrt_det_beta for op in ops],
                       np.array(starts), 10)


def test_stacked_generating_matrices_raise_for_any_bad_sample():
    good = fock.random_detect_operator(3).cm()
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 0.3, -0.3
    # -I maps to a vanishing matrix a; a skew part leaves beta complex
    for bad, what in ((-np.eye(4), "singular"), (good + skew, "imaginary")):
        with pytest.raises(SingularMatrix, match=what):
            fock._generating_matrices(np.array([good, bad, good]), np.ones(3), np.ones(3))
    assert fock._generating_matrices(np.array([good, good]), np.ones(2), np.ones(2)).dtype == float


def test_stacked_tensors_match_fock_elements():
    ds = [fock.iteration_detect(fock.random_detect_operator(s)) for s in range(5)]
    lam, x, y = np.array([witness.lambda_product_vacuum(d) for d in ds]).T
    tensors = fock._element_tensors(np.array([d.cm() for d in ds]), x, y, lam, 6)
    for d, t in zip(ds, tensors):
        op = fock.fock_elements(d, 6)
        assert np.array_equal(t, op.tensor)


def test_random_detect_operator_deterministic():
    d1 = fock.random_detect_operator(123)
    d2 = fock.random_detect_operator(123)
    assert (d1.m1, d1.m2, d1.m3, d1.m4, d1.m5, d1.m6) == (
        d2.m1, d2.m2, d2.m3, d2.m4, d2.m5, d2.m6,
    )


def test_random_detect_operator_positive():
    for seed in range(50):
        d = fock.random_detect_operator(seed)
        assert np.linalg.eigvalsh(d.cm())[0] >= -1e-12


def test_iteration_detect_swap_rule():
    d = SixParamDetect(3.0, 3.0, 1.0, 1.0, 0.5, 0.5, PositivityMode.OPERATOR_PSD)
    s = fock.iteration_detect(d)
    assert s.m1 * s.m2 <= s.m3 * s.m4
    # ties are not swapped
    t = SixParamDetect(2.0, 2.0, 2.0, 2.0, 0.5, 0.5, PositivityMode.OPERATOR_PSD)
    assert fock.iteration_detect(t) is t


def test_sweep_rows_and_determinism():
    rows1, fail1 = fock.sweep_fig1(10, cutoff=6, seed=7)
    rows2, _ = fock.sweep_fig1(10, cutoff=6, seed=7)
    assert len(rows1) == 10
    assert rows1 == rows2
    for r in rows1:
        assert r.m0 <= 1.0 + 1e-6
    assert fail1 == []
    # a row records the first round of the maximization, so there must be one
    with pytest.raises(ValueError):
        fock.sweep_fig1(1, max_rounds=0)
    assert fock.sweep_fig1(0) == ([], [])


def test_sweep_rows_match_single_maximizations():
    # the stacked sweep against each sample's own draw, tensor and maximization
    rows, _ = fock.sweep_fig1(12, cutoff=5, seed=3, max_rounds=6)
    assert {r.converged for r in rows} == {True, False}
    for s, row in enumerate(rows):
        rng = np.random.default_rng([3, s])
        op = fock.fock_elements(fock.iteration_detect(fock.random_detect_operator(rng)), 5)
        tau = rng.uniform(0.0, 3.0)
        noise = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = np.eye(5)[0] + tau * noise / np.linalg.norm(noise)
        res = fock.alternate_maximize(op, initial=b, max_rounds=6)
        assert (row.rounds, row.converged) == (res.rounds, res.converged)
        assert (row.m0, row.avg_photon) == (res.m0_trace[0], res.photon_trace[0])


# the three-operand einsum the matmul contraction replaced
EINSUM_CONTRACTIONS = {2: "...akbl,...k,...l->...ab", 1: "...kalb,...k,...l->...ab"}


def einsum_conditional(tensors, vecs, mode):
    mat = np.einsum(EINSUM_CONTRACTIONS[mode], tensors, vecs.conj(), vecs)
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("cutoff", [4, 7])
def test_conditional_matches_einsum(mode, cutoff):
    ops, starts = stacked_inputs(cutoff, count=5)
    tensors = np.array([op.tensor for op in ops])
    # eigh returns its vectors as columns, so the maximization passes strided views
    vecs = np.linalg.eigh(einsum_conditional(tensors, np.array(starts), 2))[1][..., -1]
    for t, v in [(tensors, vecs), (tensors[1:3], np.array(starts[1:3])),
                 (tensors[0], vecs[0]), (ops[4].tensor, starts[4])]:
        want = einsum_conditional(t, v, mode)
        got = fock._conditional(t, v, mode)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
