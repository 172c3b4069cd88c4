import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskenv import uncertainty
from riskenv.config import COVARIANCE_CASES, RunConfig
from riskenv.uncertainty import (
    EXACT_SAMPLES,
    MAX_GRID_SAMPLES,
    MAX_SIGMA,
    EigenBasis,
    UncertaintySpec,
    chi2_cdf_4,
    chi2_quantile_4,
    contour_samples,
    draw_noise,
    eigendecompose,
)

from conftest import (
    StateDeviation,
    chi2_quantile_bisection,
    contour_deviation,
    first_grid_indices,
    full_grid_contour,
    grid_representatives,
    mahalanobis_sq,
    sample_contour,
)


def distinct_grid_rows(n):
    """Closed-form count of the distinct points of the n^3 angle grid."""
    h = n // 2
    if n % 2 == 0:
        return 2 + (h - 1) * (2 + (h - 1) * n)
    return 1 + (n - 1) * (1 + (n - 1) * n)


def one_contour(basis, p, n_phi):
    """The deviations ``contour_samples`` gives for a spec with the single
    level p; it reads only the levels and n_phi of the spec."""
    levels, deviations, counts = contour_samples(
        basis, UncertaintySpec(np.eye(4), (p,), n_phi))
    assert levels == (p,) and counts == (deviations.shape[0],)
    return deviations


def spectrum_basis(spectrum, rotate):
    r = random_rotation(np.random.default_rng(6)) if rotate else np.eye(4)
    return eigendecompose(r @ np.diag(spectrum) @ r.T)


SPECTRA = {
    "rotated": ((2.0, 1.5, 1.0, 0.5), True),
    "tied": ((0.04, 0.04, 0.04, 1e-4), False),
    "diagonal": ((0.16, 0.09, 0.04, 4e-4), False),
    "zero-eigenvalue": ((1.0, 0.0, 0.5, 0.0), True),
}


def chi2_4_density(x):
    return 0.25 * x * math.exp(-0.5 * x)


class TestChi2:
    def test_cdf_at_origin(self):
        assert chi2_cdf_4(0.0) == 0.0

    def test_cdf_limit(self):
        assert chi2_cdf_4(50.0) > 0.999999

    def test_cdf_95_point(self):
        assert chi2_cdf_4(9.4877) == pytest.approx(0.95, abs=1e-4)

    def test_cdf_against_quadrature(self):
        # Simpson integration of the density as an independent cross-check.
        x = 9.4877
        n = 4000
        h = x / n
        grid = np.arange(n + 1) * h
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        integral = h / 3.0 * float(np.sum(w * [chi2_4_density(g) for g in grid]))
        assert chi2_cdf_4(x) == pytest.approx(integral, abs=1e-8)

    def test_cdf_domain(self):
        with pytest.raises(ValueError):
            chi2_cdf_4(-0.1)

    def test_quantile_at_zero(self):
        assert chi2_quantile_4(0.0) == 0.0

    def test_quantile_95(self):
        assert chi2_quantile_4(0.95) == pytest.approx(9.4877, abs=1e-3)

    def test_quantile_domain(self):
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile_4(bad)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.99])
    def test_round_trip(self, p):
        assert chi2_cdf_4(chi2_quantile_4(p)) == pytest.approx(p, abs=1e-9)

    @given(p=st.floats(0.0, 0.999999))
    @settings(max_examples=200)
    def test_round_trip_property(self, p):
        assert abs(chi2_cdf_4(chi2_quantile_4(p)) - p) < 1e-9


class TestChi2QuantileBisection:
    """The memoized quantile returns the bisection's bits."""

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-17, 1e-9, 0.25, 0.5, 0.75, 0.93,
                                   0.97, 0.999, 1.0 - 1e-9, 1.0 - 2.0 ** -52,
                                   1.0 - 2.0 ** -53])
    def test_edge_and_default_levels(self, p):
        assert chi2_quantile_4(p) == chi2_quantile_bisection(p)

    @given(p=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
                       st.floats(-320.0, 0.0).map(lambda e: 10.0 ** e),
                       st.integers(1, 40 * 2 ** 20).map(lambda k: chi2_cdf_4(k / 2.0 ** 20))))
    @settings(max_examples=500)
    def test_equals_the_bisection(self, p):
        if 0.0 < p < 1.0:
            assert chi2_quantile_4(p) == chi2_quantile_bisection(p)

    def test_equals_the_bisection_on_a_seeded_sweep(self):
        # Uniform levels, levels spread over every scale, levels within
        # 1e-15.9 of 1, where the CDF's rounding is coarsest, and the CDF at
        # points of every bracket grid (multiples of 2**-20) and its float
        # neighbours, where the estimate can fall in the next grid cell.
        rng = np.random.default_rng(21)
        levels = np.concatenate([rng.uniform(0.0, 1.0, 1500),
                                 10.0 ** rng.uniform(-320.0, 0.0, 1000),
                                 1.0 - 10.0 ** rng.uniform(-15.95, -15.9, 500)]).tolist()
        for x in (rng.integers(1, 40 * 2 ** 20, 300) / 2.0 ** 20).tolist():
            p = chi2_cdf_4(x)
            levels += [p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)]
        for p in levels:
            if 0.0 < p < 1.0:
                assert chi2_quantile_4(p) == chi2_quantile_bisection(p), p


class TestChi2QuantileMemo:
    def test_bounded_and_exact(self):
        size = chi2_quantile_4.cache_info().maxsize
        assert size is not None
        levels = np.linspace(0.01, 0.99, 2 * size).tolist()
        for p in levels:
            chi2_quantile_4(p)
        assert chi2_quantile_4.cache_info().currsize <= size
        hits = chi2_quantile_4.cache_info().hits
        for _ in range(3):
            assert chi2_quantile_4(levels[-1]) == chi2_quantile_bisection(levels[-1])
        assert chi2_quantile_4.cache_info().hits == hits + 3
        assert chi2_quantile_4.cache_info().currsize <= size

    @pytest.mark.parametrize("bad", [-0.01, 1.0, math.nan])
    def test_out_of_domain_raises_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                chi2_quantile_4(bad)


class TestGridFactorMemo:
    def test_read_only(self):
        for factor in uncertainty._grid_factors(8):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 1.0

    def test_bounded_and_shared(self):
        memo = uncertainty._grid_factors
        size = memo.cache_info().maxsize
        assert size is not None and size <= 8
        for n_phi in range(2, 2 + 2 * size):
            UncertaintySpec.from_diagonal((0.04, 0.04, 0.04, 1e-4), (0.5, 0.9), n_phi).samples
            assert memo.cache_info().currsize <= size
        assert memo(3) is memo(3)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return q


class TestEigendecompose:
    def test_diagonal(self):
        b = eigendecompose(np.diag([1.0, 4.0, 2.0, 0.5]))
        assert np.allclose(b.eigenvalues, [4.0, 2.0, 1.0, 0.5])
        # Permutation with canonical signs.
        assert np.allclose(np.abs(b.eigenvectors).sum(axis=0), 1.0)
        assert np.all(b.eigenvectors.max(axis=0) == 1.0)

    def test_rotated_spectrum_recovered(self):
        rng = np.random.default_rng(0)
        r = random_rotation(rng)
        sigma = r @ np.diag([4.0, 1.0, 1.0, 1.0]) @ r.T
        b = eigendecompose(sigma)
        assert np.allclose(np.sort(b.eigenvalues), [1.0, 1.0, 1.0, 4.0], atol=1e-9)
        recon = b.eigenvectors @ np.diag(b.eigenvalues) @ b.eigenvectors.T
        assert np.allclose(recon, sigma, atol=1e-9)

    def test_zero_matrix(self):
        b = eigendecompose(np.zeros((4, 4)))
        assert np.all(b.eigenvalues == 0.0)
        assert np.allclose(b.eigenvectors, np.eye(4))
        assert b.is_zero

    @pytest.mark.parametrize("diag", [[0.0, 0.0, 0.0, 1e-300], [0.0, 0.04, 0.0, 0.0]])
    def test_one_positive_variance_is_not_zero(self, diag):
        assert not eigendecompose(np.diag(diag)).is_zero

    def test_asymmetric_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            eigendecompose(m)

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(np.diag([1.0, 1.0, 1.0, -0.5]))

    # 2 MAX_SIGMA: eigendecompose applies UncertaintySpec's bound on the entries.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2 * MAX_SIGMA])
    @pytest.mark.parametrize("where", [(3, 3), (0, 2)])
    def test_non_finite_rejected(self, value, where):
        m = np.eye(4)
        m[where] = m[where[::-1]] = value
        with pytest.raises(ValueError, match="finite"):
            eigendecompose(m)

    def test_diagonal_gives_the_sorted_diagonal_and_axis_vectors(self):
        # Equal eigenvalues keep their axis order, so a diagonal covariance
        # gives unit vectors exactly; the golden traces and the rates digest
        # rest on it.
        values = (0.0, 1e-4, 4e-4, 0.04, 0.09)
        for diag in itertools.product(values, repeat=4):
            b = eigendecompose(np.diag(diag))
            order = np.lexsort((np.arange(4), -np.array(diag)))
            assert np.array_equal(b.eigenvalues, np.array(diag)[order])
            assert np.array_equal(b.eigenvectors, np.eye(4)[:, order])
            assert not np.signbit(b.eigenvectors).any()
            assert not np.signbit(b.eigenvalues).any()

    @given(seed=st.integers(0, 10_000), ties=st.sampled_from([(0, 1), (1, 2), (0, 3)]))
    @settings(max_examples=50, deadline=None)
    def test_signs_and_tie_order_are_canonical(self, seed, ties):
        # Each column's largest-magnitude component is positive, and equal
        # eigenvalues come in the (non-decreasing) order of the axes of
        # those components.
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(0.0, 2.0, 4))[::-1]
        spectrum[ties[1]] = spectrum[ties[0]]
        rot = random_rotation(rng)
        b = eigendecompose(rot @ np.diag(spectrum) @ rot.T)
        v = b.eigenvectors
        axis = np.abs(v).argmax(axis=0)
        assert np.all(v[axis, np.arange(4)] > 0.0)
        assert np.all(np.diff(b.eigenvalues) <= 0.0)
        same = b.eigenvalues[1:] == b.eigenvalues[:-1]
        assert np.all(axis[1:][same] >= axis[:-1][same])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T
        b = eigendecompose(sigma)
        scale = max(1.0, float(np.abs(sigma).max()))
        recon = b.eigenvectors @ np.diag(b.eigenvalues) @ b.eigenvectors.T
        assert np.abs(recon - sigma).max() / scale < 1e-9
        assert np.abs(b.eigenvectors.T @ b.eigenvectors - np.eye(4)).max() < 1e-9
        assert np.all(np.diff(b.eigenvalues) <= 1e-12)


class TestDiagonalDeterminism:
    """A diagonal covariance, as every default case is, is bit-stable across
    LAPACK builds: its contour samples and its noise are those of the
    closed-form basis (the sorted diagonal and the axis unit vectors), which
    no LAPACK call computes."""

    def test_default_cases_are_diagonal(self):
        for spec in RunConfig().uncertainty.values():
            assert np.array_equal(spec.sigma, np.diag(np.diag(spec.sigma)))

    @pytest.mark.parametrize("case", COVARIANCE_CASES)
    def test_samples_and_noise_rest_on_the_closed_form_basis(self, case):
        spec = RunConfig().uncertainty[case]
        diag = np.diag(spec.sigma)
        order = np.lexsort((np.arange(4), -diag))
        closed = EigenBasis(diag[order], np.eye(4)[:, order])
        got, want = spec.samples, contour_samples(closed, spec)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()
        noise = [draw_noise(basis, np.random.default_rng(3), 50).tobytes()
                 for basis in (spec.basis, closed)]
        assert noise[0] == noise[1]


class TestContours:
    def test_origin_angles_give_first_axis(self):
        b = eigendecompose(np.diag([4.0, 1.0, 1.0, 1.0]))
        d = contour_deviation(b, 0.95, 0.0, 0.0, 0.0)
        r0 = math.sqrt(chi2_quantile_4(0.95) * 4.0)
        assert d.as_array() == pytest.approx([r0, 0, 0, 0])

    @given(phi1=st.floats(0, 2 * math.pi), phi2=st.floats(0, 2 * math.pi),
           phi3=st.floats(0, 2 * math.pi), p=st.floats(0.05, 0.999))
    @settings(max_examples=100)
    def test_point_on_ellipsoid(self, phi1, phi2, phi3, p):
        rng = np.random.default_rng(4)
        r = random_rotation(rng)
        sigma = r @ np.diag([2.0, 1.0, 0.5, 0.1]) @ r.T
        b = eigendecompose(sigma)
        d = contour_deviation(b, p, phi1, phi2, phi3)
        assert mahalanobis_sq(d.as_array(), sigma) == pytest.approx(
            chi2_quantile_4(p), abs=1e-9)

    @pytest.mark.parametrize("name", [*SPECTRA, "random"])
    def test_every_level_equals_one_level_oracle(self, name):
        # One broadcast pass over all levels rounds each level's rows as the
        # one-level oracle does.
        rng = np.random.default_rng(8)
        for n in range(2, 17):
            if name == "random":
                rot = random_rotation(rng)
                b = eigendecompose(rot @ np.diag(rng.uniform(0.0, 2.0, 4)) @ rot.T)
            else:
                b = spectrum_basis(*SPECTRA[name])
            for n_levels in range(1, 7):
                levels = tuple(np.sort(rng.choice(999, n_levels, replace=False) + 1) / 1000)
                got = contour_samples(b, UncertaintySpec(np.eye(4), levels, n))
                want = [sample_contour(b, p, n) for p in levels]
                assert got[0] == levels
                assert got[2] == tuple(w.shape[0] for w in want)
                assert np.array_equal(got[1], np.concatenate(want))

    def test_zero_eigenvalue_axis_stays_zero(self):
        b = eigendecompose(np.diag([1.0, 1.0, 1.0, 0.0]))
        for phi in np.linspace(0, 2 * math.pi, 7):
            d = contour_deviation(b, 0.9, phi, phi / 2, phi / 3)
            assert d.as_array()[3] == 0.0

    def test_sample_count(self):
        b = eigendecompose(np.diag([1.0, 1.0, 1.0, 1.0]))
        assert one_contour(b, 0.9, 2).shape == (2, 4)
        assert one_contour(b, 0.9, 5).shape == (85, 4)
        assert one_contour(b, 0.9, 8).shape == (80, 4)
        for n in range(2, 17):
            assert one_contour(b, 0.9, n).shape == (distinct_grid_rows(n), 4)
            assert first_grid_indices(n).size == distinct_grid_rows(n)

    @pytest.mark.parametrize("name", SPECTRA)
    def test_rows_are_first_grid_indices_bit_for_bit(self, name):
        b = spectrum_basis(*SPECTRA[name])
        for n in range(2, 17):
            for p in (0.25, 0.999):
                assert np.array_equal(one_contour(b, p, n),
                                      full_grid_contour(b, p, n)[first_grid_indices(n)])

    @pytest.mark.parametrize("name", SPECTRA)
    def test_every_grid_row_is_a_kept_row(self, name):
        b = spectrum_basis(*SPECTRA[name])
        for n in range(2, 17):
            kept = one_contour(b, 0.9, n)
            full = full_grid_contour(b, 0.9, n)
            rep = grid_representatives(n)
            match = kept[np.searchsorted(first_grid_indices(n), rep)]
            assert np.abs(full - match).max() <= 1e-12 * np.abs(full).max()

    def test_kept_rows_are_distinct(self):
        b = spectrum_basis(*SPECTRA["rotated"])
        for n in range(2, 17):
            kept = one_contour(b, 0.9, n)
            for i, row in enumerate(kept[:-1]):
                gap = np.abs(kept[i + 1:] - row).max(axis=1)
                assert gap.min() > 1e-6 * np.abs(kept).max()

    def test_samples_on_ellipsoid(self):
        rng = np.random.default_rng(5)
        r = random_rotation(rng)
        sigma = r @ np.diag([2.0, 1.5, 1.0, 0.5]) @ r.T
        b = eigendecompose(sigma)
        devs = one_contour(b, 0.8, 4)
        q = chi2_quantile_4(0.8)
        inv = np.linalg.inv(sigma)
        for d in devs:
            assert d @ inv @ d == pytest.approx(q, abs=1e-9)

    @pytest.mark.parametrize("spectrum,rotate", [
        ((2.0, 1.5, 1.0, 0.5), True),
        ((0.04, 0.04, 0.04, 1e-4), False),
    ], ids=["rotated", "tied"])
    def test_rows_match_scalar_oracle(self, spectrum, rotate):
        b = spectrum_basis(spectrum, rotate)
        for n in (5, 6):
            devs = one_contour(b, 0.9, n)
            step = 2.0 * math.pi / n
            want = [contour_deviation(b, 0.9, z1 * step, z2 * step, z3 * step).as_array()
                    for z1, z2, z3 in zip(*np.unravel_index(first_grid_indices(n),
                                                            (n, n, n)))]
            assert devs.shape == (len(want), 4)
            assert np.abs(devs - np.array(want)).max() <= 1e-12

    def test_axis_extremes_present_with_nphi4(self):
        sigma = np.diag([4.0, 1.0, 1.0, 1.0])
        b = eigendecompose(sigma)
        devs = one_contour(b, 0.9, 4)
        r0 = math.sqrt(chi2_quantile_4(0.9) * 4.0)
        hits = [d for d in devs if abs(abs(d[0]) - r0) < 1e-9
                and np.abs(d[1:]).max() < 1e-9]
        signs = {np.sign(d[0]) for d in hits}
        assert signs == {-1.0, 1.0}

    def test_rotation_consistency(self):
        rng = np.random.default_rng(6)
        r = random_rotation(rng)
        lam = np.diag([2.0, 1.0, 0.5, 0.25])
        sigma = r @ lam @ r.T
        b = eigendecompose(sigma)
        devs = one_contour(b, 0.9, 3)
        inv_world = np.linalg.inv(sigma)
        for d in devs:
            d_eigen = b.eigenvectors.T @ d
            m_eigen = float(np.sum(d_eigen ** 2 / b.eigenvalues))
            m_world = float(d @ inv_world @ d)
            assert m_world == pytest.approx(m_eigen, abs=1e-9)


class TestDrawNoise:
    def test_zero_covariance(self):
        rng = np.random.default_rng(1)
        draws = draw_noise(eigendecompose(np.zeros((4, 4))), rng, 3)
        assert draws.shape == (3, 4)
        assert np.all(draws == 0.0)

    def test_same_seed_same_sequence(self):
        b = eigendecompose(np.diag([1.0, 2.0, 3.0, 4.0]))
        a = draw_noise(b, np.random.default_rng(42), 5)
        c = draw_noise(b, np.random.default_rng(42), 5)
        assert np.array_equal(a, c)

    def test_empirical_covariance(self):
        rng = np.random.default_rng(9)
        rot = random_rotation(np.random.default_rng(2))
        sigma = rot @ np.diag([1.0, 0.6, 0.3, 0.1]) @ rot.T
        b = eigendecompose(sigma)
        draws = draw_noise(b, rng, 100_000)
        emp = np.cov(draws.T)
        for i in range(4):
            for j in range(4):
                tol = 0.05 * max(abs(sigma[i, j]), 0.05)
                assert abs(emp[i, j] - sigma[i, j]) < tol

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_confidence_coverage(self, p):
        rng = np.random.default_rng(100)
        sigma = np.diag([0.04, 0.04, 0.04, 1e-4])
        draws = draw_noise(eigendecompose(sigma), rng, 100_000)
        m = np.sum(draws ** 2 / np.diag(sigma), axis=1)
        frac = float(np.mean(m <= chi2_quantile_4(p)))
        assert frac == pytest.approx(p, abs=0.01)

    @pytest.mark.parametrize("name", SPECTRA)
    def test_one_call_takes_the_normals_of_one_row_draws(self, name):
        # One (n, 4) draw equals n one-agent draws V (sqrt(lambda) * z) from
        # an equal generator: bit for bit when V is a permutation, to
        # rounding otherwise.
        b = spectrum_basis(*SPECTRA[name])
        diagonal = not SPECTRA[name][1]
        for n in (0, 1, 2, 7):
            got = draw_noise(b, np.random.default_rng(n), n)
            rng = np.random.default_rng(n)
            want = np.array([b.eigenvectors @ (np.sqrt(b.eigenvalues) * rng.standard_normal(4))
                             for _ in range(n)]).reshape(n, 4)
            assert got.shape == (n, 4)
            if diagonal:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max(initial=0.0) <= 1e-15 * max(
                    1.0, np.abs(want).max(initial=0.0))


class TestSpecValidation:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            UncertaintySpec.from_diagonal([1, 1, 1, 1], (0.5, 0.5), 4)

    def test_levels_must_be_probabilities(self):
        with pytest.raises(ValueError):
            UncertaintySpec.from_diagonal([1, 1, 1, 1], (0.5, 1.0), 4)

    def test_sigma_is_a_read_only_copy(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        spec = UncertaintySpec(m, (0.9,), 4)
        with pytest.raises(ValueError):
            spec.sigma[0, 0] = 5.0
        assert m.flags.writeable
        m[0, 0] = 5.0
        assert spec.sigma[0, 0] == 1.0

    def test_basis_decomposed_once_on_first_use(self, eigendecompose_calls):
        spec = UncertaintySpec.from_diagonal([1.0, 4.0, 2.0, 0.5], (0.9,), 4)
        assert eigendecompose_calls == []
        basis = spec.basis
        assert spec.basis is basis
        assert len(eigendecompose_calls) == 1
        assert list(basis.eigenvalues) == [4.0, 2.0, 1.0, 0.5]

    def test_samples_built_once_and_read_only(self):
        spec = UncertaintySpec.from_diagonal([1.0, 4.0, 2.0, 0.5], (0.5, 0.9), 6)
        levels, devs, counts = spec.samples
        assert spec.samples is spec.samples
        want = contour_samples(spec.basis, spec)
        assert levels == want[0] and counts == want[2]
        assert np.array_equal(devs, want[1])
        with pytest.raises(ValueError):
            devs[0, 0] = 1.0
        zero = UncertaintySpec.from_diagonal([0.0] * 4, (0.9,), 4).samples
        assert zero is EXACT_SAMPLES
        with pytest.raises(ValueError):
            zero[1][0, 0] = 1.0

    def test_basis_of_indefinite_sigma_raises(self):
        spec = UncertaintySpec.from_diagonal([1.0, 1.0, 1.0, -0.5], (0.9,), 4)
        with pytest.raises(ValueError, match="positive semi-definite"):
            spec.basis

    def test_symmetry_tolerance_matches_eigendecompose(self):
        # An asymmetry inside allclose's relative tolerance but above
        # eigendecompose's absolute one is rejected up front.
        for gap, ok in ((1e-6, False), (1e-10, True)):
            m = np.eye(4)
            m[0, 1], m[1, 0] = 0.5, 0.5 + gap
            if ok:
                UncertaintySpec(m, (0.9,), 4).basis
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    UncertaintySpec(m, (0.9,), 4)

    def test_asymmetric_sigma_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            UncertaintySpec(m, (0.9,), 4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, value):
        m = np.eye(4)
        m[2, 2] = value
        with pytest.raises(ValueError, match="finite"):
            UncertaintySpec(m, (0.9,), 4)

    def test_n_phi_minimum(self):
        with pytest.raises(ValueError):
            UncertaintySpec.from_diagonal([1, 1, 1, 1], (0.9,), 1)

    @pytest.mark.parametrize("n_phi", [8.9, float("nan"), float("inf"), True,
                                       np.bool_(True), "8", None])
    def test_n_phi_must_be_integral(self, n_phi):
        with pytest.raises(ValueError, match="n_phi must be an integer"):
            UncertaintySpec.from_diagonal([1, 1, 1, 1], (0.9,), n_phi)

    @pytest.mark.parametrize("n_phi", [8.0, np.int64(8), np.float64(8.0)])
    def test_integral_n_phi_stored_as_int(self, n_phi):
        spec = UncertaintySpec.from_diagonal([1, 1, 1, 1], (0.9,), n_phi)
        assert spec.n_phi == 8 and type(spec.n_phi) is int

    def test_grid_budget(self):
        levels = (0.25, 0.5, 0.75, 0.93, 0.97, 0.999)
        assert UncertaintySpec.from_diagonal([1, 1, 1, 1], levels, 24).n_phi == 24
        for n_phi in (26, 400, 10 ** 400, 1e300):
            with pytest.raises(ValueError, match="n_phi"):
                UncertaintySpec.from_diagonal([1, 1, 1, 1], levels, n_phi)
        assert MAX_GRID_SAMPLES >= 24 ** 3 * len(levels)

    def test_state_deviation_round_trip(self):
        d = StateDeviation(0.1, -0.2, 0.3, -0.4)
        assert list(d.as_array()) == [0.1, -0.2, 0.3, -0.4]
