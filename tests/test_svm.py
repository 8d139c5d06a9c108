"""Tests for the SVM substrate: kernels, SMO, model, scaling, iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotFittedError, SvmError
from repro.svm.grid_search import IterativeConfig, train_iterative
from repro.svm.kernel import linear_kernel, make_kernel, rbf_kernel, squared_distances
from repro.svm.model import SupportVectorClassifier
from repro.svm.scaling import StandardScaler
from repro.svm.smo import solve_smo


class TestKernels:
    def test_squared_distances_exact(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = squared_distances(a, a)
        assert d[0, 1] == pytest.approx(25.0)
        assert d[0, 0] == 0.0

    def test_rbf_range(self):
        k = rbf_kernel(0.5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        gram = k(x, x)
        assert np.all(gram <= 1.0 + 1e-12) and np.all(gram > 0)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_positive_semidefinite(self):
        k = rbf_kernel(1.0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4))
        eigenvalues = np.linalg.eigvalsh(k(x, x))
        assert eigenvalues.min() > -1e-9

    def test_rbf_invalid_gamma(self):
        with pytest.raises(SvmError):
            rbf_kernel(0.0)

    def test_linear_kernel(self):
        k = linear_kernel()
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert k(a, b)[0, 0] == pytest.approx(11.0)

    def test_make_kernel_unknown(self):
        with pytest.raises(SvmError):
            make_kernel("poly")


class TestSmo:
    def test_separable_problem_kkt(self):
        """On a linearly separable set the solution satisfies KKT."""
        x = np.array([[0.0], [1.0], [3.0], [4.0]])
        y = np.array([-1, -1, 1, 1])
        gram = x @ x.T
        result = solve_smo(gram, y, np.full(4, 10.0))
        assert result.converged
        # equality constraint
        assert abs(float(result.alpha @ y)) < 1e-9
        # box constraint
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= 10.0 + 1e-12)
        # all training points classified correctly
        decision = gram @ (result.alpha * y) + result.bias
        assert np.all(np.sign(decision) == y)

    def test_objective_negative_for_nontrivial(self):
        x = np.array([[0.0], [1.0], [3.0], [4.0]])
        y = np.array([-1, -1, 1, 1])
        result = solve_smo(x @ x.T, y, np.full(4, 10.0))
        assert result.objective < 0

    def test_single_class_rejected(self):
        with pytest.raises(SvmError):
            solve_smo(np.eye(3), np.array([1, 1, 1]), np.full(3, 1.0))

    def test_bad_labels_rejected(self):
        with pytest.raises(SvmError):
            solve_smo(np.eye(2), np.array([0, 1]), np.full(2, 1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SvmError):
            solve_smo(np.eye(3), np.array([1, -1]), np.full(2, 1.0))

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(SvmError):
            solve_smo(np.eye(2), np.array([1, -1]), np.array([1.0, 0.0]))

    def test_per_sample_bounds_respected(self):
        x = np.array([[0.0], [0.5], [0.6], [4.0]])
        y = np.array([-1, -1, 1, 1])
        bounds = np.array([5.0, 5.0, 0.25, 5.0])
        result = solve_smo(x @ x.T + np.eye(4), y, bounds)
        assert result.alpha[2] <= 0.25 + 1e-9

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_random_separable_converges(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        x = np.vstack([rng.normal(-3, 0.5, (n, 2)), rng.normal(3, 0.5, (n, 2))])
        y = np.array([-1] * n + [1] * n)
        gram = np.exp(-0.5 * squared_distances(x, x))
        result = solve_smo(gram, y, np.full(2 * n, 100.0))
        decision = gram @ (result.alpha * y) + result.bias
        assert (np.sign(decision) == y).mean() == 1.0


class TestScaler:
    def test_transform_standardises(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, (200, 4))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1, atol=1e-9)

    def test_constant_column_safe(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled[:, 1], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((1, 2)))

    def test_column_mismatch_raises(self):
        scaler = StandardScaler().fit(np.zeros((3, 2)))
        with pytest.raises(SvmError):
            scaler.transform(np.zeros((1, 3)))


class TestClassifier:
    def blobs(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal(-2, 0.8, (n, 3)), rng.normal(2, 0.8, (n, 3))])
        y = np.array([-1] * n + [1] * n)
        return x, y

    def test_fit_predict_blobs(self):
        x, y = self.blobs()
        model = SupportVectorClassifier(C=10, gamma=0.2).fit(x, y)
        assert model.score(x, y) >= 0.98

    def test_xor_needs_rbf(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (300, 2))
        y = np.where(x[:, 0] * x[:, 1] > 0, 1, -1)
        model = SupportVectorClassifier(C=100, gamma=5.0).fit(x, y)
        assert model.score(x, y) >= 0.97

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SupportVectorClassifier().predict(np.zeros((1, 2)))

    def test_invalid_c(self):
        with pytest.raises(SvmError):
            SupportVectorClassifier(C=-1.0)

    def test_decision_threshold_monotone(self):
        x, y = self.blobs()
        model = SupportVectorClassifier(C=10, gamma=0.2).fit(x, y)
        strict = (model.predict(x, threshold=1.0) == 1).sum()
        loose = (model.predict(x, threshold=-1.0) == 1).sum()
        assert strict <= loose

    def test_class_weight_shifts_boundary(self):
        rng = np.random.default_rng(5)
        # overlapping blobs; upweighting +1 should increase +1 predictions
        x = np.vstack([rng.normal(-0.5, 1.0, (80, 2)), rng.normal(0.5, 1.0, (20, 2))])
        y = np.array([-1] * 80 + [1] * 20)
        plain = SupportVectorClassifier(C=1.0, gamma=0.5).fit(x, y)
        weighted = SupportVectorClassifier(
            C=1.0, gamma=0.5, class_weight={1: 10.0}
        ).fit(x, y)
        assert (weighted.predict(x) == 1).sum() >= (plain.predict(x) == 1).sum()

    def test_far_field_floor_pushes_unknown_negative(self):
        x, y = self.blobs()
        model = SupportVectorClassifier(C=10, gamma=0.5, far_field_floor=0.1).fit(x, y)
        far = np.full((1, 3), 100.0)
        assert model.decision_function(far)[0] == pytest.approx(-1.0)

    def test_support_similarity_range(self):
        x, y = self.blobs()
        model = SupportVectorClassifier(C=10, gamma=0.5).fit(x, y)
        sims = model.support_similarity(x)
        assert np.all(sims > 0) and np.all(sims <= 1.0 + 1e-12)
        assert model.support_similarity(np.full((1, 3), 50.0))[0] < 1e-6

    def test_single_row_decision(self):
        x, y = self.blobs()
        model = SupportVectorClassifier(C=10, gamma=0.2).fit(x, y)
        value = model.decision_function(x[0])
        assert np.isscalar(value) or value.ndim == 0

    def test_misaligned_labels_rejected(self):
        with pytest.raises(SvmError):
            SupportVectorClassifier().fit(np.zeros((4, 2)), np.array([1, -1]))


def fitted_classifier(seed, rows=24, dims=3, far_field_floor=0.0):
    """A small deterministic RBF model fit on seeded random data."""
    rng = np.random.RandomState(seed)
    matrix = rng.uniform(0.0, 10.0, size=(rows, dims))
    labels = np.where(rng.rand(rows) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1  # both classes always present
    clf = SupportVectorClassifier(
        C=10.0, gamma=0.1, far_field_floor=far_field_floor
    )
    clf.fit(matrix, labels)
    return clf, rng


def evaluate(clf, samples):
    return clf.decision_function(samples), clf.support_similarity(samples)


class TestRowIndependence:
    """A row's margin and similarity must not depend on the rest of its batch.

    The margin cache stores rows one clip at a time and the sharded scan
    re-batches clips arbitrarily; both are bit-identical to a plain scan
    only because every row is evaluated on its own.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 192),
        far_field_floor=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_per_row_equals_batched(self, seed, n_samples, far_field_floor):
        clf, rng = fitted_classifier(seed, far_field_floor=far_field_floor)
        samples = rng.uniform(-2.0, 12.0, size=(n_samples, 3))

        full_values, full_similarity = evaluate(clf, samples)
        rows = [evaluate(clf, samples[i : i + 1]) for i in range(n_samples)]
        assert np.array_equal(full_values, np.concatenate([v for v, _ in rows]))
        assert np.array_equal(full_similarity, np.concatenate([s for _, s in rows]))

    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 199), max_size=6, unique=True),
    )
    @settings(max_examples=15, deadline=None)
    def test_partition_invariance(self, seed, cuts):
        clf, rng = fitted_classifier(seed)
        samples = rng.uniform(-2.0, 12.0, size=(200, 3))

        full_values, full_similarity = evaluate(clf, samples)
        bounds = [0] + sorted(cuts) + [200]
        chunks = [evaluate(clf, samples[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(full_values, np.concatenate([v for v, _ in chunks]))
        assert np.array_equal(full_similarity, np.concatenate([s for _, s in chunks]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_row_order_invariance(self, seed):
        clf, rng = fitted_classifier(seed)
        samples = rng.uniform(-2.0, 12.0, size=(135, 3))

        full_values, full_similarity = evaluate(clf, samples)
        perm = rng.permutation(samples.shape[0])
        values, similarity = evaluate(clf, samples[perm])
        assert np.array_equal(full_values[perm], values)
        assert np.array_equal(full_similarity[perm], similarity)


class TestIterativeTraining:
    def test_doubling_schedule(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (200, 2))
        y = np.where(x[:, 0] * x[:, 1] > 0, 1, -1)
        result = train_iterative(
            x, y, IterativeConfig(initial_c=1.0, initial_gamma=0.01, max_rounds=10)
        )
        for i, r in enumerate(result.history):
            assert r.c_value == pytest.approx(1.0 * 2**i)
            assert r.gamma == pytest.approx(0.01 * 2**i)

    def test_stops_at_target(self):
        rng = np.random.default_rng(8)
        n = 40
        x = np.vstack([rng.normal(-3, 0.3, (n, 2)), rng.normal(3, 0.3, (n, 2))])
        y = np.array([-1] * n + [1] * n)
        result = train_iterative(
            x, y, IterativeConfig(initial_c=1000.0, initial_gamma=0.01, max_rounds=8)
        )
        assert result.rounds == 1  # separable at the paper's initial params
        assert result.final_accuracy >= 0.9

    def test_keeps_best_round(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (120, 2))
        y = np.where(x[:, 0] * x[:, 1] > 0, 1, -1)
        result = train_iterative(
            x,
            y,
            IterativeConfig(
                initial_c=0.1, initial_gamma=0.001, target_accuracy=0.999, max_rounds=6
            ),
        )
        best_acc = max(r.train_accuracy for r in result.history)
        assert result.model.score(x, y) == pytest.approx(best_acc, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(SvmError):
            IterativeConfig(target_accuracy=0.0)
        with pytest.raises(SvmError):
            IterativeConfig(max_rounds=0)

    def test_paper_defaults(self):
        config = IterativeConfig()
        assert config.initial_c == 1000.0
        assert config.initial_gamma == 0.01
        assert config.target_accuracy == 0.90
