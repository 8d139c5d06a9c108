"""Two-class soft-margin C-SVM (Section III-D1).

:class:`SupportVectorClassifier` mirrors the LIBSVM C-SVC the paper used:
RBF kernel, per-class weights, decision function
``f(x) = sum_i a_i y_i k(x_i, x) + b``.  Prediction keeps only support
vectors.  An adjustable decision threshold lets the detector trade hit
rate against extras (the "ours_low"/"ours_med" operating points and the
Fig. 15 sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import NotFittedError, SvmError
from repro.svm.kernel import KernelFunction, make_kernel
from repro.svm.scaling import MinMaxScaler, StandardScaler
from repro.svm.smo import SmoResult, solve_smo


@dataclass
class SupportVectorClassifier:
    """Soft-margin C-SVM with RBF (or linear) kernel.

    Parameters mirror Eq. 3; ``class_weight`` maps label (+1/-1) to a
    multiplier on ``C`` so the minority class can be penalised harder.
    """

    C: float = 1000.0
    gamma: float = 0.01
    kernel: str = "rbf"
    class_weight: Optional[dict[int, float]] = None
    tolerance: float = 1e-3
    max_iterations: int = 100_000
    #: "minmax" (LIBSVM's svm-scale convention, against which the paper's
    #: gamma schedule is calibrated), "standard", or "none".
    scale_features: str = "minmax"
    #: Far-field guard for RBF kernels: as a sample's maximum kernel
    #: similarity to any support vector falls below this floor, the
    #: decision interpolates from ``f(x)`` toward -1 ("unknown means
    #: nonhotspot").  Without the guard, ``f(x)`` collapses to the bias
    #: at far-field points, and a positive-bias model flags everything it
    #: has never seen.  0 disables the guard.
    far_field_floor: float = 0.0

    # fitted state
    support_vectors_: Optional[np.ndarray] = field(default=None, repr=False)
    dual_coef_: Optional[np.ndarray] = field(default=None, repr=False)
    bias_: float = field(default=0.0, repr=False)
    scaler_: object = field(default=None, repr=False)
    last_result_: Optional[SmoResult] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise SvmError(f"C must be positive, got {self.C}")

    # ------------------------------------------------------------------
    def _kernel(self) -> KernelFunction:
        return make_kernel(self.kernel, self.gamma)

    def fit(self, matrix: np.ndarray, labels: np.ndarray) -> "SupportVectorClassifier":
        """Train on ``matrix`` (n, d) with labels in {-1, +1}."""
        labels = np.asarray(labels, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != labels.shape[0]:
            raise SvmError(
                f"matrix {matrix.shape} does not align with labels {labels.shape}"
            )
        if self.scale_features == "minmax" or self.scale_features is True:
            self.scaler_ = MinMaxScaler()
            matrix = self.scaler_.fit_transform(matrix)
        elif self.scale_features == "standard":
            self.scaler_ = StandardScaler()
            matrix = self.scaler_.fit_transform(matrix)
        else:
            self.scaler_ = None

        weights = self.class_weight or {}
        upper = np.array(
            [self.C * weights.get(int(label), 1.0) for label in labels]
        )
        gram = self._kernel()(matrix, matrix)
        result = solve_smo(
            gram, labels, upper, self.tolerance, self.max_iterations
        )
        self.last_result_ = result

        support = result.alpha > 1e-9
        if not np.any(support):
            # Degenerate but legal: fall back to a constant classifier at
            # the bias (predicts the majority side).
            support = np.zeros_like(support)
            support[0] = True
        self.support_vectors_ = matrix[support]
        self.dual_coef_ = (result.alpha * labels)[support]
        self.bias_ = result.bias
        return self

    # ------------------------------------------------------------------
    def _gram_rows(self, matrix: np.ndarray):
        """Scaled per-row kernel rows against the support vectors.

        Evaluated one row at a time: BLAS matrix products round
        differently depending on operand shapes, so a batched gram would
        give each sample bits that depend on which other samples share
        its batch.  Margins must be a pure function of the sample (the
        cache and the sharded scan both re-batch arbitrarily), and that
        holds only if every row is computed in an identically-shaped
        operation.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if self.scaler_ is not None:
            matrix = self.scaler_.transform(matrix)
        kernel = self._kernel()
        for i in range(matrix.shape[0]):
            yield kernel(matrix[i : i + 1], self.support_vectors_)[0]

    def decision_function(self, matrix: np.ndarray) -> np.ndarray:
        """Signed margin ``f(x)`` for each row of ``matrix``.

        Bit-reproducible per row: the value of a sample does not depend
        on the rest of the batch (see :meth:`_gram_rows`).
        """
        if self.support_vectors_ is None or self.dual_coef_ is None:
            raise NotFittedError("classifier used before fit()")
        single = np.asarray(matrix).ndim == 1
        far_field = self.far_field_floor > 0 and self.kernel == "rbf"
        values = []
        for gram in self._gram_rows(matrix):
            value = float(gram @ self.dual_coef_) + self.bias_
            if far_field:
                weight = min(1.0, float(gram.max()) / self.far_field_floor)
                value = weight * value + (1.0 - weight) * -1.0
            values.append(value)
        values = np.array(values, dtype=np.float64)
        return values[0] if single else values

    def support_similarity(self, matrix: np.ndarray) -> np.ndarray:
        """Maximum RBF kernel value to any support vector, per row.

        1.0 means "sits on a support vector", ~0 means the model has no
        evidence about the sample.  Callers use this to treat far-field
        samples specially (e.g. the feedback kernel must not overrule the
        primary kernels on clips it knows nothing about).
        """
        if self.support_vectors_ is None:
            raise NotFittedError("classifier used before fit()")
        return np.array(
            [float(gram.max()) for gram in self._gram_rows(matrix)],
            dtype=np.float64,
        )

    def predict(self, matrix: np.ndarray, threshold: float = 0.0) -> np.ndarray:
        """Class labels (+1/-1); ``threshold`` shifts the decision boundary.

        A positive threshold demands more confidence for the +1 (hotspot)
        class — the lever behind the accuracy/false-alarm trade-off.
        """
        values = self.decision_function(matrix)
        return np.where(values >= threshold, 1, -1)

    def score(self, matrix: np.ndarray, labels: np.ndarray) -> float:
        """Plain accuracy on a labelled set."""
        labels = np.asarray(labels, dtype=np.int64)
        predictions = self.predict(matrix)
        return float((predictions == labels).mean())

    @property
    def n_support_(self) -> int:
        if self.support_vectors_ is None:
            raise NotFittedError("classifier used before fit()")
        return int(self.support_vectors_.shape[0])
