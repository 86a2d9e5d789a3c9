"""Dropout mechanism and its derived period-weight matrices.

A mechanism is the distribution of per-subject stay lengths: ``a[k-1]`` is
the probability that a subject stays exactly ``k`` of the ``p`` periods.
From it we derive per-period weights ``alpha[k-1]`` and ``beta[k-1]`` and
the matrices

    A = sum_k alpha_k * padded_centering(k, p)
    B = sum_k beta_k  * padded_centering(k, p)

Every optimality quantity downstream (quadratics, certificates, the
optimality system, the surrogate information X'VX of the paper's kernel
V = I_n (x) A - J_n (x) B / n) is expressed in ``A`` and ``B``; nothing
builds V.  V is not the exact mean of the realized projection kernel over
stay-length draws (the enumeration oracle is ``expected_projection_kernel``
in ``tests/test_dropout_model.py``, and acceptance entry 8a records the gap).
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property

import numpy as np

from . import matrix_kernels as mk
from .errors import ValidationError, check_integers

# Probability vectors may miss exact normalization by this much before
# being rejected; accepted vectors are renormalized to sum to 1.
PROB_SUM_TOL = 1e-9


class DropoutMechanism:
    """Validated stay-length distribution for ``n`` subjects over ``p`` periods.

    Immutable after construction; ``alpha``/``beta`` are cached eagerly since
    they are consumed once per sequence during enumeration-scale work.
    """

    def __init__(self, p: int, n: int, a) -> None:
        if int(p) != p or p < 2:
            raise ValidationError(f"number of periods must be an integer >= 2, got {p}")
        if int(n) != n or n < 2:
            raise ValidationError(f"number of subjects must be an integer >= 2, got {n}")
        a = np.asarray(a, dtype=float)
        if a.shape != (p,):
            raise ValidationError(
                f"stay-length probabilities must have length p={p}, got shape {a.shape}"
            )
        if np.any(a < 0):
            raise ValidationError(f"stay-length probabilities must be >= 0, got {a.tolist()}")
        total = float(a.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"stay-length probabilities must sum to 1 (got {total!r})"
            )
        a = a / total
        a.flags.writeable = False

        self.p = int(p)
        self.n = int(n)
        self.a = a
        self.m = int(np.flatnonzero(a > 0)[0]) + 1
        if self.m < 2:
            warnings.warn(
                "stay length 1 has positive probability; such subjects contribute "
                "no within-subject information",
                stacklevel=2,
            )
        # cumsum[k] = a_1 + ... + a_k, cumsum[0] = 0
        self._cum = np.concatenate(([0.0], np.cumsum(a)))
        self.alpha = self._alpha_vector()
        self.beta = self._beta_vector()
        self.alpha.flags.writeable = False
        self.beta.flags.writeable = False

    # -- derived coefficients ------------------------------------------------

    def partial_sum(self, j: int, k: int) -> float:
        """a_j + ... + a_k for 1 <= j <= k <= p; empty ranges (j > k) give 0."""
        if j > k:
            return 0.0
        if not (1 <= j and k <= self.p):
            raise ValidationError(f"partial sum indices out of range: ({j}, {k})")
        return float(self._cum[k] - self._cum[j - 1])

    def _alpha_vector(self) -> np.ndarray:
        n, p = self.n, self.p
        out = np.zeros(p)
        for k in range(1, p + 1):
            if self.a[k - 1] == 0.0:
                continue
            head = self.partial_sum(1, k - 1)
            full = self.partial_sum(1, k)
            out[k - 1] = ((n + 1) * self.a[k - 1] + head ** (n + 1) - full ** (n + 1)) / n
        return out

    def _beta_vector(self) -> np.ndarray:
        n, p = self.n, self.p
        out = np.zeros(p)
        for k in range(1, p + 1):
            if self.a[k - 1] == 0.0:
                continue
            tail_next = self.partial_sum(k + 1, p)
            tail = self.partial_sum(k, p)
            out[k - 1] = (
                self.a[k - 1]
                + tail_next * self.partial_sum(1, k) ** n
                - tail * self.partial_sum(1, k - 1) ** n
            )
        return out

    @property
    def stay_support(self) -> np.ndarray:
        """Stay lengths with positive probability, ascending."""
        return np.flatnonzero(self.a > 0) + 1

    # -- matrices --------------------------------------------------------------

    @cached_property
    def A(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for k in range(self.m, self.p + 1):
            if self.alpha[k - 1] != 0.0:
                out += self.alpha[k - 1] * mk.padded_centering(k, self.p)
        out.flags.writeable = False
        return out

    @cached_property
    def B(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for k in range(self.m, self.p + 1):
            if self.beta[k - 1] != 0.0:
                out += self.beta[k - 1] * mk.padded_centering(k, self.p)
        out.flags.writeable = False
        return out

    # -- misc --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "a": [float(x) for x in self.a]}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DropoutMechanism)
            and self.p == other.p
            and self.n == other.n
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"DropoutMechanism(p={self.p}, n={self.n}, a={self.a.tolist()})"


def new_mechanism(p: int, n: int, a) -> DropoutMechanism:
    """Validate and build a dropout mechanism."""
    return DropoutMechanism(p, n, a)


def load_mechanism(path) -> DropoutMechanism:
    """Read a mechanism from a JSON file {"p": int, "n": int, "a": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read mechanism file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not {"p", "n", "a"} <= set(payload):
        raise ValidationError(f"mechanism file {path} must contain keys p, n, a")
    check_integers(payload, ("p", "n"), f"mechanism file {path}")
    try:
        a = np.asarray(payload["a"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"mechanism file {path}: a must be a list of numbers: {exc}") from exc
    return new_mechanism(payload["p"], payload["n"], a)
