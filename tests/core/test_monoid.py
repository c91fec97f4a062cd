"""Monoid law tests."""

import numpy as np
import pytest

from repro.core.monoid import MAX, MIN, PLUS, TIMES, Monoid
from repro.errors import SemiringError


@pytest.fixture
def samples(rng):
    return rng.normal(size=64)


class TestBuiltins:
    @pytest.mark.parametrize("monoid", [PLUS, TIMES, MAX])
    def test_identity(self, monoid, samples):
        if monoid is MAX:
            samples = np.abs(samples)  # MAX's identity 0 holds on R+
        assert monoid.check_identity(samples)

    def test_min_identity_is_inf(self, samples):
        assert MIN.check_identity(samples)
        assert MIN.identity == float("inf")

    @pytest.mark.parametrize("monoid", [PLUS, TIMES, MIN, MAX])
    def test_associative(self, monoid, rng):
        a, b, c = (rng.normal(size=32) for _ in range(3))
        assert monoid.check_associative(a, b, c)

    @pytest.mark.parametrize("monoid", [PLUS, TIMES, MIN, MAX])
    def test_commutative(self, monoid, rng):
        a, b = rng.normal(size=32), rng.normal(size=32)
        assert monoid.check_commutative(a, b)

    def test_times_annihilator(self, samples):
        assert TIMES.is_annihilating
        assert TIMES.check_annihilator(samples)

    def test_plus_has_no_annihilator(self, samples):
        assert not PLUS.is_annihilating
        with pytest.raises(SemiringError):
            PLUS.check_annihilator(samples)

    def test_call_broadcasts(self):
        out = PLUS(np.ones((2, 1)), np.ones((1, 3)))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, 2.0)


class TestCustomMonoid:
    def test_abs_diff_is_commutative_not_associative_check(self, rng):
        absdiff = Monoid("absdiff", lambda x, y: np.abs(x - y), identity=0.0)
        a, b = np.abs(rng.normal(size=16)), np.abs(rng.normal(size=16))
        assert absdiff.check_commutative(a, b)
        # |x - 0| = |x| = x for x >= 0: identity holds on the positive cone.
        assert absdiff.check_identity(np.abs(rng.normal(size=16)))
