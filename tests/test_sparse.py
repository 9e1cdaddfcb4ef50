"""The sparse linear-combination base (fqft.rexp.Sparse), checked against a
plain-dict reference on each of its container types."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqft.deformation import FormalVector
from fqft.errors import SpaceMismatchError
from fqft.fock import BoundaryState, apply_current, build_space
from fqft.jets import Jet, JetAlgebra
from fqft.observables import ZSeries
from fqft.rexp import LogPoly, RExpansion, coeff_is_zero

SPACE = build_space(2)
ALG = JetAlgebra.combined_coupling(["x", "y"])
STATE = SPACE.state((1,))
(STATE_INDEX,) = STATE.terms
R_POWER = LogPoly.monomial(R=-2)

# (raw key, the key it normalises to); None drops (a monomial past the
# algebra's order).
# An integral Fraction exponent is == to its int, so the two cannot both be
# keys of one input dict; jet monomials in another order can.
REXP_KEYS = [
    ((1, 0), (1, 0)),
    ((0, 0), (0, 0)),
    ((Fraction(-1, 2), 1), (Fraction(-1, 2), 1)),
    ((Fraction(-4, 2), 2), (-2, 2)),
]
JET_KEYS = [
    ((), ()),
    (("gc[x]",), ("gc[x]",)),
    (("gc[y]", "gc[x]"), ("gc[x]", "gc[y]")),
    (("gc[x]", "gc[y]"), ("gc[x]", "gc[y]")),
    (("gc[y]", "gc[y]"), ("gc[y]", "gc[y]")),
    (("gc[x]", "gc[y]", "gc[x]"), None),
]
VECTOR_KEYS = [(k, k) for k in [("corr", "e", (), ()), ("disk",), ("int", "e"), ("int0", "1")]]
SERIES_KEYS = [(k, k) for k in [(0, 0), (-1, 0), (0, -2), (-1, -1)]]
STATE_KEYS = [(i, i) for i in (0, 2, 5, SPACE.dim - 1)]
LOGPOLY_KEYS = [
    ((0, 0, 0, 0), (0, 0, 0, 0)),
    ((Fraction(4, 2), Fraction(1, 2), 1, 0), (2, Fraction(1, 2), 1, 0)),
    ((-1, 0, 0, 2), (-1, 0, 0, 2)),
    ((Fraction(-1, 3), -2, 3, 1), (Fraction(-1, 3), -2, 3, 1)),
]


class Kind:
    """A container type, its keys, and how a Fraction becomes one of its
    coefficients (`lift`) and back (`value`)."""

    def __init__(self, name, make, keys, lift, value):
        self.name, self.make, self.keys = name, make, keys
        self.lift, self.value = lift, value

    def __repr__(self):
        return self.name

    def build(self, raw):
        """The container of {key index: Fraction}."""
        return self.make({self.keys[i][0]: self.lift(c) for i, c in raw.items()})

    def reference(self, raw):
        """The plain dict {normalised key: nonzero Fraction} of the same input."""
        out = {}
        for i, c in raw.items():
            key = self.keys[i][1]
            if key is not None:
                out[key] = out.get(key, 0) + c
        return {k: c for k, c in out.items() if c}

    def read(self, x):
        """x as {key: Fraction}, checking that it stores no zero."""
        assert not any(coeff_is_zero(c) for c in x.terms.values()), x
        return {k: self.value(c) for k, c in x.terms.items()}


KINDS = [
    Kind("RExpansion", RExpansion, REXP_KEYS, lambda c: c, lambda c: c),
    Kind("Jet", lambda t: Jet(ALG, t), JET_KEYS, lambda c: c, lambda c: c),
    Kind(
        "FormalVector",
        FormalVector,
        VECTOR_KEYS,
        lambda c: c * R_POWER,
        lambda v: v.terms[(-2, 0, 0, 0)],
    ),
    Kind(
        "ZSeries",
        lambda t: ZSeries(SPACE, t),
        SERIES_KEYS,
        lambda c: STATE.scale(c),
        lambda v: v.terms[STATE_INDEX],
    ),
    Kind("BoundaryState", lambda t: BoundaryState(SPACE, t), STATE_KEYS, lambda c: c, lambda c: c),
    Kind("LogPoly", LogPoly, LOGPOLY_KEYS, lambda c: c, lambda c: c),
]

VALUES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 4]))


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_truth_is_nonzero(kind):
    # bool(x) is False exactly for zero, where is_zero() holds
    zero, one = kind.make({}), kind.build({0: Fraction(1)})
    assert not zero and zero.is_zero()
    assert one and not one.is_zero()
    assert not (one - one) and bool(one + one)


def _add(x, y, sign=1):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_sparse_algebra_matches_dict_reference(kind, data):
    indices = st.sampled_from(range(len(kind.keys)))
    raw_a = data.draw(st.dictionaries(indices, VALUES))
    # b negates some of a's entries, so that a + b cancels there
    raw_b = {
        i: -raw_a[i] if i in raw_a and data.draw(st.booleans()) else data.draw(VALUES)
        for i in data.draw(st.lists(indices, unique=True))
    }
    s = data.draw(VALUES)
    a, b = kind.build(raw_a), kind.build(raw_b)
    ref_a, ref_b = kind.reference(raw_a), kind.reference(raw_b)
    before = dict(a.terms), dict(b.terms)

    assert kind.read(a) == ref_a
    assert kind.read(b) == ref_b
    assert kind.read(a + b) == _add(ref_a, ref_b)
    assert kind.read(a - b) == _add(ref_a, ref_b, -1)
    assert kind.read(-a) == {k: -c for k, c in ref_a.items()}
    assert kind.read(s * a) == {k: s * c for k, c in ref_a.items() if s * c}
    # a map that sends the negative coefficients to zero
    positive = a.map_coeffs(lambda c: kind.lift(max(kind.value(c), 0)))
    assert kind.read(positive) == {k: c for k, c in ref_a.items() if c > 0}

    assert (a == b) == (ref_a == ref_b)
    assert (a + b) - b == a
    assert kind.build(dict(reversed(raw_a.items()))) == a
    assert (a - a).is_zero() and (a - a) == kind.make({})
    # operands are unchanged: same keys, same coefficient objects, same values
    for x, terms, ref in ((a, before[0], ref_a), (b, before[1], ref_b)):
        assert x.terms.keys() == terms.keys()
        assert all(x.terms[k] is c for k, c in terms.items())
        assert kind.read(x) == ref


def test_boundary_state_index_rule():
    # an index outside the space raises, and is never dropped, even with a
    # zero coefficient
    for bad in (-1, SPACE.dim):
        for c in (Fraction(1), Fraction(0)):
            with pytest.raises(ValueError, match="outside the space"):
                BoundaryState(SPACE, {bad: c})


def test_boundary_states_over_two_spaces_do_not_mix():
    other = build_space(2)
    a, b = SPACE.vacuum(), other.vacuum()
    for op in (lambda: a + b, lambda: a - b, lambda: b + a):
        with pytest.raises(SpaceMismatchError):
            op()
    assert a != b and a == SPACE.vacuum()


def test_truncation_loss_is_summed_and_kept():
    # + and - sum the losses, scaling and negation keep them, equality
    # ignores them; j_{-1} on the top level of SPACE loses its nonzero
    top = BoundaryState(SPACE, {SPACE.dim - 1: Fraction(2)})
    lost = apply_current(top, -1)
    assert lost.is_zero() and lost.truncation_loss == 1
    a = BoundaryState(SPACE, {0: Fraction(1)}, truncation_loss=2)
    assert (a + lost).truncation_loss == (a - lost).truncation_loss == 3
    assert (a + a).truncation_loss == 4 and (a - a).truncation_loss == 4
    assert a.scale(Fraction(3)).truncation_loss == (-a).truncation_loss == 2
    assert (Fraction(1, 2) * a).truncation_loss == 2
    assert a.map_coeffs(lambda c: 0 * c).truncation_loss == 2
    assert a + lost == a
