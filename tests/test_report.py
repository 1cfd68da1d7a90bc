from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from irrstrength.report import worst_instance

# The three worst-instance formulas the builder replaced, kept as references.
# Each returns (measured, bound, violations, witness), the witness being the
# worst instance's position when some instance violates, else None.


def class_size_reference(dev, half):
    """Condition (1°): one bound for all seven classes."""
    worst = int(np.argmax(dev))
    viol = int(np.count_nonzero(dev > half))
    return float(dev[worst]), float(half), viol, (worst if viol else None)


def class_degree_reference(dev, half):
    """Condition (2°): one bound for every (vertex, class) cell."""
    flat = int(np.argmax(dev))
    v, c = divmod(flat, 7)
    viol = int(np.count_nonzero(dev > half))
    return float(dev[v, c]), float(half), viol, ((v, c) if viol else None)


def masked_reference(mask, dev, bound, slack):
    """Conditions (3°)-(6°): per-vertex bounds over the vertices in mask."""
    if not np.any(mask):
        return 0.0, 0.0, 0, None
    dv = dev[mask]
    bd = bound[mask] * slack
    margin = dv - bd
    worst = int(np.argmax(margin))
    viol = int(np.count_nonzero(margin > 0))
    vid = int(np.nonzero(mask)[0][worst])
    return float(dv[worst]), float(bd[worst]), viol, (vid if viol else None)


def summary(check):
    return check.measured, check.bound, check.violations, check.witness or None


finite = st.floats(min_value=-1e300, max_value=1e300)
# values a few ulps apart, where subtracting a bound can merge them
clustered = st.sampled_from([0.1, np.nextafter(0.1, 1.0), 0.3, 1.0, 1.0 + 2**-52, 7.5])
values = st.one_of(finite, clustered)


@given(hnp.arrays(np.float64, 7, elements=values), values)
def test_matches_class_size_formula(dev, half):
    got = worst_instance("(1°)", "sizes", dev, half, lambda i: str(i))
    m, b, viol, wit = class_size_reference(dev, half)
    assert summary(got) == (m, b, viol, None if wit is None else str(wit))
    assert got.passed == (viol == 0)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(7)), elements=values), values)
def test_matches_class_degree_formula(dev, half):
    got = worst_instance("(2°)", "degrees", dev, half, lambda i: str(divmod(i, 7)))
    m, b, viol, wit = class_degree_reference(dev, half)
    assert summary(got) == (m, b, viol, None if wit is None else str(wit))


@st.composite
def masked_instances(draw):
    n = draw(st.integers(0, 12))
    mask = draw(hnp.arrays(np.bool_, n))
    dev = draw(hnp.arrays(np.float64, n, elements=values))
    bound = draw(hnp.arrays(np.float64, n, elements=values))
    slack = draw(st.sampled_from([1.0, 1.5, 80.0]))
    return mask, dev, bound, slack


@given(masked_instances())
def test_matches_masked_formula(instance):
    mask, dev, bound, slack = instance
    ids = np.nonzero(mask)[0]
    got = worst_instance("(3°)", "masked", dev[mask], bound[mask] * slack, lambda i: str(ids[i]))
    m, b, viol, wit = masked_reference(mask, dev, bound, slack)
    assert summary(got) == (m, b, viol, None if wit is None else str(wit))


def test_empty_set_passes_with_zero_measured_and_bound():
    got = worst_instance("(4°)", "empty", np.zeros(0), np.zeros(0), lambda i: "unused")
    assert (got.passed, got.measured, got.bound, got.violations, got.witness) == (True, 0.0, 0.0, 0, "")


def test_witness_called_only_on_violation():
    calls = []
    worst_instance("(1°)", "pass", np.array([1.0, 2.0]), 3.0, calls.append)
    assert calls == []
    worst_instance("(1°)", "fail", np.array([1.0, 4.0]), 3.0, lambda i: calls.append(i) or "w")
    assert calls == [1]
