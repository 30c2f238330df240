import itertools

import pytest

from monoinfer.encode import (
    MonotonizationError,
    monotonize_model,
)
from monoinfer.model import FunctionTable, Model, evaluate
from monoinfer.terms import (
    BOOL,
    INT,
    FunctionSymbol,
    MonotonicitySpec,
)


def _g_model():
    g = FunctionSymbol("g", [INT], INT)
    spec = MonotonicitySpec({g: ({1}, set())})
    base = Model({}, {"g": FunctionTable({(0,): 1, (4,): 2}, 0)})
    return g, spec, base


def test_unary_monotonization_exact():
    g, spec, base = _g_model()
    mono = monotonize_model(base, spec)
    # g^(x) = 2 if x >= 4 else 1, sampled over a wide grid
    for x in range(-40, 60):
        expected = 2 if x >= 4 else 1
        assert mono.functions[g.name].lookup((x,)) == expected


def test_binary_monotonization_exact():
    f = FunctionSymbol("f", [INT, INT], INT)
    spec = MonotonicitySpec({f: ({1}, set())})
    base = Model({}, {"f": FunctionTable({(6, 2): 4, (11, 0): 0}, 0)})
    mono = monotonize_model(base, spec)
    # f^(x,y) = 0 if x >= 11 and y = 0; 4 if x >= 6 and y = 2; 0 otherwise
    for x in range(0, 20):
        for y in range(-2, 5):
            if x >= 6 and y == 2:
                expected = 4
            else:
                expected = 0
            assert mono.functions[f.name].lookup((x, y)) == expected, (x, y)


def test_empty_table_boolean_defaults_false():
    p = FunctionSymbol("p", [BOOL], BOOL)
    spec = MonotonicitySpec({p: ({1}, set())})
    mono = monotonize_model(Model({}, {}), spec)
    assert mono.functions[p.name].lookup((False,)) is False
    assert mono.functions[p.name].lookup((True,)) is False


def test_default_is_minimum_table_output():
    g, spec, base = _g_model()
    mono = monotonize_model(base, spec)
    assert mono.functions["g"].default == 1
    assert mono.functions[g.name].lookup((-100,)) == 1


def test_anti_monotone_direction():
    g = FunctionSymbol("g", [INT], INT)
    spec = MonotonicitySpec({g: (set(), {1})})
    base = Model({}, {"g": FunctionTable({(0,): 5, (3,): 2}, 0)})
    mono = monotonize_model(base, spec)
    assert mono.functions[g.name].lookup((-1,)) == 5
    assert mono.functions[g.name].lookup((0,)) == 5
    assert mono.functions[g.name].lookup((1,)) == 2  # dominated only by the (3,) point
    assert mono.functions[g.name].lookup((3,)) == 2
    assert mono.functions[g.name].lookup((4,)) == 2  # below every point: default = min = 2


def test_inconsistent_base_table_rejected():
    g = FunctionSymbol("g", [INT], INT)
    spec = MonotonicitySpec({g: ({1}, set())})
    base = Model({}, {"g": FunctionTable({(0,): 5, (4,): 1}, 0)})
    with pytest.raises(MonotonizationError):
        monotonize_model(base, spec)


def test_unconstrained_symbol_keeps_exact_points():
    f = FunctionSymbol("f", [INT], INT)
    spec = MonotonicitySpec({f: (set(), set())})
    base = Model({}, {"f": FunctionTable({(0,): 3, (1,): 1}, 0)})
    mono = monotonize_model(base, spec)
    assert mono.functions[f.name].lookup((0,)) == 3
    assert mono.functions[f.name].lookup((1,)) == 1
    assert mono.functions[f.name].lookup((2,)) == 1  # default: minimum output


def test_monotonized_function_is_grid_monotone():
    # exhaustive check over a tiny grid for a two-argument mixed signature
    f = FunctionSymbol("f", [INT, INT], INT)
    spec = MonotonicitySpec({f: ({1}, {2})})
    base = Model(
        {},
        {"f": FunctionTable({(0, 2): 0, (2, 1): 3, (1, 1): 2}, 0)},
    )
    mono = monotonize_model(base, spec)
    grid = range(-1, 4)
    for (x1, y1), (x2, y2) in itertools.product(
        itertools.product(grid, grid), repeat=2
    ):
        if x1 <= x2 and y2 <= y1:
            assert mono.functions[f.name].lookup((x1, y1)) <= mono.functions[
                f.name
            ].lookup((x2, y2))


def test_table_pairwise_invariant_holds():
    g, spec, base = _g_model()
    mono = monotonize_model(base, spec)
    entries = mono.functions["g"].rows.items()
    for (p, out_p), (q, out_q) in itertools.product(entries, repeat=2):
        if p[0] <= q[0]:
            assert out_p <= out_q


def test_monotonization_soundness_on_eager_models(ex1):
    # a Sat answer of the eager encoding stays true after monotonization
    from monoinfer.encode import encode_eager
    from monoinfer.session import InternalSession

    session = InternalSession()
    session.assert_formula(encode_eager(ex1.phi, ex1.spec_relaxed).formula)
    assert session.check_sat() == "sat"
    base = session.extract_model()
    assert evaluate(ex1.phi, monotonize_model(base, ex1.spec_relaxed)) is True
