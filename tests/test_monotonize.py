import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoinfer.encode import (
    MonotonizationError,
    monotonize_model,
)
from monoinfer.model import FunctionTable, Model, default_output, evaluate
from monoinfer.network import (
    InferenceProblem,
    NetworkVariable,
    Regulation,
    Sign,
    decode_solution,
)
from monoinfer.terms import (
    BOOL,
    INT,
    FunctionSymbol,
    MonotonicitySpec,
    bounded_int,
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


# -- decode over a grid -----------------------------------------------------------------------


@st.composite
def _fill_case(draw):
    # one target with 0-3 regulators over Bool or 0..3, each monotone,
    # anti-monotone or unsigned; rows may be empty, lie off the grid (integer
    # coordinates -1..5) and hold outputs outside the target domain
    domains = st.sampled_from([BOOL, bounded_int(0, 3)])
    sources = [
        NetworkVariable(f"r{i}", draw(domains)) for i in range(draw(st.integers(0, 3)))
    ]
    target = NetworkVariable("t", draw(domains))
    regulations = [
        Regulation(s, target, draw(st.sampled_from(Sign.ALL))) for s in sources
    ]
    problem = InferenceProblem(sources + [target], regulations, [])

    def values(var):
        return st.booleans() if var.is_boolean else st.integers(-1, 5)

    points = st.tuples(*(values(s) for s in sources))
    rows = draw(st.dictionaries(points, values(target), max_size=6))
    return problem, rows


@settings(max_examples=300, deadline=None)
@given(_fill_case())
def test_decode_agrees_with_completion_and_clamp(case):
    # decode keeps the model's rows, moves those off the grid onto it and
    # clamps outputs, yet its lookup is the monotone completion, clamped,
    # at every grid point
    problem, rows = case
    func = problem.signature[problem.variables[-1]]
    model = Model({}, {func.name: FunctionTable(rows, default_output(func.result_sort, rows.values()))})
    try:
        completed = monotonize_model(model, problem.spec).functions[func.name]
    except MonotonizationError:
        return
    table = decode_solution(model, problem)[-1]
    assert len(table.rows) <= len(rows)
    out_values = func.result_sort.values()
    lo, hi = out_values[0], out_values[-1]
    for point in itertools.product(*(s.values() for s in func.arg_sorts)):
        assert table.lookup(point) == max(min(completed.lookup(point), hi), lo)
