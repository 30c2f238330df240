import pytest

from conftest import FIG1_PATH

from monoinfer.network import Sign
from monoinfer.problemfile import (
    ProblemParseError,
    load_problem,
    parse_problem,
    serialize_problem,
)

MINIMAL = """
monoinfer-problem 1
variables
  a bool
  b bool
end
regulations
  a -> b sign=mono essential
end
observations
  F1 { a=1 b=0 }
end
"""


def test_fig1_file_parses_to_expected_shape():
    problem = load_problem(FIG1_PATH)
    assert [v.name for v in problem.variables] == ["a", "b", "c"]
    assert len(problem.regulations) == 6
    assert len(problem.observations) == 3
    assert all(r.essential for r in problem.regulations)
    signs = {
        (r.source.name, r.target.name): r.sign for r in problem.regulations
    }
    assert signs[("b", "a")] == Sign.ANTI_MONOTONE
    assert signs[("c", "a")] == Sign.MONOTONE
    assert signs[("a", "a")] == Sign.UNKNOWN
    assert problem.variables[0].domain.bounds == (0, 3)
    assert problem.observations[2].name == "F3"


def test_minimal_parse_and_round_trip():
    problem = parse_problem(MINIMAL)
    assert problem.variables[0].is_boolean
    assert problem.observations[0].assignments[0][1] is True
    again = parse_problem(serialize_problem(problem))
    assert serialize_problem(again) == serialize_problem(problem)


def _expect_error(text, fragment):
    with pytest.raises(ProblemParseError) as err:
        parse_problem(text)
    assert fragment in str(err.value)
    return err.value


def test_boolean_domain_violation_is_positioned():
    bad = MINIMAL.replace("F1 { a=1 b=0 }", "F1 { a=5 b=0 }")
    err = _expect_error(bad, "outside the domain")
    assert err.line == 11


def test_integer_domain_violation():
    bad = """
monoinfer-problem 1
variables
  a int 0..3
end
regulations
end
observations
  F1 { a=7 }
end
"""
    err = _expect_error(bad, "value 7 outside the domain of a")
    assert err.line == 9


def test_empty_integer_range_is_positioned():
    bad = "monoinfer-problem 1\nvariables\n  a int 5..3\nend\n"
    err = _expect_error(bad, "empty bounds interval (5, 3)")
    assert err.line == 3


def test_unknown_variable_in_regulation():
    bad = MINIMAL.replace("a -> b", "a -> zz")
    _expect_error(bad, "unknown variable 'zz'")


def test_unknown_variable_in_observation():
    bad = MINIMAL.replace("{ a=1 b=0 }", "{ zz=1 }")
    _expect_error(bad, "unknown variable 'zz'")


def test_duplicate_regulation_rejected():
    bad = MINIMAL.replace(
        "  a -> b sign=mono essential\n",
        "  a -> b sign=mono essential\n  a -> b sign=anti\n",
    )
    _expect_error(bad, "duplicate regulation")


def test_unknown_field_rejected():
    bad = MINIMAL.replace("sign=mono essential", "sign=mono weight=3")
    _expect_error(bad, "unknown regulation field")


def test_unknown_sign_rejected():
    bad = MINIMAL.replace("sign=mono", "sign=sometimes")
    _expect_error(bad, "unknown sign")


def test_missing_header():
    _expect_error("variables\nend\n", "header")


def test_wrong_version():
    _expect_error(MINIMAL.replace("monoinfer-problem 1", "monoinfer-problem 9"), "version")


def test_unterminated_section():
    _expect_error("monoinfer-problem 1\nvariables\n  a bool\n", "unterminated")


def test_reserved_prefix_variable_rejected():
    bad = MINIMAL.replace("  a bool", "  !sk0 bool").replace("a ->", "!sk0 ->").replace("a=1", "!sk0=1")
    _expect_error(bad, "reserved prefix")


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "  a bool", "  a bool  # trailing comment"
    )
    problem = parse_problem(text)
    assert len(problem.variables) == 2
