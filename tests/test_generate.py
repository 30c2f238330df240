import hashlib
import itertools
import random

import pytest

from monoinfer.encode import Strategy
from monoinfer.generate import (
    PERTURBED,
    GeneratorParams,
    _probe,
    _ThresholdFunction,
    generate_instance,
)
from monoinfer.harness import run_single
from monoinfer.network import ProblemError, Sign, verify_solution
from monoinfer.oracle import oracle_inference
from monoinfer.problemfile import serialize_problem


def test_deterministic_in_seed():
    params = GeneratorParams(n_vars=6, max_arity=3, n_observations=3)
    one = serialize_problem(generate_instance(42, params))
    two = serialize_problem(generate_instance(42, params))
    assert one == two
    other = serialize_problem(generate_instance(43, params))
    assert other != one


def test_instance_text_pinned():
    # any change to the generator's random draws or output changes these
    cases = [
        (
            9000,
            GeneratorParams(n_vars=30, max_arity=8, essential_ratio=0.25, n_observations=2),
            "1338d15c081d5d060a70153133082b3fe030822df906ebc0c4142d49eed2935a",
        ),
        (
            9202,
            GeneratorParams(
                n_vars=11, max_arity=3, domain_size=3, n_observations=3, mode=PERTURBED
            ),
            "4ec0765aebbdd34d8f5bf0d42af7b0d89c05401e44ee83c94963ee4f19f5f8fd",
        ),
        (
            9100,
            GeneratorParams(n_vars=30, max_arity=10, essential_ratio=1.0, n_observations=3),
            "902dca73ab1bab0a919b752f3e1670be84b24587a4b8f95d4103a0d4df7f3c39",
        ),
        (
            9101,
            GeneratorParams(
                n_vars=30, max_arity=10, essential_ratio=1.0, n_observations=3, mode=PERTURBED
            ),
            "32081c77b4af43d87f4984ce4a40b32ae218415872ca046158b115e1cefc2c4a",
        ),
        (
            9004,
            GeneratorParams(n_vars=50, max_arity=12, essential_ratio=0.25, n_observations=2),
            "2c4be4cbb08e0d1537006b5b3531b71e51f05fee2efe91824540b1d52cca61c1",
        ),
    ]
    for seed, params, digest in cases:
        text = serialize_problem(generate_instance(seed, params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


def _grid_depends_on(fn, position):
    # reference: scan every context of the other arguments for two values of
    # this one that give different clamped outputs
    def table(args):
        total = fn.c0 + sum(addends[x] for addends, x in zip(fn.addends, args))
        return max(0, min(fn.hi, total))

    domain = range(fn.hi + 1)
    for context in itertools.product(domain, repeat=len(fn.addends) - 1):
        outputs = {table(context[:position] + (x,) + context[position:]) for x in domain}
        if len(outputs) > 1:
            return True
    return False


def test_closed_form_essentiality_matches_grid_scan():
    rng = random.Random(2026)
    seen = set()
    for _ in range(600):
        hi = rng.randint(1, 4)  # domains 2..5
        arity = rng.randint(1, 5)
        signs = [rng.choice(Sign.ALL) for _ in range(arity)]
        fn = _ThresholdFunction(rng, signs, hi)
        fn.interpolate(tuple(rng.randint(0, hi) for _ in signs), rng.randint(0, hi))
        fn.c0 += rng.randint(-3, 3)  # off the planted row, so clamping bites
        for position in range(arity):
            expected = _grid_depends_on(fn, position)
            assert fn.depends_on(position) == expected, (fn.addends, fn.c0, position)
            seen.add(expected)
    assert seen == {True, False}


def test_probe_stops_on_a_cycle():
    calls = []

    def flip(state):  # a 2-cycle: (0,) <-> (1,)
        calls.append(state)
        return (1 - state[0],)

    assert _probe(flip, (0,), limit=1000) is None
    assert len(calls) <= 3


def test_probe_follows_a_chain_to_its_fixed_point():
    def count_up(state):  # 0 -> 1 -> ... -> 5, which is fixed
        return (min(state[0] + 1, 5),)

    assert _probe(count_up, (0,), limit=10) == (5,)
    assert _probe(count_up, (0,), limit=5) == (5,)  # met at the last step
    assert _probe(count_up, (0,), limit=4) is None


def test_parameter_validation():
    with pytest.raises(ProblemError):
        GeneratorParams(n_vars=0).validate()
    with pytest.raises(ProblemError):
        GeneratorParams(domain_size=1).validate()
    with pytest.raises(ProblemError):
        GeneratorParams(sign_ratio=1.5).validate()
    with pytest.raises(ProblemError):
        GeneratorParams(mode="weird").validate()


def test_planted_structure():
    params = GeneratorParams(n_vars=5, max_arity=3, n_observations=2)
    problem = generate_instance(7, params)
    assert len(problem.variables) == 5
    assert 1 <= len(problem.observations) <= 2
    for obs in problem.observations:
        # planted observations are full fixed-point states
        assert len(obs.assignments) == 5
    arities = {}
    for reg in problem.regulations:
        arities.setdefault(reg.target.name, 0)
        arities[reg.target.name] += 1
    assert all(1 <= a <= 3 for a in arities.values())


def test_planted_instances_are_satisfiable():
    params = GeneratorParams(n_vars=4, max_arity=3)
    for seed in range(25):
        problem = generate_instance(seed, params)
        assert oracle_inference(problem).is_sat, seed


def test_planted_multivalued_instances_are_satisfiable():
    params = GeneratorParams(n_vars=3, max_arity=2, domain_size=4)
    for seed in range(10):
        problem = generate_instance(seed, params)
        record, _ = run_single(
            problem, Strategy.INST_EAGER, time_limit_ms=30_000, verify=True
        )
        assert record.verdict == "sat" and record.verified, seed


def test_perturbed_verdicts_match_oracle():
    params = GeneratorParams(n_vars=4, max_arity=3, mode="perturbed")
    unsat_seen = False
    for seed in range(25):
        problem = generate_instance(seed, params)
        expected = oracle_inference(problem).verdict
        record, _ = run_single(problem, Strategy.INST_LAZY, time_limit_ms=30_000)
        assert record.verdict == expected, seed
        unsat_seen = unsat_seen or expected == "unsat"
    assert unsat_seen  # perturbation flips verdicts often enough to matter


def test_essential_flags_match_planted_truth():
    # every essential flag must be realizable: the instance stays satisfiable
    # even when all non-flagged regulations are removed from the constraint set
    params = GeneratorParams(n_vars=4, max_arity=3, essential_ratio=1.0)
    problem = generate_instance(3, params)
    assert any(r.essential for r in problem.regulations)
    result = oracle_inference(problem)
    assert result.is_sat
    assert verify_solution(problem, result.tables).ok
