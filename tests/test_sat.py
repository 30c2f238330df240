"""Independent checks on the CDCL core.

A forward RUP checker replays every clause the solver saw and every clause
it learned, in order: each learned clause must follow from the earlier ones
by unit propagation (reverse unit propagation, Goldberg & Novikov, DATE
2003), and an `unsat` answer must make the empty clause follow the same
way.  Every `sat` model must satisfy every input clause.
"""

import random
from collections import defaultdict

import pytest

from monoinfer import engine as engine_module
from monoinfer.encode import Strategy, encode, solve
from monoinfer.generate import GeneratorParams, generate_instance
from monoinfer.network import encode_inference
from monoinfer.sat import SAT, UNSAT, SatSolver
from monoinfer.session import InternalSession


class RupChecker:
    """A clause database that only grows; `implied` is the RUP test."""

    def __init__(self) -> None:
        self.watches: dict[int, list[list[int]]] = defaultdict(list)
        self.units: list[int] = []
        self.has_empty = False

    def add(self, clause: list[int]) -> None:
        clause = list(dict.fromkeys(clause))
        if not clause:
            self.has_empty = True
        elif len(clause) == 1:
            self.units.append(clause[0])
        else:
            for lit in clause[:2]:
                self.watches[lit].append(clause)

    def implied(self, clause: list[int]) -> bool:
        """Asserting the negation of `clause` and propagating units over the
        database reaches a conflict.  Each clause of two or more literals is
        watched by two of them, and propagation moves a watch off a false
        literal; every query starts from no assignment, so the moved watches
        serve the next one too."""
        if self.has_empty:
            return True
        true: set[int] = set()
        queue: list[int] = []

        def assign(lit: int) -> bool:  # False on conflict
            if -lit in true:
                return False
            if lit not in true:
                true.add(lit)
                queue.append(lit)
            return True

        if not all(assign(-lit) for lit in clause):
            return True
        if not all(assign(lit) for lit in self.units):
            return True
        while queue:
            falsified = -queue.pop()
            watching = self.watches[falsified]
            i = 0
            while i < len(watching):
                c = watching[i]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if c[0] in true:
                    i += 1
                    continue
                for k in range(2, len(c)):
                    if -c[k] not in true:  # a new watch for c[1]
                        c[1], c[k] = c[k], c[1]
                        self.watches[c[1]].append(c)
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if not assign(c[0]):
                        return True
                    i += 1
        return False


class ProofSolver(SatSolver):
    """Records the solver's inputs, learned clauses and answers in order,
    and counts the two chronological-backtracking paths."""

    def __init__(self) -> None:
        super().__init__()
        self.steps: list[tuple[str, list[int]]] = []
        self.conflicts_below_decision_level = 0
        self.units_above_level_zero = 0
        self.dropped_clauses = 0

    def add_clause(self, lits):
        lits = list(lits)
        self.steps.append(("input", lits))
        return super().add_clause(lits)

    def _analyze(self, conflict):
        conflict_level = max(self.level[abs(q)] for q in self.clauses[conflict])
        if 0 < conflict_level < len(self.trail_lim):
            self.conflicts_below_decision_level += 1
        return super()._analyze(conflict)

    def _record_learned(self, learned, level):
        self.steps.append(("learned", list(learned)))
        if len(learned) == 1 and self.trail_lim:
            self.units_above_level_zero += 1
        super()._record_learned(learned, level)

    def _reduce_learned(self):
        before = len(self.clauses)
        super()._reduce_learned()
        self.dropped_clauses += before - len(self.clauses)

    def solve(self, deadline=None):
        answer = super().solve(deadline)
        self.steps.append((answer, list(self.model) if answer == SAT else []))
        return answer


def check_proof(solver: ProofSolver) -> list[str]:
    """Replay the solver's steps through a RUP checker; returns the answers."""
    checker = RupChecker()
    inputs: list[list[int]] = []
    answers = []
    for kind, data in solver.steps:
        if kind == "input":
            checker.add(data)
            inputs.append(data)
        elif kind == "learned":
            assert checker.implied(data), f"learned clause {data} is not RUP"
            checker.add(data)
        elif kind == UNSAT:
            assert checker.implied([]), "unsat without a refutation"
            answers.append(kind)
        else:
            assert kind == SAT
            model = data
            for clause in inputs:
                assert any((model[abs(q)] > 0) == (q > 0) for q in clause), clause
            answers.append(kind)
    return answers


def test_rup_checker_rejects_a_clause_that_does_not_follow():
    checker = RupChecker()
    for clause in ([1, 2], [-1, 2], [1, -2]):
        checker.add(clause)
    assert checker.implied([2])
    assert checker.implied([1])
    assert not checker.implied([-1])
    assert not checker.implied([])
    checker.add([-1, -2])
    assert not checker.implied([])  # unsat, but not by unit propagation alone
    checker.add([2])
    assert checker.implied([])


def _solve_random_3cnf(rng, n_vars, chunks, gates=(), unused=()):
    """A random 3-CNF of ratio 4.2 over the variables not in `unused`, fed
    in `chunks` parts with a solve after each until unsat; `gates` are
    non-decision variables.  Every sat model must be total."""
    used = [v for v in range(1, n_vars + 1) if v not in unused]
    clauses = [
        [rng.choice((1, -1)) * v for v in rng.sample(used, 3)]
        for _ in range(round(4.2 * len(used)))
    ]
    solver = ProofSolver()
    for v in range(1, n_vars + 1):
        solver.new_var(decide=v not in gates)
    chunk = len(clauses) // chunks + 1
    for start in range(0, len(clauses), chunk):
        for clause in clauses[start : start + chunk]:
            solver.add_clause(clause)
        if solver.solve() == UNSAT:
            break
        assert 0 not in solver.model[1:], "model leaves a variable open"
    return solver


def test_learned_clauses_are_rup_on_random_3cnf_fed_in_chunks():
    rng = random.Random(2018)
    below = units = 0
    answers = {SAT: 0, UNSAT: 0}
    for _ in range(100):
        solver = _solve_random_3cnf(rng, rng.randint(30, 60), chunks=4)
        for answer in check_proof(solver):
            answers[answer] += 1
        below += solver.conflicts_below_decision_level
        units += solver.units_above_level_zero
    assert answers[SAT] and answers[UNSAT]
    assert below > 0, "no conflict below the decision level"
    assert units > 0, "no unit learned above level 0"


def _add_random_3cnf_past_one_reduction(solver):
    # past 2,000 learned clauses a restart drops the less active half of them
    # and rebuilds the watches; this instance is unsat after about 3,100
    # conflicts and goes through one reduction
    rng = random.Random(7)
    n_vars = 150
    for _ in range(n_vars):
        solver.new_var()
    for _ in range(round(4.26 * n_vars)):
        solver.add_clause(
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, n_vars + 1), 3)]
        )


def test_learned_clause_reduction_keeps_the_refutation_checkable():
    solver = ProofSolver()
    _add_random_3cnf_past_one_reduction(solver)
    assert solver.solve() == UNSAT
    assert solver.dropped_clauses > 0
    assert check_proof(solver) == [UNSAT]


def test_learned_clause_reduction_clears_every_reason():
    # the reduction runs at level 0, where no reason is read again
    solver = ProofSolver()
    reductions = []
    reduce = solver._reduce_learned

    def recording():
        clauses, reasons = len(solver.clauses), sum(r is not None for r in solver.reason)
        reduce()
        if len(solver.clauses) < clauses:
            reductions.append((reasons, sum(r is not None for r in solver.reason)))

    solver._reduce_learned = recording
    _add_random_3cnf_past_one_reduction(solver)
    # y is propagated at level 0, with [-x, y] as its reason
    x, y = solver.new_var(), solver.new_var()
    solver.add_clause([-x, y])
    solver.add_clause([x])
    assert solver.solve() == UNSAT
    assert reductions and all(before for before, _ in reductions)
    assert all(after == 0 for _, after in reductions)


@pytest.mark.parametrize(
    "strategy", [Strategy.INST_LAZY, Strategy.INST_EAGER, Strategy.QUANT_INDIVIDUAL],
    ids=lambda s: s.value,
)
def test_unsat_inference_instance_has_a_rup_refutation(monkeypatch, strategy):
    # perturbed seed 2 is unsat; the lazy loop adds lemma clauses between
    # solves, eager lemmas and quantifier instances arrive as order-encoding
    # clauses, and the engine adds congruence clauses, all checked as inputs
    params = GeneratorParams(
        n_vars=8, max_arity=3, domain_size=3, mode="perturbed", essential_ratio=1.0
    )
    formula, spec = encode_inference(generate_instance(2, params))
    solvers = []

    def recording_solver():
        solvers.append(ProofSolver())
        return solvers[-1]

    monkeypatch.setattr(engine_module, "SatSolver", recording_solver)
    verdict = solve(encode(formula, spec, strategy), spec, InternalSession())
    assert verdict.is_unsat
    [solver] = solvers
    answers = check_proof(solver)
    assert answers[-1] == UNSAT
    if strategy is Strategy.INST_LAZY:  # unsat after three checks
        assert answers.count(SAT) >= 1
    if strategy is not Strategy.INST_EAGER:  # eager refutes by propagation alone
        assert solver.conflicts > 0


def test_non_decision_variables_keep_the_solver_sound_and_complete():
    # a third of the variables are non-decision, so open ones are left for
    # the fallback; a few of them are in no clause, so only it assigns them
    rng = random.Random(2003)
    answers = {SAT: 0, UNSAT: 0}
    for _ in range(60):
        n_vars = rng.randint(30, 60)
        gates = set(rng.sample(range(1, n_vars + 1), n_vars // 3))
        unused = set(rng.sample(sorted(gates), 3))
        solver = _solve_random_3cnf(rng, n_vars, 3, gates, unused)
        for answer in check_proof(solver):
            answers[answer] += 1
    assert answers[SAT] and answers[UNSAT]


def _decide(s: SatSolver, var: int) -> None:
    s.trail_lim.append(len(s.trail))
    s._enqueue(var, None, len(s.trail_lim))


def test_branching_prefers_decision_variables_then_the_lowest_open_gate():
    s = SatSolver()
    decide = [True, False, True, False, False, True]
    for flag in decide:
        s.new_var(decide=flag)
    for _ in range(3):  # decision variables while any is open
        var = s._pick_branch_var()
        assert var is not None and decide[var - 1]
        _decide(s, var)
    for expected in (2, 4, 5):  # then the lowest open non-decision variable
        assert s._pick_branch_var() == expected
        _decide(s, expected)
    assert s._pick_branch_var() is None
    # undo 4 and 5: the lowest of them is picked again
    s._backtrack(4)
    assert s._pick_branch_var() == 4
    _decide(s, 4)
    # undo a decision variable and gate 2: the decision variable comes first
    third_decision = abs(s.trail[s.trail_lim[2]])
    s._backtrack(2)
    assert s._pick_branch_var() == third_decision
    _decide(s, third_decision)
    assert s._pick_branch_var() == 2


def test_activity_rescale_rebuilds_the_heap():
    s = SatSolver()
    a, gate, b = s.new_var(), s.new_var(decide=False), s.new_var()
    s.var_inc = 1e99
    s._bump_var(a)
    s._bump_var(gate)
    s.var_inc = 3e101
    s._bump_var(b)  # past 1e100: every activity is scaled by 1e-100
    assert s.activity[a] < s.activity[b]
    assert {var for _, var in s._heap} == {a, b}
    assert s._pick_branch_var() == b


def test_counters_are_cumulative_over_solves():
    s = SatSolver()
    for _ in range(6):
        s.new_var()
    for i in range(3):  # pigeon i sits in hole 0 (var 2i + 1) or hole 1 (var 2i + 2)
        s.add_clause([2 * i + 1, 2 * i + 2])
    assert s.solve() == SAT
    before = (s.decisions, s.propagations)
    assert s.decisions > 0 and s.conflicts == 0
    for v in (1, 2):  # at most one pigeon per hole: vars v, v + 2, v + 4
        s.add_clause([-v, -(v + 2)])
        s.add_clause([-v, -(v + 4)])
        s.add_clause([-(v + 2), -(v + 4)])
    assert s.solve() == UNSAT
    assert s.conflicts > 0
    assert s.decisions >= before[0] and s.propagations > before[1]
