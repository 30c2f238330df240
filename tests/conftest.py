import sys
from pathlib import Path

import pytest

from monoinfer.terms import (
    INT,
    Add,
    Apply,
    Cmp,
    CmpOp,
    Const,
    Exists,
    Forall,
    FunctionSymbol,
    IntLit,
    MonotonicitySpec,
    Term,
    Var,
    iter_subterms,
    mk_and,
)
from monoinfer.problemfile import load_problem
from monoinfer.session import InternalSession, ProcessSession, SolverSession

REPO_ROOT = Path(__file__).resolve().parent.parent
FIG1_PATH = REPO_ROOT / "problems" / "fig1.problem"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def subterms(term: Term) -> set[Term]:
    return set(iter_subterms(term))


def free_vars(term: Term) -> set[Var]:
    """Variables not captured by any enclosing binder."""

    def walk(t: Term, bound: frozenset[Var]) -> set[Var]:
        if isinstance(t, Var):
            return set() if t in bound else {t}
        if isinstance(t, (Forall, Exists)):
            return walk(t.body, bound | frozenset(t.bound))
        out: set[Var] = set()
        for c in t.children():
            out |= walk(c, bound)
        return out

    return walk(term, frozenset())


# the shipped SMT-LIB2 solver, invoked portably (no PATH requirement)
REPL_SOLVER_CMD = f"{sys.executable} -m monoinfer.smtserver"


def sessions():
    """One session of each backend: the in-process engine and the shipped
    SMT-LIB2 solver driven over a pipe."""
    return [InternalSession(), ProcessSession(REPL_SOLVER_CMD)]


class SessionLoopSession(InternalSession):
    """The in-process engine under the session-level lazy loop that external
    solvers get: it keeps the default `check_lemmas_in_search`."""

    check_lemmas_in_search = SolverSession.check_lemmas_in_search


class Example1:
    """The two-symbol running example: f(c1,2)=4 /\\ f(c1+5,0)=c2 /\\ g(c2)<g(4)."""

    def __init__(self):
        self.f = FunctionSymbol("f", [INT, INT], INT)
        self.g = FunctionSymbol("g", [INT], INT)
        self.c1 = Const("c1", INT)
        self.c2 = Const("c2", INT)
        self.f_app1 = Apply(self.f, (self.c1, IntLit(2)))
        self.f_app2 = Apply(self.f, (Add(self.c1, IntLit(5)), IntLit(0)))
        self.g_app1 = Apply(self.g, (self.c2,))
        self.g_app2 = Apply(self.g, (IntLit(4),))
        self.phi = mk_and(
            [
                Cmp(CmpOp.EQ, self.f_app1, IntLit(4)),
                Cmp(CmpOp.EQ, self.f_app2, self.c2),
                Cmp(CmpOp.LT, self.g_app1, self.g_app2),
            ]
        )
        # f monotone in arg 1 and anti-monotone in arg 2; g monotone
        self.spec = MonotonicitySpec({self.f: ({1}, {2}), self.g: ({1}, set())})
        # the relaxed variant: no anti-monotonicity on f
        self.spec_relaxed = MonotonicitySpec(
            {self.f: ({1}, set()), self.g: ({1}, set())}
        )


@pytest.fixture
def ex1():
    return Example1()


@pytest.fixture
def fig1():
    return load_problem(FIG1_PATH)
