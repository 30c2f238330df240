"""Pluggable incremental-solving contract and its two implementations.

InternalSession runs the built-in engine in-process; ProcessSession drives
any conformant external solver over an SMT-LIB2 pipe (incremental mode,
`:print-success` off), parsing check-sat and get-value responses and
enforcing the wall-clock limit by killing the child on expiry.  It values
its terms with one get-value answer, whose shape the standard fixes, rather
than with get-model, whose function bodies may be any term.  Both build
their Model with `model.tabulate`, from the declarations, one row per
application point and their valuation.  The contract is declare,
assert_formula, assert_lemma, check_sat and extract_model: assertions are
cumulative within a session, and a model may be extracted only right after
a sat answer.  `assert_lemma` takes a monotonicity lemma as its two
applications; an external solver is sent the lemma's Term, and the engine
grounds it as one clause with no Term.  `check_lemmas_in_search` hands the
session a specification's signs for the lazy strategy: InternalSession
passes them to its engine, which checks the lemmas in the theory rounds of
one `check_sat`; every other session declines, and the lazy loop stays
above it.  `assert_formula` declares what `terms.collect_declarations`
lists: InternalSession's engine records what it grounds in the session's
`declared` and walks only what grounding skips; ProcessSession walks each
assertion, to send its declarations before it.  A conflicting redeclaration
raises SessionUsageError; in-process, grounding may have begun by then, so
every later check answers unknown.  Both sessions refuse the same way
(`SolverSession._guard`): input outside the engine's fragment is
`unsupported: ...`, a term too deep for a recursive walk (the engine's
grounding, the process driver's serializer, Term equality) is
`unsupported: term nested too deeply`, and a step cut off by the deadline,
or due after it, is `timeout`.  After a refusal nothing more is sent or
grounded, and every check answers unknown with that reason.
"""

from __future__ import annotations

import os
import queue
import shlex
import subprocess
import threading
import time
from typing import Optional, Sequence, Union

from .engine import Engine, EngineUnsupported, Redeclared
from .model import Model, Value, evaluate_with, tabulate
from .sat import SAT, UNKNOWN, UNSAT
from .smtlib import (
    SmtParseError,
    balanced,
    declaration_to_sexpr,
    parse_get_value_response,
    term_to_sexpr,
)
from .terms import (
    Apply,
    Const,
    Exists,
    Forall,
    FunctionSymbol,
    MonotonicitySpec,
    Term,
    collect_declarations,
)

ENV_SOLVER_CMD = "MONOINFER_SOLVER_CMD"
INTERNAL_SOLVER = "internal"
# the unknown reason of a check-sat or model extraction cut off by the limit
TIMEOUT = "timeout"


class SessionUsageError(RuntimeError):
    """Session protocol violation (e.g. model query before a sat answer)."""


class SolverProcessError(RuntimeError):
    """The external solver failed to start, crashed, or answered garbage."""


class SolverVerdict:
    """Sat(model) | Unsat | Unknown(reason)."""

    __slots__ = ("kind", "model", "reason")

    def __init__(self, kind: str, model: Optional[Model] = None, reason: Optional[str] = None):
        if kind == SAT and model is None:
            raise ValueError("sat verdict requires a model")
        self.kind = kind
        self.model = model
        self.reason = reason

    @classmethod
    def sat(cls, model: Model) -> "SolverVerdict":
        return cls(SAT, model=model)

    @classmethod
    def unsat(cls) -> "SolverVerdict":
        return cls(UNSAT)

    @classmethod
    def unknown(cls, reason: str) -> "SolverVerdict":
        return cls(UNKNOWN, reason=reason)

    @property
    def is_sat(self) -> bool:
        return self.kind == SAT

    @property
    def is_unsat(self) -> bool:
        return self.kind == UNSAT

    def __repr__(self):
        if self.kind == UNKNOWN:
            return f"Unknown({self.reason!r})"
        return self.kind.capitalize()


class SolverSession:
    """Abstract incremental session; see module docstring for the discipline."""

    def __init__(self) -> None:
        self.declared: dict[str, Union[Const, FunctionSymbol]] = {}
        self._state = "fresh"  # fresh | sat | unsat | unknown
        self.check_sat_count = 0
        # why every later check answers unknown: an input the backend
        # refuses, or the deadline
        self._refused: Optional[str] = None
        # why the last check answered unknown, when the backend knows
        self.unknown_reason: Optional[str] = None

    # -- declarations ------------------------------------------------------------

    def declare(self, item: Union[Const, FunctionSymbol]) -> None:
        name = item.name
        known = self.declared.get(name)
        if known is None:
            self.declared[name] = item
            self._declare_new(item)
        elif known != item:
            raise SessionUsageError(f"conflicting redeclaration of {name}")

    # -- protocol ----------------------------------------------------------------

    def assert_formula(self, term: Term) -> None:
        self._state = "fresh"
        self._guard(self._assert, term)

    def assert_lemma(self, t: Apply, s: Apply, spec: MonotonicitySpec) -> None:
        """Assert the monotonicity lemma at two applications of one
        constrained symbol; by default as its Term, which is the text an
        external solver is sent."""
        from .encode import monotonicity_lemma  # encode imports this module

        self.assert_formula(monotonicity_lemma(t.func, t.args, s.args, spec))

    def check_lemmas_in_search(
        self, spec: MonotonicitySpec, log: list[tuple[Apply, Apply]]
    ) -> bool:
        """Hand the backend the signs of `spec`'s constrained symbols, so that
        `check_sat` itself grounds each lemma its candidate models violate
        and appends the pair to `log`; True if it does.  By default it does
        not, and the lazy loop checks each extracted model."""
        return False

    def check_sat(self) -> str:
        self.check_sat_count += 1
        self._state = self._guard(self._check_sat) or UNKNOWN
        return self._state

    def extract_model(self) -> Model:
        if self._state != SAT:
            raise SessionUsageError(
                f"model query in state {self._state!r}; requires a sat answer"
            )
        return self._extract_model()

    def set_time_limit(self, milliseconds: float) -> None:
        self._deadline = time.monotonic() + milliseconds / 1000.0

    def dispose(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.dispose()

    def _guard(self, step, *args):
        """Run one backend step and return its result.  Input the backend
        cannot take, or the deadline, is a refusal: no step runs after it,
        and every check answers unknown with its reason."""
        if self._refused is not None:
            return None
        try:
            if self._deadline is not None and time.monotonic() > self._deadline:
                raise TimeoutError
            return step(*args)
        except EngineUnsupported as err:
            reason = f"unsupported: {err}"
        except RecursionError:  # grounding, serializing and Term equality recurse
            reason = "unsupported: term nested too deeply"
        except TimeoutError:
            reason = TIMEOUT
        except Redeclared as err:  # grounding may have begun: refuse from here
            self._refused = self.unknown_reason = str(err)
            raise SessionUsageError(str(err)) from None
        self._refused = self.unknown_reason = reason
        return None

    # -- implementation hooks ----------------------------------------------------

    _deadline: Optional[float] = None

    def _declare_new(self, item: Union[Const, FunctionSymbol]) -> None:
        pass

    def _assert(self, term: Term) -> None:
        raise NotImplementedError

    def _check_sat(self) -> str:
        raise NotImplementedError

    def _extract_model(self) -> Model:
        raise NotImplementedError


class InternalSession(SolverSession):
    """In-process session over the built-in engine."""

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine(self.declared)

    def _assert(self, term: Term) -> None:
        self.engine.assert_term(term, self._deadline)

    def assert_lemma(self, t: Apply, s: Apply, spec: MonotonicitySpec) -> None:
        """Ground the lemma in the engine, with no declaration walk: its
        symbols and constants came with the base formula."""
        self._state = "fresh"
        mono, anti = spec.monotone(t.func), spec.anti_monotone(t.func)
        self._guard(self.engine.assert_lemma, t, s, mono, anti)

    def check_lemmas_in_search(
        self, spec: MonotonicitySpec, log: list[tuple[Apply, Apply]]
    ) -> bool:
        """The engine checks the lemmas inside its search (Boolean symbols)
        or in its theory rounds."""
        self.engine.lemma_signs = {
            func.name: (spec.monotone(func), spec.anti_monotone(func))
            for func in spec.constrained_symbols()
        }
        self.engine.lemma_log = log
        return True

    def _check_sat(self) -> str:
        result = self.engine.check(self._deadline)
        if result == UNKNOWN:
            timed_out = self._deadline is not None and time.monotonic() > self._deadline
            self.unknown_reason = TIMEOUT if timed_out else "theory budget exhausted"
        return result

    def _extract_model(self) -> Model:
        # the last round broke no pair, so every point group has one result
        # and its first application stands for the group's row
        rows = [
            (group[0], point)
            for by_point in self.engine.app_points.values()
            for point, group in by_point.items()
        ]
        return tabulate(self.declared.values(), rows, self.engine.value)


class _PipeReader:
    """Background reader turning a pipe into a line queue (enables timeouts)."""

    def __init__(self, stream):
        self.queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self.thread = threading.Thread(target=self._run, args=(stream,), daemon=True)
        self.thread.start()

    def _run(self, stream) -> None:
        # the reader owns the pipe and closes it at EOF (the solver exited
        # or was killed), so no other thread closes it under a read
        with stream:
            for line in stream:
                self.queue.put(line)
        self.queue.put(None)

    def read_line(self, timeout: Optional[float]) -> Optional[str]:
        try:
            return self.queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError


class ProcessSession(SolverSession):
    """Drives an external SMT-LIB2 solver process in interactive mode."""

    def __init__(self, command: Union[str, Sequence[str]]):
        super().__init__()
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = list(command)
        # the distinct applications asserted outside a binder: the points of
        # the model's tables
        self._apps: dict[Apply, None] = {}
        try:
            self.process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
        except OSError as err:
            raise SolverProcessError(f"cannot launch solver {self.command}: {err}") from err
        self.reader = _PipeReader(self.process.stdout)
        try:
            self._send("(set-logic UFLIA)")
            self._send("(set-option :produce-models true)")
        except SolverProcessError:
            self.dispose()
            raise

    def _send(self, line: str) -> None:
        if self.process.poll() is not None:
            raise SolverProcessError("solver process has exited")
        try:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
        except BrokenPipeError as err:
            raise SolverProcessError("solver closed its input pipe") from err

    def _remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def _read_response(self) -> str:
        """Read lines until they make a balanced s-expression block."""
        buffer = ""
        while True:
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                self._kill()
                raise TimeoutError
            try:
                line = self.reader.read_line(remaining)
            except TimeoutError:
                self._kill()
                raise
            if line is None:
                raise SolverProcessError("solver closed its output pipe")
            buffer += line
            stripped = buffer.strip()
            if stripped and balanced(stripped):
                return stripped

    def _kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass

    def _declare_new(self, item) -> None:
        self._send(declaration_to_sexpr(item))

    def _assert(self, term: Term) -> None:
        for item in collect_declarations([term]):
            self.declare(item)
        self._send(f"(assert {term_to_sexpr(term)})")
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, (Forall, Exists)) or t in self._apps:
                continue
            if isinstance(t, Apply):
                self._apps[t] = None
            stack.extend(t.children())

    def _check_sat(self) -> str:
        self._send("(check-sat)")
        answer = self._read_response()
        if answer not in (SAT, UNSAT, UNKNOWN):
            if answer.startswith("(error"):
                raise SolverProcessError(f"solver error: {answer}")
            raise SolverProcessError(f"malformed check-sat answer: {answer!r}")
        return answer

    def _extract_model(self) -> Model:
        """One get-value for every declared constant and asserted application;
        each application gives its table the row point -> value."""
        consts = [c for c in self.declared.values() if isinstance(c, Const)]
        terms: list[Term] = [*consts, *self._apps]
        values: list[Value] = []
        if terms:
            self._send(f"(get-value ({' '.join(term_to_sexpr(t) for t in terms)}))")
            response = self._read_response()
            if response.startswith("(error"):
                raise SolverProcessError(f"solver error: {response}")
            try:
                values = parse_get_value_response(response)
            except SmtParseError as err:
                raise SolverProcessError(str(err)) from err
            if len(values) != len(terms):
                raise SolverProcessError(
                    f"get-value answered {len(values)} of {len(terms)} terms"
                )
        value = dict(zip(terms, values)).__getitem__
        rows = ((app, tuple(evaluate_with(a, value) for a in app.args)) for app in self._apps)
        return tabulate(self.declared.values(), rows, value)

    def dispose(self) -> None:
        try:
            if self.process.poll() is None:
                self._send("(exit)")
                self.process.wait(timeout=2)
        except (SolverProcessError, subprocess.TimeoutExpired):
            pass
        finally:
            self._kill()
            try:
                self.process.stdin.close()
            except BrokenPipeError:  # input the dead solver never read
                pass


def default_solver_command() -> str:
    """Solver selection: environment override, else the in-process engine."""
    return os.environ.get(ENV_SOLVER_CMD, INTERNAL_SOLVER)


def open_session(solver_cmd: Optional[str] = None) -> SolverSession:
    cmd = solver_cmd if solver_cmd is not None else default_solver_command()
    if cmd == INTERNAL_SOLVER:
        return InternalSession()
    return ProcessSession(cmd)
