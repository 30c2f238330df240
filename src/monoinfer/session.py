"""Pluggable incremental-solving contract and its two implementations.

InternalSession runs the built-in engine in-process; ProcessSession drives
any conformant external solver over an SMT-LIB2 pipe (incremental mode,
`:print-success` off), parsing check-sat and get-value responses and
enforcing the wall-clock limit by killing the child on expiry.  It builds a
model from one get-value answer, whose shape the standard fixes, rather
than from get-model, whose function bodies may be any term.  Assertions
are cumulative within a session; value/model queries are only legal right
after a sat answer.
"""

from __future__ import annotations

import os
import queue
import shlex
import subprocess
import threading
import time
from typing import Optional, Sequence, Union

from .engine import Engine, EngineUnsupported
from .model import FunctionTable, Model, Value, ValueVector, default_output, evaluate_with
from .smtlib import (
    SmtParseError,
    balanced,
    collect_declarations,
    declaration_to_sexpr,
    parse_get_value_response,
    term_to_sexpr,
)
from .terms import Apply, Const, Exists, Forall, FunctionSymbol, Term

ENV_SOLVER_CMD = "MONOINFER_SOLVER_CMD"
INTERNAL_SOLVER = "internal"

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SessionUsageError(RuntimeError):
    """Session protocol violation (e.g. value query before a sat answer)."""


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
        self._declared: dict[str, Union[Const, FunctionSymbol]] = {}
        self._state = "fresh"  # fresh | sat | unsat | unknown
        self.check_sat_count = 0

    # -- declarations ------------------------------------------------------------

    def declare(self, item: Union[Const, FunctionSymbol]) -> None:
        name = item.name
        known = self._declared.get(name)
        if known is None:
            self._declared[name] = item
            self._declare_new(item)
        elif known != item:
            raise SessionUsageError(f"conflicting redeclaration of {name}")

    def declare_all(self, assertions: Sequence[Term]) -> None:
        for item in collect_declarations(assertions):
            self.declare(item)

    # -- protocol ----------------------------------------------------------------

    def assert_formula(self, term: Term) -> None:
        # The walk also orders the internal engine's SAT variables: every
        # constant is numbered before any gate or application it meets while
        # grounding, and the SAT heap breaks activity ties by variable
        # number, so constants are branched on first.  Skipping the walk
        # made desk eager solving 2-4x slower.
        self.declare_all([term])
        self._state = "fresh"
        self._assert(term)

    def check_sat(self) -> str:
        self.check_sat_count += 1
        answer = self._check_sat()
        self._state = answer
        return answer

    def value_of(self, terms: Sequence[Term]) -> list[Value]:
        if self._state != SAT:
            raise SessionUsageError(
                f"value query in state {self._state!r}; requires a sat answer"
            )
        return self._value_of(terms)

    def extract_model(self) -> Model:
        if self._state != SAT:
            raise SessionUsageError(
                f"model query in state {self._state!r}; requires a sat answer"
            )
        return self._extract_model()

    @property
    def unknown_reason(self) -> Optional[str]:
        """Why the last check answered unknown, when the backend knows."""
        return None

    def set_time_limit(self, milliseconds: int) -> None:
        self._deadline = time.monotonic() + milliseconds / 1000.0

    def dispose(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.dispose()

    # -- implementation hooks ----------------------------------------------------

    _deadline: Optional[float] = None

    def _declare_new(self, item: Union[Const, FunctionSymbol]) -> None:
        raise NotImplementedError

    def _assert(self, term: Term) -> None:
        raise NotImplementedError

    def _check_sat(self) -> str:
        raise NotImplementedError

    def _value_of(self, terms: Sequence[Term]) -> list[Value]:
        raise NotImplementedError

    def _extract_model(self) -> Model:
        raise NotImplementedError


class InternalSession(SolverSession):
    """In-process session over the built-in engine."""

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        self._unsupported: Optional[str] = None

    def _declare_new(self, item) -> None:
        if isinstance(item, Const):
            self.engine.declare_const(item)
        else:
            self.engine.declare_function(item)

    def _assert(self, term: Term) -> None:
        if self._unsupported is not None:
            return
        try:
            self.engine.assert_term(term)
        except EngineUnsupported as err:
            self._unsupported = str(err)

    def _check_sat(self) -> str:
        if self._unsupported is not None:
            return UNKNOWN
        try:
            result = self.engine.check(self._deadline)
        except EngineUnsupported as err:  # e.g. a congruence pair mixing sorts
            self._unsupported = str(err)
            return UNKNOWN
        if result == UNKNOWN and self._deadline is not None:
            if time.monotonic() > self._deadline:
                self._unknown_reason = "timeout"
                return UNKNOWN
        if result == UNKNOWN:
            self._unknown_reason = "theory budget exhausted"
        return result

    _unknown_reason: Optional[str] = None

    @property
    def unknown_reason(self) -> Optional[str]:
        if self._unsupported is not None:
            return f"unsupported: {self._unsupported}"
        return self._unknown_reason

    def _value_of(self, terms: Sequence[Term]) -> list[Value]:
        return [self.engine.evaluate(t) for t in terms]

    def _extract_model(self) -> Model:
        return self.engine.extract_model()


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
        try:
            answer = self._read_response()
        except TimeoutError:
            self._timed_out = True
            return UNKNOWN
        if answer not in (SAT, UNSAT, UNKNOWN):
            if answer.startswith("(error"):
                raise SolverProcessError(f"solver error: {answer}")
            raise SolverProcessError(f"malformed check-sat answer: {answer!r}")
        return answer

    _timed_out = False

    @property
    def unknown_reason(self) -> Optional[str]:
        return "timeout" if self._timed_out else "solver returned unknown"

    def _value_of(self, terms: Sequence[Term]) -> list[Value]:
        body = " ".join(term_to_sexpr(t) for t in terms)
        self._send(f"(get-value ({body}))")
        response = self._read_response()
        if response.startswith("(error"):
            raise SolverProcessError(f"solver error: {response}")
        try:
            values = parse_get_value_response(response)
        except SmtParseError as err:
            raise SolverProcessError(str(err)) from err
        if len(values) != len(terms):
            raise SolverProcessError(f"get-value answered {len(values)} of {len(terms)} terms")
        return values

    def _extract_model(self) -> Model:
        """One get-value for every declared constant and asserted application;
        each application gives its table the row point -> value."""
        consts = [c for c in self._declared.values() if isinstance(c, Const)]
        terms: list[Term] = [*consts, *self._apps]
        value = dict(zip(terms, self._value_of(terms) if terms else [])).__getitem__
        rows: dict[str, dict[ValueVector, Value]] = {}
        for app in self._apps:
            point = tuple(evaluate_with(a, value) for a in app.args)
            rows.setdefault(app.func.name, {})[point] = value(app)
        functions = {}
        for func in self._declared.values():
            if isinstance(func, FunctionSymbol):
                table = rows.get(func.name, {})
                functions[func.name] = FunctionTable(
                    table, default_output(func.result_sort, table.values())
                )
        return Model({c.name: value(c) for c in consts}, functions)

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
