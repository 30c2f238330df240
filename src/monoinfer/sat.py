"""A self-contained CDCL SAT solver.

No SAT package is available in the deployment environment, so the internal
engine carries its own conflict-driven solver: two-watched-literal
propagation, first-UIP clause learning with local minimization, VSIDS-style
activities on a lazy heap, phase saving, geometric restarts and periodic
learned-clause reduction.  Literals use the DIMACS convention (+v / -v,
variables numbered from 1).  Clauses may keep arriving between solve()
calls; learned clauses are retained across calls.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Iterable, Optional

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SatSolver:
    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.is_learned: list[bool] = []
        self.watches: dict[int, list[int]] = {}
        self.assign: list[int] = [0]  # var -> 0 / +1 / -1; index 0 unused
        self.level: list[int] = [0]
        self.reason: list[Optional[int]] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_activity: list[float] = []
        self.cla_inc = 1.0
        self.ok = True
        self._heap: list[tuple[float, int]] = []
        self._model: list[int] = []

    # -- problem construction ----------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat."""
        if not self.ok:
            return False
        if self.trail_lim:
            self._backtrack(0)
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value == 1:
                return True  # satisfied at level 0
            if value == -1:
                continue  # false at level 0
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.is_learned.append(False)
        self.cla_activity.append(0.0)
        self._watch(idx)
        return True

    def _watch(self, idx: int) -> None:
        clause = self.clauses[idx]
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)

    # -- assignment / propagation --------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        clauses = self.clauses
        assign = self.assign
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watch_list = self.watches.get(false_lit)
            if not watch_list:
                continue
            kept: list[int] = []
            i = 0
            n = len(watch_list)
            while i < n:
                idx = watch_list[i]
                i += 1
                clause = clauses[idx]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                v = assign[first if first > 0 else -first]
                if (v if first > 0 else -v) == 1:
                    kept.append(idx)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    ov = assign[other if other > 0 else -other]
                    if (ov if other > 0 else -ov) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(idx)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(idx)
                if (v if first > 0 else -v) == -1:
                    kept.extend(watch_list[i:n])
                    self.watches[false_lit] = kept
                    return idx
                self._enqueue(first, idx)
            self.watches[false_lit] = kept
        return None

    # -- conflict analysis ----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        heappush(self._heap, (-self.activity[var], var))

    def _bump_clause(self, idx: int) -> None:
        self.cla_activity[idx] += self.cla_inc
        if self.cla_activity[idx] > 1e20:
            for i in range(len(self.cla_activity)):
                self.cla_activity[i] *= 1e-20
            self.cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level).
        The asserting literal ends up at position 0."""
        learned: list[int] = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None  # implied literal of the clause being resolved
        idx = conflict
        trail_pos = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            clause = self.clauses[idx]
            if self.is_learned[idx]:
                self._bump_clause(idx)
            for q in clause:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[trail_pos])]:
                trail_pos -= 1
            p = self.trail[trail_pos]
            trail_pos -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            reason_idx = self.reason[abs(p)]
            assert reason_idx is not None
            idx = reason_idx
        learned[0] = -p
        # local minimization: a literal is redundant if all other literals of
        # its reason clause are already in the learned clause or at level 0
        marked = {abs(l) for l in learned}
        minimized = [learned[0]]
        for l in learned[1:]:
            r = self.reason[abs(l)]
            if r is None or any(
                abs(q) not in marked and self.level[abs(q)] > 0
                for q in self.clauses[r]
                if q != -l
            ):
                minimized.append(l)
        learned = minimized
        if len(learned) == 1:
            return learned, 0
        max_i = max(range(1, len(learned)), key=lambda i: self.level[abs(learned[i])])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[abs(learned[1])]

    def _backtrack(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
                heappush(self._heap, (-self.activity[var], var))
        self.qhead = min(self.qhead, len(self.trail))

    def _record_learned(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        idx = len(self.clauses)
        self.clauses.append(learned)
        self.is_learned.append(True)
        self.cla_activity.append(self.cla_inc)
        self._watch(idx)
        self._enqueue(learned[0], idx)

    def _pick_branch_var(self) -> Optional[int]:
        # every unassigned variable has a heap entry (new_var and _backtrack
        # push one), so an empty heap means a full assignment
        while self._heap:
            _, var = heappop(self._heap)
            if self.assign[var] == 0:
                return var
        return None

    def _reduce_learned(self) -> None:
        """Drop the less active half of the learned clauses (unlocked, len > 2)."""
        learned_idx = [i for i, flag in enumerate(self.is_learned) if flag]
        if len(learned_idx) < 2000:
            return
        locked = {r for r in self.reason if r is not None}
        learned_idx.sort(key=lambda i: self.cla_activity[i])
        drop = {
            i
            for i in learned_idx[: len(learned_idx) // 2]
            if i not in locked and len(self.clauses[i]) > 2
        }
        if not drop:
            return
        keep = [i for i in range(len(self.clauses)) if i not in drop]
        remap = {old: new for new, old in enumerate(keep)}
        self.clauses = [self.clauses[i] for i in keep]
        self.is_learned = [self.is_learned[i] for i in keep]
        self.cla_activity = [self.cla_activity[i] for i in keep]
        self.watches = {}
        for idx in range(len(self.clauses)):
            self._watch(idx)
        self.reason = [remap[r] if r is not None else None for r in self.reason]

    # -- main loop ---------------------------------------------------------------

    def solve(self, deadline: Optional[float] = None) -> str:
        """Solve the accumulated clause set: "sat", "unsat", or "unknown" on
        deadline expiry.  On sat, the assignment is kept in `self.model`."""
        if not self.ok:
            return UNSAT
        self._backtrack(0)
        restart_limit = 100
        since_restart = 0
        total_conflicts = 0
        decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                total_conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learned(learned)
                self.var_inc /= self.var_decay
                self.cla_inc /= 0.999
                if deadline is not None and total_conflicts % 256 == 0:
                    if time.monotonic() > deadline:
                        return UNKNOWN
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                    self._reduce_learned()
            else:
                decisions += 1
                if deadline is not None and decisions % 64 == 0:
                    if time.monotonic() > deadline:
                        return UNKNOWN
                var = self._pick_branch_var()
                if var is None:
                    self._model = list(self.assign)
                    return SAT
                self.trail_lim.append(len(self.trail))
                self._enqueue(var if self.phase[var] else -var, None)

    @property
    def model(self) -> list[int]:
        """Assignment array (var -> +1/-1) from the last sat answer."""
        return self._model
