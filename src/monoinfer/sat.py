"""A self-contained CDCL SAT solver.

No SAT package is available in the deployment environment, so the internal
engine carries its own conflict-driven solver: two-watched-literal
propagation, first-UIP clause learning with local minimization, VSIDS-style
activities on a lazy heap, phase saving, geometric restarts and periodic
learned-clause reduction.  Literals use the DIMACS convention (+v / -v,
variables numbered from 1).  Clauses may keep arriving between solve()
calls; learned clauses are retained across calls.

Only decision variables are branched on (MiniSat's decision flag, Eén &
Sörensson, SAT 2003): `new_var(decide=False)` makes a variable that never
enters the heap, meant for a gate that its inputs force.  Should one stay
open once every decision variable is assigned, the lowest open one is
branched on, so the solver stays complete for any clause set.

Backtracking is chronological (Nadel & Ryvchin, SAT 2018, with the
invariants of Möhle & Biere, SAT 2019), so the trail is out of order: a
propagated literal gets its implication level, the highest level among the
other literals of its reason, which may lie below the current decision
level.  A conflict is analysed at its own level c, the highest level in the
conflicting clause, and the solver then undoes only level c: the literals
of lower levels stay assigned, in trail order, and propagate again.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
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
        self.decide: list[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_activity: list[float] = []
        self.cla_inc = 1.0
        self.ok = True
        self._heap: list[tuple[float, int]] = []  # decision variables only
        self._model: list[int] = []
        # search counters, cumulative over solve() calls; propagations
        # counts implied literals, not decisions
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- problem construction ----------------------------------------------------

    def new_var(self, decide: bool = True) -> int:
        """A fresh variable; `decide=False` keeps it out of the branching
        heap."""
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.decide.append(decide)
        if decide:
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
            self._enqueue(clause[0], None, 0)
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

    def _enqueue(self, lit: int, reason: Optional[int], level: int) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = level
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.
        A unit literal is assigned at its implication level."""
        clauses = self.clauses
        assign = self.assign
        level = self.level
        current_level = len(self.trail_lim)
        start = len(self.trail)
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
                    self.propagations += len(self.trail) - start
                    return idx
                # clause[1] is false_lit; at the current level it is the
                # highest level of the clause, else scan the others
                implied = level[-false_lit if false_lit < 0 else false_lit]
                if implied < current_level:
                    for k in range(2, len(clause)):
                        other = level[abs(clause[k])]
                        if other > implied:
                            implied = other
                self._enqueue(first, idx, implied)
            self.watches[false_lit] = kept
        self.propagations += len(self.trail) - start
        return None

    # -- conflict analysis ----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        if not self.decide[var]:
            return
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            # the heap's keys are the old activities: rebuild it
            self._heap = [
                (-self.activity[v], v)
                for v in range(1, self.num_vars + 1)
                if self.assign[v] == 0 and self.decide[v]
            ]
            heapify(self._heap)
        heappush(self._heap, (-self.activity[var], var))

    def _bump_clause(self, idx: int) -> None:
        self.cla_activity[idx] += self.cla_inc
        if self.cla_activity[idx] > 1e20:
            for i in range(len(self.cla_activity)):
                self.cla_activity[i] *= 1e-20
            self.cla_inc *= 1e-20

    def _conflict_level(self, conflict: int) -> int:
        """The highest level in a conflicting clause.  Its two highest-level
        literals become the watches, so that backtracking below that level
        unassigns a watch before the clause can turn unit."""
        clause = self.clauses[conflict]
        level = self.level
        for i in (0, 1):
            best = max(range(i, len(clause)), key=lambda k: level[abs(clause[k])])
            if best > 1:
                self.watches[clause[i]].remove(conflict)
                self.watches.setdefault(clause[best], []).append(conflict)
            clause[i], clause[best] = clause[best], clause[i]
        return level[abs(clause[0])]

    def _analyze(self, conflict: int) -> bool:
        """Resolve a conflict; False when it is at level 0 (unsat).

        First-UIP learning at the conflict level c: backtrack to c, resolve
        the level-c literals in reverse trail order, then backtrack to c - 1
        and assert the learned clause at its backjump level.  A clause with
        a single level-c literal is a missed lower implication: that literal
        is asserted with the clause as its reason, and nothing is learned."""
        c = self._conflict_level(conflict)
        if c == 0:
            return False
        clause = self.clauses[conflict]
        level = self.level
        if level[abs(clause[1])] < c:
            self._backtrack(c - 1)
            self._enqueue(clause[0], conflict, level[abs(clause[1])])
            return True
        self._backtrack(c)
        learned: list[int] = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None  # implied literal of the clause being resolved
        idx = conflict
        trail_pos = len(self.trail) - 1
        while True:
            clause = self.clauses[idx]
            if self.is_learned[idx]:
                self._bump_clause(idx)
            for q in clause:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] == c:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                var = abs(self.trail[trail_pos])
                if seen[var] and level[var] == c:
                    break
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
                abs(q) not in marked and level[abs(q)] > 0
                for q in self.clauses[r]
                if q != -l
            ):
                minimized.append(l)
        learned = minimized
        self._backtrack(c - 1)
        if len(learned) == 1:
            self._record_learned(learned, 0)
            return True
        max_i = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        self._record_learned(learned, level[abs(learned[1])])
        return True

    def _backtrack(self, target_level: int) -> None:
        """Unassign the literals above `target_level`; the lower ones stay on
        the trail in order and propagate again from the first removed
        position."""
        if len(self.trail_lim) <= target_level:
            return
        start = self.trail_lim[target_level]
        del self.trail_lim[target_level:]
        trail = self.trail
        level = self.level
        decide = self.decide
        kept = start
        for i in range(start, len(trail)):
            lit = trail[i]
            var = abs(lit)
            if level[var] > target_level:
                self.assign[var] = 0
                self.reason[var] = None
                if decide[var]:
                    heappush(self._heap, (-self.activity[var], var))
            else:
                trail[kept] = lit
                kept += 1
        del trail[kept:]
        self.qhead = min(self.qhead, start)

    def _record_learned(self, learned: list[int], level: int) -> None:
        """Add a learned clause and assert its first literal at `level`, the
        highest level of the others (0 for a unit)."""
        if len(learned) == 1:
            self._enqueue(learned[0], None, 0)
            return
        idx = len(self.clauses)
        self.clauses.append(learned)
        self.is_learned.append(True)
        self.cla_activity.append(self.cla_inc)
        self._watch(idx)
        self._enqueue(learned[0], idx, level)

    def _pick_branch_var(self) -> Optional[int]:
        # every unassigned decision variable has a heap entry (new_var and
        # _backtrack push one), so an empty heap means they are all assigned;
        # then the lowest open non-decision variable, else a full assignment
        while self._heap:
            _, var = heappop(self._heap)
            if self.assign[var] == 0:
                return var
        assign, decide = self.assign, self.decide
        for var in range(1, self.num_vars + 1):
            if assign[var] == 0 and not decide[var]:
                return var
        return None

    def _reduce_learned(self) -> None:
        """Drop the less active half of the learned clauses longer than two.
        It runs right after `_backtrack(0)`, so only level-0 literals keep a
        reason, and `_analyze` never reads a level-0 reason: every reason is
        cleared, and any clause may go."""
        learned_idx = [i for i, flag in enumerate(self.is_learned) if flag]
        if len(learned_idx) < 2000:
            return
        learned_idx.sort(key=lambda i: self.cla_activity[i])
        drop = {i for i in learned_idx[: len(learned_idx) // 2] if len(self.clauses[i]) > 2}
        if not drop:
            return
        keep = [i for i in range(len(self.clauses)) if i not in drop]
        self.clauses = [self.clauses[i] for i in keep]
        self.is_learned = [self.is_learned[i] for i in keep]
        self.cla_activity = [self.cla_activity[i] for i in keep]
        self.watches = {}
        for idx in range(len(self.clauses)):
            self._watch(idx)
        self.reason = [None] * len(self.reason)

    # -- main loop ---------------------------------------------------------------

    def solve(self, deadline: Optional[float] = None) -> str:
        """Solve the accumulated clause set: "sat", "unsat", or "unknown" on
        deadline expiry.  On sat, the assignment is kept in `self.model`."""
        if not self.ok:
            return UNSAT
        self._backtrack(0)
        restart_limit = 100
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if not self._analyze(conflict):
                    self.ok = False
                    return UNSAT
                self.var_inc /= self.var_decay
                self.cla_inc /= 0.999
                if deadline is not None and self.conflicts % 256 == 0:
                    if time.monotonic() > deadline:
                        return UNKNOWN
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.restarts += 1
                    self._backtrack(0)
                    self._reduce_learned()
            else:
                if deadline is not None and self.decisions % 64 == 0:
                    if time.monotonic() > deadline:
                        return UNKNOWN
                var = self._pick_branch_var()
                if var is None:
                    self._model = list(self.assign)
                    return SAT
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var if self.phase[var] else -var, None, len(self.trail_lim))

    @property
    def model(self) -> list[int]:
        """Assignment array (var -> +1/-1) from the last sat answer."""
        return self._model
