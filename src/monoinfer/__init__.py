"""Satisfiability of uninterpreted functions under monotonicity constraints,
with four interchangeable encodings, and logic-based network inference from
influence graphs and fixed-point observations."""

from .terms import (
    BOOL,
    INT,
    Add,
    And,
    Apply,
    ArgVector,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Exists,
    Forall,
    FunctionSymbol,
    Implies,
    IntLit,
    MonotonicitySpec,
    Neg,
    Not,
    Or,
    Sort,
    SortError,
    Sub,
    Term,
    TermError,
    Var,
    applications_of,
    bounded_int,
    mk_and,
    mk_or,
    ordering_atom,
    skolemize,
    subst_at,
    subterms,
)
from .model import FunctionTable, Model, evaluate
from .encode import (
    EncodedProblem,
    LazyRunStats,
    Strategy,
    encode_eager,
    encode_quant_aggregated,
    encode_quant_individual,
    monotonicity_lemma,
    monotonize_model,
    solve_lazy,
    violated_lemmas,
)
from .network import (
    FixedPointObservation,
    InferenceProblem,
    NetworkVariable,
    Regulation,
    Sign,
    UpdateFunctionTable,
    decode_solution,
    encode_inference,
    verify_solution,
)
from .oracle import count_solutions, oracle_inference, oracle_mono_sat
from .session import (
    InternalSession,
    ProcessSession,
    SolverSession,
    SolverVerdict,
    open_session,
)
from .smtlib import emit_script, emit_smtlib
from .problemfile import load_problem, parse_problem, save_problem, serialize_problem
from .generate import GeneratorParams, generate_instance
from .harness import RunRecord, run_batch, run_single

__version__ = "0.1.0"
