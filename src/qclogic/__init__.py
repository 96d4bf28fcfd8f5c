"""Probabilistic truth values of gates, their equivalence hierarchy, and
orthomodular computational schemes, for both quantum and classical circuits."""

from . import algorithms, classical, errors, gates, logic, omlattice, qcore
from .algorithms import (
    OracleFunction,
    PeriodicSpec,
    RunResult,
    build_oracle,
    deutsch_jozsa,
    period_find,
    qft,
    success_probability,
)
from .classical import (
    BoolCircuit,
    EventSubset,
    StochasticOutput,
    check_kolmogorov,
    equal_functions,
    eval_circuit,
    eval_gate,
    induced_measure,
)
from .errors import QclError
from .gates import (
    GateSpec,
    GateTemplate,
    GateWord,
    GeneratorSet,
    compose_word,
    elementary,
    enumerate_polynomials,
    generator_set,
    parse_word,
    toffoli_truth_value,
)
from .logic import (
    EquivalenceReport,
    equiv_P,
    equiv_rho,
    equiv_rho_P,
    equiv_total,
    hierarchy_check,
    leq_P,
    leq_rho,
    leq_rho_P,
    quotient,
    truth_value,
)
from .omlattice import (
    ComputationalScheme,
    FiniteOML,
    LatticeAutomorphism,
    LatticeState,
    ProjectionLattice,
    boolean_oml,
    gleason_state,
    generalized_equiv,
    generalized_leq,
    is_superposition,
    mo2_oml,
    projection_oml,
    pushforward,
    run_protocol,
    unitary_automorphism,
)
from .qcore import (
    DensityOperator,
    Projector,
    UnitaryGate,
    boolean_projections,
    born,
    commutant,
    conjugate,
    tensor,
    trace,
    validate,
)

__version__ = "0.1.0"
