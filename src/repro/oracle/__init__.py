"""Metamorphic-relation oracle — single-stack numerical defect detection.

The differential harness needs two vendor stacks to disagree before it
can flag anything; ``repro.oracle`` detects defects *within one
execution model* by checking metamorphic relations: program transforms
whose effect on the result is provable (exact, or ULP-bounded), executed
through the shared :mod:`repro.exec` service so variants are
content-cached and deduped.  See :mod:`repro.oracle.relations` for the
relation catalogue and the soundness argument of each bound.
"""

from repro.oracle.engine import (
    OracleConfig,
    OracleResult,
    oracle_check_outcomes,
    oracle_requests_for,
    oracle_violation_table,
    run_oracle,
)
from repro.oracle.ledger import OracleLedger, OracleLedgerState
from repro.oracle.relations import (
    RELATION_NAMES,
    RELATIONS,
    Relation,
    RelationViolation,
    resolve_relations,
)

__all__ = [
    "OracleConfig",
    "OracleResult",
    "run_oracle",
    "oracle_requests_for",
    "oracle_check_outcomes",
    "oracle_violation_table",
    "OracleLedger",
    "OracleLedgerState",
    "Relation",
    "RelationViolation",
    "RELATIONS",
    "RELATION_NAMES",
    "resolve_relations",
]
