"""Metamorphic-relation oracle — single-stack numerical defect detection.

The differential harness needs two vendor stacks to disagree before it
can flag anything; ``repro.oracle`` detects defects *within one
execution model* by checking metamorphic relations: program transforms
whose effect on the result is provable (exact, or ULP-bounded), executed
through the shared :mod:`repro.exec` service so variants are
content-cached and deduped.  See :mod:`repro.oracle.relations` for the
relation catalogue and the soundness argument of each bound.
"""
