"""Differential-testing harness.

Implements the paper's experimental procedure (§II-C, Fig. 1): compile
each generated test with both compiler models at the same optimization
setting, run both "binaries" on their devices with the same input, compare
the printed ``%.17g`` results, and classify discrepancies into the seven
classes of §IV-B.  The campaign driver scales from smoke tests to the
paper preset, which runs 694,400 runs against the paper's 652,600; the
metadata store and transfer module implement the between-platform
workflow of Fig. 3.
"""
