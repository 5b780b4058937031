"""Reference implementations the production engines are tested against.

Each oracle is the straightforward original of an optimised production
path, kept verbatim so the differential suites can demand bit-identical
results.  Only ``tests/`` and ``benchmarks/`` import this package;
``repro analyze`` (rule ``oracle-imports``) keeps production code off it.
"""

from .bubbles import extract_bubbles_reference
from .filling import LookaheadReferenceFill
from .partition import (
    cdm_table_reference,
    chain_table_reference,
    het_table_reference,
)
from .simulator import simulate_reference

__all__ = [
    "LookaheadReferenceFill",
    "cdm_table_reference",
    "chain_table_reference",
    "extract_bubbles_reference",
    "het_table_reference",
    "simulate_reference",
]
