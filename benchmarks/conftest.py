"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's claims (the E1-E12 and
F1-F5 experiments registered in :mod:`repro.experiments`; PAPER.md has
the paper's abstract and README.md the reproduction overview) and
prints the paper-style table (visible with ``pytest -s`` or in the
captured output block of a failure).  Run them all with
``python -m pytest benchmarks -o python_files='bench_*.py'
--benchmark-disable``.  Parameters are laptop-scale; the
experiment modules accept larger sweeps for a fuller run.
"""

import pytest


def emit(table) -> None:
    """Print a rendered experiment table beneath the benchmark."""
    print()
    print(table.render() if hasattr(table, "render") else table)


@pytest.fixture
def table_sink():
    return emit
