"""The examples embedded in module docstrings stay truthful."""

import doctest

import pytest

import repro
import repro.client
import repro.core.xml2oracle
import repro.obs
import repro.obs.metrics
import repro.obs.tracing
import repro.ordb
import repro.ordb.checkpoint
import repro.ordb.faults
import repro.ordb.locks
import repro.ordb.sessions
import repro.ordb.sql.render
import repro.ordb.wal
import repro.server
import repro.server.admission
import repro.server.wire
import repro.xmlkit

_MODULES = [repro, repro.xmlkit, repro.ordb, repro.ordb.faults,
            repro.ordb.locks, repro.ordb.sessions, repro.ordb.sql.render,
            repro.ordb.wal, repro.ordb.checkpoint,
            repro.core.xml2oracle, repro.obs, repro.obs.metrics,
            repro.obs.tracing, repro.server, repro.server.wire,
            repro.server.admission, repro.client]


@pytest.mark.parametrize("module", _MODULES,
                         ids=[m.__name__ for m in _MODULES])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False,
                              optionflags=doctest.ELLIPSIS)
    assert results.failed == 0, f"{results.failed} doctest failure(s)"
    assert results.attempted > 0, "expected at least one example"
