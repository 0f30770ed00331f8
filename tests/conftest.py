"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.api import CompileJob, MachineSpec
from repro.arch.nisq import NISQMachine
from repro.cluster import assign_endpoint
from repro.ir.builder import ModuleBuilder
from repro.ir.program import Program, QModule
from repro.service import ServiceClient


def build_fun1() -> QModule:
    """The example function of Figure 6 (one ancilla, explicit-style blocks)."""
    builder = ModuleBuilder("fun1", num_inputs=3, num_outputs=1, num_ancilla=1)
    i, o, a = builder.inputs, builder.outputs, builder.ancillas
    with builder.compute():
        builder.ccx(i[0], i[1], i[2])
        builder.cx(i[2], a[0])
        builder.ccx(i[1], i[0], a[0])
    with builder.store():
        builder.cx(a[0], o[0])
    return builder.build()


def build_two_level_program() -> Program:
    """A two-level modular program in the shape of Figure 3."""
    fun1 = build_fun1()
    top = QModule("main", num_inputs=3, num_outputs=2, num_ancilla=1)
    ti, to, ta = top.inputs, top.outputs, top.ancillas
    top.call(fun1, ti[0], ti[1], ti[2], ta[0])
    top.cx(ti[0], ta[0])
    top.begin_store()
    top.cx(ta[0], to[0])
    top.cx(ta[0], to[1])
    return Program(top, name="two-level")


@pytest.fixture
def clients():
    """``clients(url, **options)``: a :class:`ServiceClient` whose
    connections are closed when the test ends."""
    opened = []

    def open_client(*args, **kwargs) -> ServiceClient:
        opened.append(ServiceClient(*args, **kwargs))
        return opened[-1]

    yield open_client
    for client in opened:
        client.close()


@pytest.fixture
def fun1_module() -> QModule:
    """Fresh fun1 module."""
    return build_fun1()


@pytest.fixture
def two_level_program() -> Program:
    """Fresh two-level program."""
    return build_two_level_program()


@pytest.fixture
def small_grid_machine() -> NISQMachine:
    """A 4x4 lattice NISQ machine."""
    return NISQMachine.grid(4, 4)


@pytest.fixture
def sweep_covering():
    """``sweep_covering(urls, names)``: see :func:`_covering`."""
    return _covering


def _covering(urls, names):
    """``names`` under the square policy on a 5x5 grid, plus the first
    cheap variants (other policies and grid sizes) that give every URL
    in ``urls`` a job.

    Rendezvous placement depends on the (ephemeral-port) URLs, so a
    fixed job list can land wholly on one worker; a test asserting that
    every shard took part builds its sweep with this instead.
    """
    pool = [CompileJob.for_benchmark(name, MachineSpec.nisq_grid(size, size),
                                     policy)
            for size in (5, 6, 7, 8) for policy in ("square", "eager", "lazy")
            for name in names]
    jobs = pool[:len(names)]
    owners = {assign_endpoint(job.fingerprint(), urls) for job in jobs}
    for job in pool[len(names):]:
        owner = assign_endpoint(job.fingerprint(), urls)
        if owner not in owners:
            jobs.append(job)
            owners.add(owner)
    if owners != set(urls):
        raise AssertionError(f"no job variant lands on "
                             f"{sorted(set(urls) - owners)}")
    return jobs


def all_basis_inputs(width: int):
    """Every basis-state input of the given width."""
    return itertools.product([0, 1], repeat=width)
