"""Shared random generators for states, elements and circuits."""

from __future__ import annotations

import cmath
import math
import random

from qndmzi import (
    PROBE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    HybridState,
    KerrCoupling,
    PhaseShift,
    merge_branches,
)


def random_complex(rng: random.Random, radius: float = 1.0) -> complex:
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def random_state(
    rng: random.Random,
    m_modes: int = 3,
    k_probes: int = 2,
    max_branches: int = 3,
    probe_radius: float = 1.0,
) -> HybridState:
    branches = []
    for _ in range(rng.randint(1, max_branches)):
        probes = tuple(random_complex(rng, probe_radius) for _ in range(k_probes))
        branches.append(
            Branch(rng.randrange(m_modes), random_complex(rng) + 0.1, probes)
        )
    state = merge_branches(HybridState(m_modes, k_probes, tuple(branches)))
    return state.normalized()


def random_element(rng: random.Random, m_modes: int = 3, k_probes: int = 2):
    kind = rng.choice(["bs_sys", "bs_probe", "phase_sys", "phase_probe", "kerr"])
    if kind == "bs_sys":
        a, b = rng.sample(range(m_modes), 2)
        return BeamSplitter(SYS, a, b, rng.random())
    if kind == "bs_probe":
        a, b = rng.sample(range(k_probes), 2)
        return BeamSplitter(PROBE, a, b, rng.random())
    if kind == "phase_sys":
        return PhaseShift(SYS, rng.randrange(m_modes), rng.uniform(0, 2 * math.pi))
    if kind == "phase_probe":
        return PhaseShift(PROBE, rng.randrange(k_probes), rng.uniform(0, 2 * math.pi))
    n_sys = rng.randint(1, min(2, m_modes))
    system_modes = frozenset(rng.sample(range(m_modes), n_sys))
    kerr = KerrCoupling(system_modes, rng.randrange(k_probes), rng.uniform(0, 2 * math.pi))
    # Two more draws, so that every seeded circuit keeps its other elements.
    rng.uniform(0, 2 * math.pi)
    rng.choice([0.0, rng.uniform(0, 2 * math.pi)])
    return kerr


def random_circuit(
    rng: random.Random,
    m_modes: int = 3,
    k_probes: int = 2,
    max_elements: int = 10,
    probe_radius: float = 1.0,
) -> Circuit:
    elements = tuple(
        random_element(rng, m_modes, k_probes)
        for _ in range(rng.randint(1, max_elements))
    )
    probes = tuple(random_complex(rng, probe_radius) for _ in range(k_probes))
    return Circuit(
        m_modes=m_modes,
        k_probes=k_probes,
        elements=elements,
        source_mode=rng.randrange(m_modes),
        source_probes=probes,
    )
