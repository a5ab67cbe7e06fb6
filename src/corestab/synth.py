"""Seeded synthetic graph generators (Erdos-Renyi and Barabasi-Albert)."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import json_fields
from .graph import Graph

ER = "er"
BA = "ba"


@dataclass(frozen=True)
class GenSpec:
    model: str
    n: int
    p: Optional[float] = None          # ER edge probability
    m_attach: Optional[int] = None     # BA edges per arriving node

    def __post_init__(self):
        if self.model not in (ER, BA):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.model == ER:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("er model needs p in [0, 1]")
        else:
            if self.m_attach is None or not 1 <= self.m_attach < self.n:
                raise ValueError("ba model needs 1 <= m_attach < n")

    def to_dict(self):
        d = {"model": self.model, "n": self.n}
        if self.model == ER:
            d["p"] = self.p
        else:
            d["m_attach"] = self.m_attach
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**json_fields(cls, d))


def _erdos_renyi(n, p, rng):
    chunks = []
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < p)
        if hits.size:
            chunks.append(np.column_stack(
                [np.full(hits.size, i, dtype=np.int64), i + 1 + hits]))
    edges = np.vstack(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    return Graph(n, edges)


def _barabasi_albert(n, m_attach, rng):
    # m_attach seed nodes; the first arrival links to all of them, later
    # arrivals pick m_attach distinct targets by degree-proportional draws
    # from the repeated-endpoints pool
    edges = []
    repeated = []
    targets = list(range(m_attach))
    for source in range(m_attach, n):
        for t in targets:
            edges.append((t, source))
        repeated.extend(targets)
        repeated.extend([source] * m_attach)
        picked = set()
        while len(picked) < m_attach:
            picked.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(picked)
    return Graph(n, np.array(edges, dtype=np.int64))


def generate(spec, seed=0):
    """Deterministic graph for a (model, parameters) specification and a
    seed."""
    rng = np.random.default_rng(seed)
    if spec.model == ER:
        return _erdos_renyi(spec.n, spec.p, rng)
    return _barabasi_albert(spec.n, spec.m_attach, rng)

