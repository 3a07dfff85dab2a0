"""OLIVE: plan-guided online virtual network embedding (Sec. III-C).

This package holds the online machinery shared by OLIVE and the baselines:

* :mod:`repro.core.embedding` — concrete unsplittable embeddings x(r) and
  their induced loads (Eq. 1);
* :mod:`repro.core.residual` — residual substrate capacity Res(S, t, x)
  (Eq. 16) and the residual plan Res(y, t, x) (Eq. 17);
* :mod:`repro.core.greedy` — the collocated least-cost GREEDYEMBED
  (indexed fast path: one search per route, fused with the host scan);
* :mod:`repro.core.greedy_reference` — the frozen scalar GREEDYEMBED the
  decision-equivalence tests compare against;
* :mod:`repro.core.profile` — per-application static quantities
  (:class:`AppProfile`) and precompiled load recipes feeding the fast
  path;
* :mod:`repro.core.ledger` — the residual-plus-active-allocation ledger
  every per-request embedder shares (:class:`LedgerAlgorithm`);
* :mod:`repro.core.olive` — Algorithm 2: planned embedding, borrowed
  partial-fit embedding, preemption, and greedy fallback.
"""

from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.greedy import GreedyContext, greedy_embed
from repro.core.ledger import Decision, LedgerAlgorithm
from repro.core.olive import OliveAlgorithm
from repro.core.profile import AppProfile, AppProfileCache, LoadsRecipe
from repro.core.residual import PlanResidual, ResidualState

__all__ = [
    "Embedding",
    "ElementLoads",
    "compute_loads",
    "ResidualState",
    "PlanResidual",
    "greedy_embed",
    "GreedyContext",
    "AppProfile",
    "AppProfileCache",
    "LoadsRecipe",
    "LedgerAlgorithm",
    "OliveAlgorithm",
    "Decision",
]
