"""Decay, degree, and closeness centrality on connected graphs.

Exact pairwise ordering machinery (lexicographic and dominance comparators,
half-range sufficient conditions), maximizer-set computation with exact tie
handling, and a deterministic Monte-Carlo harness over seeded connected
Erdős–Rényi samples.

Every public name is imported from the module that defines it:
``decaycent.graph``, ``.generation``, ``.centrality``, ``.ordering``,
``.simulation``, ``.verification``, ``.io`` or ``.cli``.
"""

from .meta import VERSION as __version__
