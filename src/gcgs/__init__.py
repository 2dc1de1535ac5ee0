# -*- coding: utf-8 -*-
"""
Conditional gradient splitting for composite convex problems.

The core solver minimizes f + g over a compact convex set through a
partial-linearization oracle with a certified surrogate gap. Shipped
applications: entropic/Laplacian-regularized optimal transport (with a
Sinkhorn oracle and an exact vertex LMO: shortest augmenting paths from
auction-priced duals on assignment instances, a transportation simplex
otherwise) and the L1-ball-constrained elastic-net (projection oracle,
SPG and projected gradient baselines). The ``gcgs`` console script runs
both experiment families and writes CSV/JSON traces.
"""

__version__ = "0.1.0"
