"""Thresholds for every numerical decision made by the package.

All comparisons that turn floating point numbers into verdicts (is this
eigenvalue real? do these two coincide? is this Gram direction neutral?)
read one of these six constants; ``specdamp analyze`` echoes them in the
``tolerances`` section of ``report.json``.
"""

RESIDUAL_TOL = 1e-8
"""Maximum accepted eigenpair residual, relative to the Frobenius norm of
the phase operator."""

SNAP_REAL_TOL = 1e-9
"""Eigenvalues with ``|Im lam| <= SNAP_REAL_TOL * (1 + |lam|)`` are snapped
onto the real axis.  Realness verdicts must be decidable, so this is
deliberately tight."""

CLUSTER_TOL = 1e-7
"""Eigenvalues within ``CLUSTER_TOL * (1 + |lam|)`` of each other are
grouped into one cluster for multiplicity and kernel analysis."""

NEUTRAL_TOL = 1e-8
"""Gram eigenvalues within ``NEUTRAL_TOL`` of zero, relative to the
cluster's energy-norm scale, count as neutral directions."""

ORTH_TOL = 1e-8
"""Accepted bound for normalized cross-cluster indefinite products when
verifying a decomposition split."""

RANK_TOL = 1e-8
"""Relative singular value cutoff used for numerical rank and kernel
dimension decisions."""
