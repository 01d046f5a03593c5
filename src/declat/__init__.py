"""declat: discrete exterior calculus on irregular tetrahedral lattices.

Oriented simplicial complexes with exact integer incidence structure,
lowest-order Whitney forms, material-weighted discrete Hodge stars and
their sparse approximate inverses, symplectic leapfrog Maxwell evolution
with perfectly conducting walls, frequency-domain absorbing layers by
metric complexification, exactly charge-conserving particle coupling, and
executable audits of the combinatorial, reciprocity, and metric
consistency properties a lattice discretization must satisfy.

Each public name is imported from its module, ``declat.<module>.<name>``;
the package itself re-exports nothing, so ``import declat.mesh`` loads the
metric-free layer (``declat.mesh`` and ``declat.exact``) and no metric
module.
"""

__version__ = "0.1.0"
