"""Ground states and minimax level certificates for the logarithmic
Schrodinger equation -eps^2 Lap u + V(x) u = u log u^2 with saddle-like
potentials.

Importing the package loads none of its modules; import what you need from
the submodules (``lognls.grid``, ``lognls.energy``, ``lognls.nehari``,
``lognls.potential``, ``lognls.hypotheses``, ``lognls.expression``,
``lognls.minimax``, ``lognls.oracles``, ``lognls.cli``).
"""

__version__ = "0.1.0"
