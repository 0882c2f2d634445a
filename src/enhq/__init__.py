"""Coherent-state workbench: finite-dimensional operator algebra, three
coherent-state families, enhanced classical Hamiltonians, phase-space
geometry, symplectic dynamics and a radial inequality explorer.

Names are imported from their modules (`from enhq.coherent import
CanonicalFamily`); the package itself holds only `__version__`, so
`import enhq.cli` loads numpy and nothing heavier.  `enhq.inequality`, for
its special functions, is the one module that imports more than numpy, so
every subcommand but `inequality` and `selftest` runs on numpy alone.
"""

__version__ = "0.1.0"
