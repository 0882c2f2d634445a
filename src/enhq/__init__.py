"""Coherent-state workbench: finite-dimensional operator algebra, three
coherent-state families, enhanced classical Hamiltonians, phase-space
geometry, symplectic dynamics and a radial inequality explorer.

Names are imported from their modules (`from enhq.coherent import
CanonicalFamily`); the package itself holds only `__version__`, so
`import enhq.cli` loads numpy and nothing heavier.  Every module, the
radial inequality's incomplete Gamma function included, runs on numpy and
the standard library alone, so every subcommand does.
"""

__version__ = "0.1.0"
