"""Coherent-state workbench: finite-dimensional operator algebra, three
coherent-state families, enhanced classical Hamiltonians, phase-space
geometry, symplectic dynamics and a radial inequality explorer.

Names are imported from their modules (`from enhq.coherent import
CanonicalFamily`); the package itself holds only `__version__`, so
`import enhq.cli` loads numpy and nothing heavier.  scipy is imported only
where a computation calls it, so a run loads only what it uses.
"""

__version__ = "0.1.0"
