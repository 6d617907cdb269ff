"""Monte Carlo laboratory for smallest-singular-value floors of random matrices
with independent isotropic heavy-tailed rows.

Subpackages:

- ``distributions``: samplers and analytic descriptors for isotropic families
- ``spectrum``: row-normalized sample matrices and extreme singular values
- ``smallball``: sandwich estimates of the small-ball function Q(u)
- ``rademacher``: Rademacher complexity of the linear class
- ``bounds``: floor/probability predictions with overridable constants
- ``empirical_process``: truncation ramp, second-moment identity, VC
  brute force, exact tiny oracle
- ``experiments``: beta-sweep harness, exponent fits, the config file
  reader, CSV tables, verification suite
- ``cli``: the ``lminlab`` command line
- ``blas``: OpenBLAS thread pinning and fixed row blocks for seeded output
- ``streams``: per-trial splitmix64 seed substreams, the ±1 sampler and the
  array size check
"""

__version__ = "0.1.0"
