"""Legacy setup shim.

The execution environment has no `wheel` package and no network, so
PEP 660 editable installs (which build a wheel) are unavailable.  With
this shim and build isolation disabled, ``pip install -e .`` falls back
to the classic ``setup.py develop`` path, which needs neither.

The dependency floors here are the single source of truth; CI installs
against the same floors.  Each runtime dependency is imported only by
the analysis call that uses it: ``scipy`` (HiGHS) and ``numpy`` (the
constraint matrices) by :func:`repro.core.lp.lp_upper_bound`, and
``networkx`` (matchings) by :func:`repro.baselines.solve_tree_dp`.
Serving and solving import none of them.
"""
from setuptools import find_packages, setup

setup(
    name="repro-line-tree-scheduling",
    version="0.7.0",
    description=(
        "Reproduction of 'Distributed algorithms for scheduling on "
        "line and tree networks' (PODC 2012) with production engines"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        "scipy",
        "networkx",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
