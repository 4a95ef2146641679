"""Setuptools metadata.

Kept as executable setup.py (rather than the PEP 517/660 path) so that
editable installs also work in offline environments that lack the
``wheel`` package required by build isolation
(``pip install -e . --no-build-isolation --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="foresight-repro",
    version="1.2.0",
    description=(
        "Reproduction of 'Foresight: Recommending Visual Insights' "
        "(VLDB 2017) with a multi-dataset serving layer and an asyncio "
        "HTTP transport"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    # scipy is the reference the tests check the numpy kernels against;
    # nothing under src/ imports it.
    extras_require={"test": ["scipy", "pytest", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-serve=repro.server.__main__:main",
            "repro-lint=repro.analysis.__main__:main",
        ],
    },
)
