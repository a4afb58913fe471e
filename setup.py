"""Legacy setup shim.

The reproduction environment is offline and has setuptools without the
``wheel`` package, so PEP 660 editable installs (``pip install -e .``)
cannot build a wheel.  ``python setup.py develop`` installs an egg-link
instead, which needs nothing but setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
