"""Legacy setup shim; all metadata lives in pyproject.toml.

Where pip can reach a package index, install with
``pip install -e ".[test]"``.  Offline, without the ``wheel`` package,
pip cannot build an editable install; ``python setup.py develop`` (run
through this shim) installs the package and its ``hiddendb-repro``
script instead.
"""

from setuptools import setup

setup()
