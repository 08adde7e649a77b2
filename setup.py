"""Legacy setup shim.

The execution environment is fully offline and ships setuptools without the
``wheel`` package, so PEP 660 editable installs (which build a wheel) are not
available.  Keeping a classic ``setup.py`` and omitting the ``[build-system]``
table lets ``pip install -e .`` fall back to the legacy develop install.
All metadata lives in ``pyproject.toml``; the package is pure Python and
builds nothing.
"""

from setuptools import setup

setup()
