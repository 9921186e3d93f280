"""Legacy setuptools shim.

This environment is offline and lacks the ``wheel`` package, so PEP 660
editable installs fail with ``invalid command 'bdist_wheel'``. Keeping a
``setup.py`` lets ``pip install -e . --no-build-isolation`` (and plain
``python setup.py develop``) work with the stock setuptools.
There is no ``pyproject.toml`` or ``setup.cfg``, so ``setup()`` declares
no metadata (setuptools names the distribution ``UNKNOWN``); the code
runs from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
