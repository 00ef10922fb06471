"""The benchmark's import surface, as a tier-1 contract.

``perfbench/adapter.py`` is the one file outside ``src/`` that binds
program names, and only a *traced* run (``--trace 1``) wraps the
callables of its ``TRACE_TABLE`` — a renamed or deleted method there
surfaces as a ``KeyError`` the untraced runs never see.  Importing the
adapter checks every ``repro`` symbol it uses; the loop checks the table.
"""

from perfbench import adapter


def test_every_traced_callable_is_defined_on_its_owner():
    missing = [
        "%s: %s.%s" % (layer, getattr(owner, "__name__", owner), attr)
        for layer, owner, attrs in adapter.TRACE_TABLE
        for attr in attrs if attr not in vars(owner)
    ]
    assert not missing, missing
