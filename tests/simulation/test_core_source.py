"""The compiled core's source keeps to the interpreter's public C API.

A private ``_Py*`` function or macro may change or vanish in any interpreter
release without notice; the core builds on first use against whichever
interpreter runs it, so it must not name one.
"""

import re
from pathlib import Path

import repro.simulation.soa as soa

SOURCE = Path(soa.__file__).parent / "_core.c"


def test_the_core_names_no_private_interpreter_api():
    private = sorted(set(re.findall(r"\b_Py[A-Z]\w*", SOURCE.read_text())))
    assert private == []


def _x_macro(name):
    """The ``(Class, name)`` pairs of the core's ``#define name(X)`` table."""
    body = re.search(
        rf"^#define {name}\(X\)((?:.*\\\n)*.*)$", SOURCE.read_text(), re.MULTILINE
    ).group(1)
    return sorted(re.findall(r"X\((\w+), (\w+)\)", body))


def _python_table(table):
    return sorted((owner.__name__, name) for owner, name in table)


def test_the_stock_tables_match_the_core():
    """``Core()`` fails on a key the core looks for and the engine does not
    hand over, but an entry only the engine lists would be compared by
    nothing; the two sides name the same pairs."""
    from repro.simulation.soa.engine import _STOCK_ATTRIBUTES, _STOCK_FUNCTIONS

    assert _python_table(_STOCK_FUNCTIONS) == _x_macro("STOCK_FUNCTIONS")
    assert _python_table(_STOCK_ATTRIBUTES) == _x_macro("STOCK_ATTRIBUTES")
