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
