"""The PR 1 compatibility shims warn on every call — the retirement path.

Each old bool/report entry point still answers correctly (they remain thin
wrappers over the Verdict producers) but now emits a ``DeprecationWarning``
naming its replacement, so downstream code can migrate before the shims are
removed.  ``ProcessAnalysis.of`` has warned since PR 1 and is asserted in
``tests/test_api_session.py``.
"""

from __future__ import annotations

import pytest

from repro.lang.normalize import normalize
from repro.library.basic import filter_process
from repro.properties.compilable import is_compilable, verify_compilable
from repro.properties.endochrony import is_endochronous, is_hierarchic, verify_endochrony


@pytest.fixture(scope="module")
def filter_normalized():
    return normalize(filter_process())


def test_is_compilable_warns_and_still_answers(filter_normalized):
    with pytest.warns(DeprecationWarning, match="is_compilable.*verify_compilable"):
        holds = is_compilable(filter_normalized)
    assert holds == verify_compilable(filter_normalized).holds


def test_is_hierarchic_warns_and_still_answers(filter_normalized):
    with pytest.warns(DeprecationWarning, match="is_hierarchic"):
        holds = is_hierarchic(filter_normalized)
    assert holds is True


def test_is_endochronous_warns_and_still_answers(filter_normalized):
    with pytest.warns(DeprecationWarning, match="is_endochronous.*verify_endochrony"):
        holds = is_endochronous(filter_normalized)
    assert holds == verify_endochrony(filter_normalized).holds


def test_shim_warnings_name_the_design_facade(filter_normalized):
    """Every shim's warning points at the Design.verify replacement."""
    for shim, argument in (
        (is_compilable, filter_normalized),
        (is_endochronous, filter_normalized),
        (is_hierarchic, filter_normalized),
    ):
        with pytest.warns(DeprecationWarning, match="Design.verify"):
            shim(argument)
