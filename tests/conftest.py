"""After a test that used ``monkeypatch``, forget what the process proved.

A transfer datum proven, or an orbit type's chain built, while a patch was
active would outlive the patch: later tests in the process would read it
instead of proving it again.  So once such a test's patches are undone,
the store of transfer data (``classfun._induction_data``) and the memo of
orbit-type chains (``perm._type_chain``) are cleared.  They are read
through ``sys.modules``: a module no test has imported has nothing to
clear, and this file imports no layer of the library.
"""

import sys

import pytest

PROCESS_STORES = (
    ("transchrome.classfun", "_induction_data"),
    ("transchrome.perm", "_type_chain"),
)


def forget_process_stores():
    """Clear each store in ``PROCESS_STORES`` whose module is loaded."""
    for module, name in PROCESS_STORES:
        if module in sys.modules:
            getattr(sys.modules[module], name).cache_clear()


@pytest.fixture(autouse=True)
def _forget_what_a_patched_test_proved(request):
    # autouse fixtures are set up first, so this teardown runs after
    # monkeypatch has undone its patches
    yield
    if "monkeypatch" in request.fixturenames:
        forget_process_stores()
